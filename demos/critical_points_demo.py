"""Critical points of the Landau-Ginzburg potentials.

F(1,2,3) has 6 = dim H^* critical points while Gr(2,4) has only 4 < 6;
the demo finds them numerically at T = 1/e, extrapolates their
valuations, and locates the positive real minimum, whose valuation sits
strictly inside the polytope.
"""

import numpy as np

from gcflag import (
    FlagType,
    build_polytope,
    build_potential,
    cohomology_rank,
    critical_points,
    critical_valuation,
    positive_real_minimum,
)

T = float(np.exp(-1.0))

for flag, lam in [
    (FlagType.full(3), [2, 0, -2]),
    (FlagType.grassmannian(2, 4), [1, 1, -1, -1]),
]:
    poly = build_polytope(flag, lam)
    pot = build_potential(poly)
    print("=" * 60)
    print("flag %s, lambda = %s" % (flag, lam))
    print("potential:", pot.render())
    pts = critical_points(pot, T)
    print(
        "critical points: %d (cohomology rank %d)"
        % (len(pts), cohomology_rank(flag))
    )
    for p, v in zip(pts, critical_valuation(pot, pts)):
        print(
            "  y = %s  valuation ~ %s  nondegenerate = %s"
            % (
                np.array_str(p.y, precision=4, suppress_small=True),
                np.round(v, 3),
                p.nondegenerate,
            )
        )
    pm = positive_real_minimum(pot, T)
    critical_valuation(pot, pm)
    print(
        "positive real minimum: y = %s, valuation ~ %s, interior = %s"
        % (
            np.array_str(pm.y.real, precision=4),
            np.round(pm.valuation, 3),
            poly.contains_float(np.asarray(pm.valuation), tol=-1e-6),
        )
    )
