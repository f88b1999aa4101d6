"""The Toda-lattice side of the potential function at T = 1/e.

Under the triangular change of variables the potential equals Givental's
phase function, and the momenta read off at its critical points land on
the level set D_2 = ... = D_n = 0 of the Toda Hamiltonians, for n = 3
and for the generic n = 4 weight (5, 2, 0, -4).
"""

import numpy as np

from gcflag import (
    FlagType,
    build_polytope,
    build_potential,
    gc_to_toda,
    level_set_check,
    phase_function,
)

print("phase-function identity at T = 1/e")
rng = np.random.default_rng(0)
for n in (2, 3, 4):
    lam = tuple(float(v) for v in range(n - 1, -n, -2))  # rho-like, integral
    pot = build_potential(build_polytope(FlagType.full(n), [int(v) for v in lam]))
    u = rng.standard_normal(pot.N)
    x = rng.standard_normal(pot.N)
    f = phase_function(gc_to_toda(x, u, lam))
    w = pot.value(np.asarray(x - u, dtype=complex), -1.0)
    print("  n = %d: |f_q - PO| = %.1e" % (n, abs(f - w)))

print()
print("Toda level set at the critical points, momenta p_i = df/dt_i")
for lam in ([2, 0, -2], [5, 2, 0, -4]):
    rep = level_set_check(build_potential(build_polytope(FlagType.full(len(lam)), lam)))
    worst = max(r["residual"] for r in rep)
    print("  lambda = %s: %d points, max|D_i| = %.2e" % (lam, len(rep), worst))
    if len(lam) == 3:
        for r in rep:
            print(
                "    y = %s  max|D_i| = %.2e"
                % (np.array_str(r["y"], precision=4, suppress_small=True), r["residual"])
            )
