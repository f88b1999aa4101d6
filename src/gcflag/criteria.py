"""The acceptance criteria, one function each.

`gc verify` and `tests/test_acceptance.py` run these same functions, so a
criterion has one list of cases, one draw count, one seed and one set of
bounds.  `CRITERIA` lists them with their numbers, the `gc verify` suite
of each and its time bound in seconds, if it has one.  Each returns an
`Outcome`: whether every bound held, the worst residual seen (for an
exact check, 0 when it held and 1 when it did not), and a one-line
account of the figures.

The sampled criteria 8-11 take `samples`, their draw count, and `seed`;
criterion 8 also takes `flag` and criterion 11 `n`, which narrow them to
one flag or one n.  The defaults are what the acceptance suite runs.
"""

import inspect
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import factorial

import numpy as np

from . import degeneration as dg
from . import polytopes as pl
from . import potential as pt
from . import system as sy
from . import toda as td
from .flags import FlagType, anticanonical_lambda

EINV = float(np.exp(-1.0))
F3, G24 = FlagType.full(3), FlagType.grassmannian(2, 4)
SUITES = ("polytope", "potential", "degeneration", "system", "toda")


@dataclass(frozen=True)
class Outcome:
    passed: bool
    residual: float
    detail: str


@dataclass(frozen=True)
class Criterion:
    name: str  # "01_facets": the number and the function's name
    suite: str
    run: object
    seconds: float = None  # the time bound, if any

    @cached_property
    def options(self):
        return inspect.signature(self.run).parameters

    def __call__(self, **opts):
        """Run with those of opts that the criterion takes; None means unset.
        With a time bound, the run fails when it takes longer, and its
        seconds end the detail."""
        t0 = time.monotonic()
        out = self.run(**{k: v for k, v in opts.items() if k in self.options and v is not None})
        if self.seconds is None:
            return out
        dt = time.monotonic() - t0
        return Outcome(out.passed and dt < self.seconds, out.residual, "%s (%.2fs)" % (out.detail, dt))


def check_samples(samples):
    """Refuse a draw count below 1 for the sampled criteria 8-11, which
    would pass on no draws having checked nothing."""
    if samples < 1:
        raise ValueError("--samples must be at least 1 (got %d)" % samples)


# ---------------------------------------------------------------------------
# cases


def _fixed_cases():
    """All weakly decreasing non-constant lambda in {0..3}^n for n = 2..4,
    five n = 5 cases, and three Grassmannian-type weights: 61 cases, each
    with the flag type whose steps are where lambda drops."""
    cases = sorted(
        {
            lam
            for n in (2, 3, 4)
            for lam in combinations_with_replacement(range(3, -1, -1), n)
            if len(set(lam)) > 1
        },
        key=lambda l: (len(l), l),
    )
    cases += [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (2, 1, 0, 0, 0), (2, 2, 1, 1, 0)]
    cases += [(3, 2, 1, 0, 0), (2, 2, -2, -2), (3, 3, -2, -2, -2), (2, 2, 2, -3, -3)]
    return [
        (FlagType(len(lam), tuple(i for i in range(1, len(lam)) if lam[i - 1] != lam[i])), lam)
        for lam in cases
    ]


FIXED_CASES = _fixed_cases()
# criteria 4 and 5 also take three weights with negative entries
POLYTOPE_CASES = FIXED_CASES + [
    (F3, (2, 0, -2)),
    (FlagType.full(4), (3, 1, -1, -3)),
    (G24, (1, 1, -1, -1)),
]
# every flag type with n <= 4 at its anticanonical weight, and three more weights
DET_CASES = [
    (fl, anticanonical_lambda(fl))
    for n in (2, 3, 4)
    for r in range(1, n)
    for fl in (FlagType(n, steps) for steps in combinations(range(1, n), r))
] + [(FlagType.full(2), (1, 0)), (F3, (3, 1, 0)), (G24, (1, 1, -1, -1))]
FAMILY_RELATIONS = {
    "1,2|3": "+Z[1]Z[2,3] -Z[2]Z[1,3] +t Z[3]Z[1,2]",
    "2|4": "+t Z[1,2]Z[3,4] -Z[1,3]Z[2,4] +Z[1,4]Z[2,3]",
}
DEGENERATION_FLAGS = [F3, FlagType.full(5), FlagType.grassmannian(2, 5), G24]
SYSTEM_CASES = [
    (F3, (2, 0, -2)),
    (FlagType.full(4), (3, 1, -1, -3)),
    (FlagType.full(5), (4, 2, 0, -2, -4)),
    (G24, (1, 1, -1, -1)),
]
ROUND_TRIPS = 50  # per case, the first of criterion 9's uniform points


def _uniform_point(poly, seed):
    """A uniform random point of the polytope: the GC map of a Haar-random
    orbit point.  The GC map pushes the Liouville (Haar) measure of the orbit
    forward to Lebesgue measure on the polytope (Guillemin-Sternberg 1983;
    Baryshnikov, Probab. Theory Relat. Fields 119 (2001))."""
    x = sy.random_orbit_point([float(v) for v in poly.lam], seed=seed)
    return sy.gc_map(x, poly)


def _closed_form_distance(pts, closed):
    """Worst over the closed forms of the relative distance to the nearest point."""
    return max(
        min((np.abs(p.y - c).max() / np.abs(c).max() for p in pts), default=np.inf)
        for c in closed
    )


# ---------------------------------------------------------------------------
# the criteria


def facets():
    """The facet lists of F(1,2,3) at (2,0,-2) and Gr(2,4) at (1,1,-1,-1), in order."""
    got = [
        [(f.v, f.tau) for f in pl.build_polytope(fl, lam).facets]
        for fl, lam in ((F3, [2, 0, -2]), (G24, [1, 1, -1, -1]))
    ]
    want = [
        [
            ((-1, 0, 0), -2),
            ((1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 1, 0), -2),
            ((1, 0, -1), 0),
            ((0, -1, 1), 0),
        ],
        [
            ((0, -1, 0, 0), -1),
            ((-1, 1, 0, 0), 0),
            ((1, 0, -1, 0), 0),
            ((0, 0, 1, 0), -1),
            ((0, 1, 0, -1), 0),
            ((0, 0, -1, 1), 0),
        ],
    ]
    return Outcome(got == want, float(got != want), "six-facet lists reproduced exactly")


def critical_f123():
    """F(1,2,3) at (2,0,-2): six nondegenerate critical points, closed forms, valuations."""
    pot = pt.build_potential(pl.build_polytope(F3, [2, 0, -2]))
    pts = pt.critical_points(pot, EINV)
    # closed forms: y3 a cube root of Q1 Q2 Q3 = 1, y2 = +-sqrt(Q3 (y3+Q2)),
    # y1 = y3^2 / y2, with Q_i = T^{lambda_i}
    Q2, Q3 = 1.0, EINV**-2
    closed = []
    for k in range(3):
        y3 = np.exp(2j * np.pi * k / 3)
        for sgn in (1, -1):
            y2 = sgn * np.sqrt(complex(Q3 * (y3 + Q2)))
            closed.append(np.array([y3**2 / y2, y2, y3]))
    worst = _closed_form_distance(pts, closed)
    vals_ok = np.allclose(pt.critical_valuation(pot, pts), [1, -1, 0], atol=1e-3)
    ok = len(pts) == 6 and all(p.nondegenerate for p in pts)
    ok = ok and worst <= 1e-8 and vals_ok
    return Outcome(
        ok, worst,
        "F(1,2,3): 6 points match closed forms (worst %.1e), valuations (1,-1,0)" % worst,
    )


def critical_gr24():
    """Gr(2,4) at (1,1,-1,-1): four critical points, fewer than rank H* = 6."""
    lam = [1, 1, -1, -1]
    pot = pt.build_potential(pl.build_polytope(G24, lam))
    pts = pt.critical_points(pot, EINV)
    Q1, Q3 = EINV, 1 / EINV
    closed = []
    for s1 in (1, -1):
        y1 = s1 * np.sqrt(complex(Q1 * Q3))
        for s3 in (1, -1):
            y3 = s3 * np.sqrt(complex(2 * Q3 * y1))
            closed.append(np.array([y1, Q1 * Q3 / y3, y3, y1]))
    worst = _closed_form_distance(pts, closed)
    # valuation u2 = (3 lam1 + lam3)/4; the paper's u3 line is settled by
    # the extrapolation oracle at u3 = (lam1 + 3 lam3)/4
    want = ((3 * lam[0] + lam[2]) / 4, (lam[0] + 3 * lam[2]) / 4)
    vals_ok = all(
        abs(v[1] - want[0]) <= 1e-3 and abs(v[2] - want[1]) <= 1e-3
        for v in pt.critical_valuation(pot, pts)
    )
    ok = len(pts) == 4 < pt.cohomology_rank(pot.flag) == 6 and all(p.nondegenerate for p in pts)
    ok = ok and worst <= 1e-8 and vals_ok
    return Outcome(
        ok, worst,
        "Gr(2,4): 4 < 6 points match closed forms (worst %.1e), "
        "u2 = (3l1+l3)/4, u3 = (l1+3l3)/4" % worst,
    )


def lattice_counts():
    """Lattice points of the GC polytope, listed and counted, = the Weyl dimension."""
    worst = max(
        abs(count - pl.weyl_dimension(lam))
        for fl, lam in POLYTOPE_CASES
        for poly in [pl.build_polytope(fl, lam)]
        for count in (len(pl.lattice_points(poly)), pl.lattice_point_count(poly))
    )
    ok = len(POLYTOPE_CASES) >= 20 and worst == 0
    return Outcome(
        ok, float(worst),
        "lattice points listed = counted = Weyl dimension on %d cases" % len(POLYTOPE_CASES),
    )


def volumes():
    """Exact volume = the closed form `volume_formula`."""
    worst = max(
        abs(pl.volume(pl.build_polytope(fl, lam)) - pl.volume_formula(fl, lam))
        for fl, lam in POLYTOPE_CASES
    )
    return Outcome(
        worst == 0, float(worst),
        "face-lattice volume = closed form on %d cases" % len(POLYTOPE_CASES),
    )


def reflexivity():
    """Anticanonical polytopes are reflexive, with the known centre and dual volume."""
    ok = True
    for fl in (F3, FlagType.full(4), G24):
        poly = pl.build_polytope(fl, anticanonical_lambda(fl))
        refl, p = pl.is_reflexive(poly)
        ok = ok and refl and p == tuple(Fraction(k - 2 * i + 1) for (k, i) in poly.coords)
        N, n = poly.N, fl.n
        want = Fraction(2**N if fl.is_full() else n * 2 ** (N - (n - 1)), factorial(N))
        ok = ok and pl.dual_volume(poly) == want
    return Outcome(
        ok, float(not ok),
        "anticanonical polytopes reflexive, interior k-2i+1, dual volumes exact",
    )


def determinants():
    """Every loop-free selection of N facets at a vertex has |det| = 1, and
    every vertex has one: its tight normals have rank N."""
    dets, bare, vertices = [], 0, 0
    for fl, lam in DET_CASES:
        poly = pl.build_polytope(fl, lam)
        for vertex, active in poly.vertices():
            found = len(dets)
            for sel in combinations(sorted(active), poly.N):
                try:
                    dets.append(abs(pl.simplicial_cone_determinant(poly, vertex, sel)))
                except pl.LoopError:
                    continue  # no simplicial cone at this selection
            bare += len(dets) == found
            vertices += 1
    # a loop-free selection of N normals is a spanning forest with N edges,
    # so its rank is N: a zero determinant is a fault, as is a bare vertex
    worst = max([abs(d - 1) for d in dets] + [1] * bare, default=0)
    return Outcome(
        worst == 0, float(worst),
        "%d of %d loop-free selections have |det| != 1, %d of %d vertices have no "
        "loop-free selection; all flags n <= 4 anticanonical and 3 more weights"
        % (sum(d != 1 for d in dets), len(dets), bare, vertices),
    )


def degeneration(samples=100, seed=0, flag=None):
    """q_I(z, t) at t = 1 and t = 0 on `samples` random z (split over
    n = 2..5), the t-deformed Pluecker relations on `samples` random (z, t),
    and the binomial relations exactly; `flag` narrows all three to it."""
    check_samples(samples)
    flags = DEGENERATION_FLAGS if flag is None else [flag]
    ns = (2, 3, 4, 5) if flag is None else (flag.n,)
    rng = np.random.default_rng(seed)
    worst1 = worst0 = 0.0
    for n in ns:
        for _ in range(-(-samples // len(ns))):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for k in range(1, n + 1):
                for I in combinations(range(1, n + 1), k):
                    q1 = dg.deformed_plucker(z, I, 1.0)
                    d1 = np.linalg.det(z[[i - 1 for i in I]][:, :k])
                    worst1 = max(worst1, abs(q1 - d1) / max(abs(d1), 1e-12))
                    q0 = dg.deformed_plucker(z, I, 0.0)
                    d0 = np.prod([z[I[l] - 1, l] for l in range(k)])
                    worst0 = max(worst0, abs(q0 - d0) / max(abs(d0), 1e-12))
    fam = [
        dg.verify_family_equation(fl, FAMILY_RELATIONS[str(fl)], samples=samples, seed=seed)
        for fl in flags
        if str(fl) in FAMILY_RELATIONS
    ]
    binom_ok = all(
        dg.binomial_relation_holds(fl, I, J)
        for fl in flags
        for k1 in fl.steps
        for k2 in fl.steps
        for I in combinations(range(1, fl.n + 1), k1)
        for J in combinations(range(1, fl.n + 1), k2)
    )
    ok = worst1 <= 1e-12 and worst0 <= 1e-12 and all(r <= 1e-10 for r in fam) and binom_ok
    return Outcome(
        ok, max([worst1, worst0, float(not binom_ok)] + fam),
        "q_I endpoints (%.1e, %.1e), family equations (%s), binomials exact on %s"
        % (worst1, worst0, ", ".join("%.1e" % r for r in fam), ", ".join(map(str, flags))),
    )


def containment(samples=1000, seed=0):
    """`samples` uniform points per case inside the polytope, and the fiber
    round trip gc_map(fiber_point(u)) = u on the first ROUND_TRIPS of them."""
    check_samples(samples)
    inside = True
    worst = 0.0
    trips = 0
    for fl, lam in SYSTEM_CASES:
        poly = pl.build_polytope(fl, lam)
        pts = [_uniform_point(poly, (seed, s)) for s in range(samples)]
        inside = all(poly.contains_float(u, tol=1e-9) for u in pts) and inside
        for u in pts[:ROUND_TRIPS]:
            back = sy.gc_map(sy.fiber_point(poly, u), poly)
            worst = max(worst, float(np.abs(back - u).max()))
            trips += 1
    return Outcome(
        inside and worst <= 1e-8, max(worst, float(not inside)),
        "%d gc_map samples inside, %d round trips (worst %.1e)"
        % (samples * len(SYSTEM_CASES), trips, worst),
    )


def moment_maps(samples=100, seed=0):
    """The ladder-box spectra of mu match nu~ at `samples` toric points per case."""
    check_samples(samples)
    worst = 0.0
    cases = ((F3, [2.0, 0.0, -2.0]), (G24, [1.0, 1.0, -1.0, -1.0]))
    for fl, lam in cases:
        for s in range(samples):
            Z = dg.monomial_embedding(dg.random_torus_point(fl, seed=(seed, s)))
            for m, j in pl.free_positions(fl):
                ev = sy.eigenvalues_desc(dg.moment_mu(Z, m, lam))
                worst = max(worst, abs(ev[j - 1] - dg.moment_nu(Z, (m, j), lam)))
    return Outcome(
        worst <= 1e-9, worst,
        "spec(mu) matches nu~ per ladder box on %d toric points (worst %.1e)"
        % (samples * len(cases), worst),
    )


def toda_identity(samples=100, seed=0, n=None):
    """Potential = phase function at T = 1/e on `samples` random (u, x) per n,
    over five random lambdas each; n = 2, 3, 4 unless `n` is given.  Also
    F(1,2,3) at (2,0,-2) has 3! critical points."""
    check_samples(samples)
    rng = np.random.default_rng(seed)
    worst = 0.0
    draws = 0
    for m in (2, 3, 4) if n is None else (n,):
        for _ in range(5):
            lam = {Fraction(int(v), 16) for v in rng.integers(-48, 48, 4 * m)}
            lam = sorted(lam, reverse=True)[:m]
            pot = pt.build_potential(pl.build_polytope(FlagType.full(m), lam))
            for _ in range(-(-samples // 5)):
                u = rng.standard_normal(pot.N)
                x = rng.standard_normal(pot.N)
                f = td.phase_function(td.gc_to_toda(x, u, [float(v) for v in lam]))
                w = pot.value(np.asarray(x - u, dtype=complex), -1.0)
                worst = max(worst, abs(f - w) / abs(f))
                draws += 1
    pot3 = pt.build_potential(pl.build_polytope(F3, [2, 0, -2]))
    count = len(pt.critical_points(pot3, EINV))
    return Outcome(
        worst <= 1e-12 and count == 6, worst,
        "potential = phase function at T=1/e, %d draws (worst %.1e); "
        "n=3 count %d = 3!" % (draws, worst, count),
    )


def positive_minimum():
    """The positive real critical point has a strictly interior valuation."""
    ok = True
    worst = 0.0
    for fl, lam in FIXED_CASES:
        poly = pl.build_polytope(fl, lam)
        pot = pt.build_potential(poly)
        cp = pt.positive_real_minimum(pot, EINV)
        pt.critical_valuation(pot, cp)
        worst = max(worst, cp.residual)
        ok = ok and cp.residual <= 1e-10
        ok = ok and poly.contains_float(np.asarray(cp.valuation), tol=pt.INTERIOR_TOL)
    return Outcome(
        ok, worst,
        "positive real minimum critical (worst %.1e), valuation strictly interior, "
        "all %d cases" % (worst, len(FIXED_CASES)),
    )


def level_set():
    """The momenta p_i = df/dt_i at all n! critical points lie on the Toda
    level set D_2 = ... = D_n = 0: n = 3 and a generic n = 4.  The points
    come from the multi-start grid (level_set_check), since points taken
    from D = 0 would pass by construction."""
    ok = True
    worst = 0.0
    counts = []
    for fl, lam in ((F3, [2, 0, -2]), (FlagType.full(4), [5, 2, 0, -4])):
        rep = td.level_set_check(pt.build_potential(pl.build_polytope(fl, lam)))
        ok = ok and len(rep) == factorial(fl.n)
        worst = max([worst] + [r["residual"] for r in rep])
        counts.append(len(rep))
    return Outcome(
        ok and worst <= 1e-6, worst,
        "Toda level set at the critical points, n=3 and (5,2,0,-4): %d and %d points, "
        "max|D_i| = %.2e" % (counts[0], counts[1], worst),
    )


# ---------------------------------------------------------------------------
# the registry: criterion number, `gc verify` suite, function, time bound in seconds

CRITERIA = tuple(
    Criterion("%02d_%s" % (number, fn.__name__), suite, fn, seconds)
    for number, suite, fn, seconds in (
        (1, "polytope", facets, 1.0),
        (2, "potential", critical_f123, 10.0),
        (3, "potential", critical_gr24, 10.0),
        (4, "polytope", lattice_counts, 60.0),
        (5, "polytope", volumes, 60.0),
        (6, "polytope", reflexivity, None),
        (7, "polytope", determinants, 60.0),
        (8, "degeneration", degeneration, None),
        (9, "system", containment, None),
        (10, "degeneration", moment_maps, None),
        (11, "toda", toda_identity, None),
        (12, "potential", positive_minimum, None),
        (13, "toda", level_set, None),
    )
)
