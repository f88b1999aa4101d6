"""Checks of the program's outputs, made apart from the program.

Each check_* function takes the benchmark's own input and the program's
output and returns a list of problems; an empty list means the output
passed.  The references are the formulas in reference.py, scipy's LP
solver and Qhull, and numpy's eigenvalue and determinant routines.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from reference import (
    anticanonical,
    free_positions,
    interlacing_inequalities,
    is_full,
    parse_flag,
    parse_lambda,
    volume_formula,
    weyl_dimension,
)

RESIDUAL_TOL = 1e-9  # gradient / sum of |terms| at a reported critical point
DISTINCT_TOL = 1e-6  # relative distance below which two points are one
HESSIAN_TOL = 1e-8  # smallest singular value of the Hessian / sum of |terms|
SPECTRUM_TOL = 1e-8  # eigenvalue agreement, relative to max |lambda|
IDENTITY_TOL = 1e-12  # exact identities evaluated in floating point
VOLUME_TOL = 1e-9  # Qhull volume against the exact value, relative


@lru_cache(maxsize=None)
def irredundant(lam, coords):
    """The interlacing inequalities that define facets, decided by LP.

    Inequality j is a facet exactly when the other inequalities allow
    <v_j, u> < tau_j; the LP minimises <v_j, u> over them, with
    <v_j, u> >= tau_j - 1 to keep it bounded.
    """
    ineqs = interlacing_inequalities(lam, coords)
    A = np.array([v for v, _ in ineqs], dtype=float)
    b = np.array([float(t) for _, t in ineqs])
    keep = []
    for j, ineq in enumerate(ineqs):
        rhs = b.copy()
        rhs[j] -= 1.0
        res = linprog(A[j], A_ub=-A, b_ub=-rhs, bounds=(None, None), method="highs")
        if res.status != 0:
            raise RuntimeError("facet LP failed: %s" % res.message)
        if res.fun < b[j] - 1e-7:
            keep.append(ineq)
    return frozenset(keep)


def _frame(lam, doc, problems):
    """Validate the echoed lambda and coordinate order; return coords."""
    if parse_lambda(doc["lambda"]) != lam:
        problems.append("output lambda %s differs from the input" % doc["lambda"])
    coords = tuple(tuple(c) for c in doc.get("coords", free_positions(lam)))
    if sorted(coords) != sorted(free_positions(lam)):
        problems.append("coordinates %s are not the free pattern positions" % (coords,))
        return tuple(free_positions(lam))
    return coords


def _facet_problems(what, rows, lam, coords):
    got = [(tuple(r["v"]), Fraction(r["tau"])) for r in rows]
    want = irredundant(lam, coords)
    if len(set(got)) != len(got) or set(got) != want:
        extra, missing = set(got) - want, want - set(got)
        return [
            "%s are not the irredundant interlacing inequalities "
            "(%d listed, %d extra, %d missing)" % (what, len(got), len(extra), len(missing))
        ]
    return []


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _hull_volume(points):
    """Qhull volume of the points' convex hull; 0 if it is not full-dimensional."""
    try:
        return ConvexHull(np.asarray(points, dtype=float)).volume
    except QhullError:
        return 0.0


def check_polytope(flag, lam, doc):
    problems = []
    coords = _frame(lam, doc, problems)
    N = len(coords)
    problems += _facet_problems("facets", doc["facets"], lam, coords)
    if doc["dimension"] != N:
        problems.append("dimension %s, expected %d" % (doc["dimension"], N))

    ineqs = interlacing_inequalities(lam, coords)
    verts = [tuple(Fraction(x) for x in v) for v in doc["vertices"]]
    if len(set(verts)) != len(verts):
        problems.append("repeated vertices")
    for v in verts:
        slack = [sum(a * x for a, x in zip(row, v)) - tau for row, tau in ineqs]
        active = [row for row, s in zip(ineqs, slack) if s == 0]
        if min(slack) < 0:
            problems.append("vertex %s violates an interlacing inequality" % (v,))
        elif np.linalg.matrix_rank(np.array([r for r, _ in active], dtype=float)) < N:
            problems.append("point %s has fewer than %d independent active facets" % (v, N))

    want = volume_formula(lam)
    for key in ("volume", "volume_formula"):
        if Fraction(doc[key]) != want:
            problems.append("%s %s, product formula gives %s" % (key, doc[key], want))
    hull = _hull_volume(verts)
    if not _rel_close(hull, float(want), VOLUME_TOL):
        problems.append("Qhull volume of the vertices %.12g, formula %s" % (hull, want))

    if any(x.denominator != 1 for x in lam):
        return problems
    weyl = weyl_dimension(lam)
    if doc["lattice_point_count"] != weyl:
        problems.append("lattice points %d, Weyl dimension %s" % (doc["lattice_point_count"], weyl))
    if "weyl_dimension" in doc and doc["weyl_dimension"] != weyl:
        problems.append("weyl_dimension %s, expected %s" % (doc["weyl_dimension"], weyl))
    if lam == parse_lambda(anticanonical(flag)) and not doc["reflexive"]:
        problems.append("anticanonical lambda but not reported reflexive")
    if doc["reflexive"]:
        p = [Fraction(x) for x in doc["interior_point"]]
        if any(x.denominator != 1 for x in p):
            problems.append("interior point %s is not a lattice point" % doc["interior_point"])
        for f in doc["facets"]:
            dist = sum(a * x for a, x in zip(f["v"], p)) - Fraction(f["tau"])
            if dist != 1:
                problems.append("facet %s at distance %s from the interior point" % (f, dist))
        hull = _hull_volume([f["v"] for f in doc["facets"]])
        if not _rel_close(hull, float(Fraction(doc["dual_volume"])), VOLUME_TOL):
            problems.append(
                "dual volume %s, Qhull on the facet normals %.12g" % (doc["dual_volume"], hull)
            )
    return problems


def check_potential(flag, lam, doc):
    problems = []
    if parse_lambda(doc["lambda"]) != lam:
        problems.append("output lambda %s differs from the input" % doc["lambda"])
    coords = tuple(free_positions(lam))
    return problems + _facet_problems("potential terms", doc["terms"], lam, coords)


def _terms(doc):
    V = np.array([t["v"] for t in doc["terms"]], dtype=float)
    tau = np.array([float(Fraction(t["tau"])) for t in doc["terms"]])
    return V, tau


def _at(V, tau, logT, y):
    """Term values, gradient and Hessian in log coordinates at y."""
    t = np.exp(V @ np.log(np.asarray(y, dtype=complex)) - tau * logT)
    return t, V.T @ t, (V * t[:, None]).T @ V


def critical_points_of(doc):
    return [np.array(p["y_re"]) + 1j * np.array(p["y_im"]) for p in doc["critical"]]


def missing_critical_points(flag, doc):
    """Critical points short of n! on a full flag (0 on partial flags)."""
    if not is_full(flag):
        return 0
    return max(0, factorial(parse_flag(flag)[1]) - len(doc["critical"]))


def check_critical(flag, lam, doc):
    problems = []
    coords = tuple(free_positions(lam))
    problems += _facet_problems("potential terms", doc["terms"], lam, coords)
    V, tau = _terms(doc)
    N = V.shape[1]
    logT = np.log(doc["T"])
    pts = critical_points_of(doc)
    if doc["critical_count"] != len(pts):
        problems.append(
            "critical_count %s but %d points listed" % (doc["critical_count"], len(pts))
        )

    for a, y in enumerate(pts):
        t, g, h = _at(V, tau, logT, y)
        scale = np.abs(t).sum()
        if np.abs(g).max() > RESIDUAL_TOL * scale:
            problems.append("point %d: gradient residual %.2e" % (a, np.abs(g).max() / scale))
        if np.linalg.svd(h, compute_uv=False).min() <= HESSIAN_TOL * scale:
            problems.append("point %d: degenerate Hessian" % a)
        for b, z in enumerate(pts[:a]):
            if np.abs(y - z).max() <= DISTINCT_TOL * max(np.abs(y).max(), np.abs(z).max()):
                problems.append("points %d and %d coincide" % (b, a))

    # Kushnirenko: isolated solutions <= N! vol(Newton polytope of the terms)
    bound = factorial(N) * _hull_volume(V)
    if len(pts) > bound + 1e-6:
        problems.append("%d critical points exceed the Kushnirenko bound %.6g" % (len(pts), bound))

    if flag == "2|4" and lam == parse_lambda((1, 1, -1, -1)):
        problems += _gr24_closed_forms(doc["T"], pts, doc["critical"])

    pm = doc["positive_real_minimum"]
    y = np.array(pm["y"])
    t, g, _ = _at(V, tau, logT, y)
    if (y <= 0).any() or np.abs(g).max() > RESIDUAL_TOL * np.abs(t).sum():
        problems.append("positive real minimum is not a positive critical point")
    ineqs = interlacing_inequalities(lam, coords)
    slack = min(sum(a * x for a, x in zip(v, pm["valuation"])) - float(tt) for v, tt in ineqs)
    if slack <= 0:
        problems.append("positive real minimum's valuation is not interior (slack %.3g)" % slack)
    return problems


def _gr24_closed_forms(T, pts, rows):
    """Gr(2,4) at lambda = (1,1,-1,-1): y1 = +-sqrt(Q1 Q3),
    y3 = +-sqrt(2 Q3 y1), y2 = Q1 Q3 / y3, y4 = y1, with Q1 = T, Q3 = 1/T;
    valuations u2 = (3 l1 + l3)/4 = 1/2 and u3 = (l1 + 3 l3)/4 = -1/2."""
    problems = []
    if len(pts) != 4:
        problems.append("Gr(2,4): %d critical points, closed forms give 4 (< 6)" % len(pts))
    Q1, Q3 = T, 1.0 / T
    for s1 in (1, -1):
        y1 = s1 * np.sqrt(complex(Q1 * Q3))
        for s3 in (1, -1):
            y3 = s3 * np.sqrt(2 * Q3 * y1)
            want = np.array([y1, Q1 * Q3 / y3, y3, y1])
            err = min((np.abs(p - want).max() / np.abs(want).max() for p in pts), default=np.inf)
            if err > 1e-8:
                problems.append("Gr(2,4): closed-form point %s not found (%.1e)" % (want, err))
    for a, r in enumerate(rows):
        v = r["valuation"]
        if v is None or abs(v[1] - 0.5) > 1e-3 or abs(v[2] + 0.5) > 1e-3:
            problems.append("Gr(2,4): point %d has valuation %s, want u2 = 1/2, u3 = -1/2" % (a, v))
    return problems


def _block_spectra(X, coords):
    """i-th largest eigenvalue of the upper-left k x k block, per (k, i),
    for a stack of matrices."""
    spec = {k: np.linalg.eigvalsh(X[:, :k, :k])[:, ::-1] for k in {k for k, _ in coords}}
    return np.stack([spec[k][:, i - 1] for k, i in coords], axis=1)


def check_fiber(block):
    """Outputs of one flag's sampling block (see fiber.py for the fields)."""
    label = str(block["flag"])
    lam = parse_lambda(block["lam"].tolist())
    lamf = np.array([float(x) for x in lam])
    coords = [tuple(c) for c in block["coords"].tolist()]
    if sorted(coords) != sorted(free_positions(lam)):
        return ["%s: coordinates are not the free pattern positions" % label]
    ineqs = interlacing_inequalities(lam, coords)
    A = np.array([v for v, _ in ineqs], dtype=float)
    b = np.array([float(t) for _, t in ineqs])
    tol = SPECTRUM_TOL * np.abs(lamf).max()
    bad = {}

    def count(what, mask):
        if np.any(mask):
            bad[what] = bad.get(what, 0) + int(np.sum(mask))

    def off_orbit(X):
        herm = np.abs(X - X.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        spec = np.abs(np.linalg.eigvalsh(X)[:, ::-1] - lamf).max(axis=1)
        return (herm > tol) | (spec > tol)

    # an operation that failed left no output; a kind may have none
    def off_spectra(X, U):
        return np.abs(_block_spectra(X, coords) - U).max(axis=1) > tol

    X, U = block["orbit_x"], block["orbit_u"]
    if len(X):
        count("random_orbit_point is off the orbit", off_orbit(X))
        count("gc_map differs from the block spectra", off_spectra(X, U))
        count("gc_map output does not interlace", (U @ A.T - b).min(axis=1) < -tol)

    U, X, back = block["fiber_u"], block["fiber_x"], block["fiber_back"]
    if len(X):
        count("fiber_point matrix does not have spectrum lambda", off_orbit(X))
        count("fiber_point block spectra differ from u", off_spectra(X, U))
        count("gc_map(fiber_point(u)) differs from u", np.abs(back - U).max(axis=1) > tol)

    Z = block["plucker_z"]
    for r, mask in enumerate(block["plucker_sets"]):
        if not len(Z):
            break
        I = np.nonzero(mask)[0]
        k = len(I)
        minor = np.linalg.det(Z[:, I, :k])
        diag = np.prod(Z[:, I, np.arange(k)], axis=1)
        for what, got, want in (
            ("deformed_plucker(z, I, 1) != minor", block["plucker_q1"][:, r], minor),
            ("deformed_plucker(z, I, 0) != diagonal monomial", block["plucker_q0"][:, r], diag),
        ):
            count(what, np.abs(got - want) > IDENTITY_TOL * np.maximum(np.abs(want), 1e-12))

    f = block["toda_f"]
    if len(f):
        n = len(lam)
        if len(ineqs) != n * (n - 1):
            bad["%d interlacing terms, expected n(n-1)" % len(ineqs)] = 1
        # potential at T = 1/e in y = e^x T^u: sum_j exp(<v_j, x> - (<v_j, u> - tau_j))
        lhs = np.exp(block["toda_x"] @ A.T - (block["toda_u"] @ A.T - b)).sum(axis=1)
        off = np.abs(lhs - f) > IDENTITY_TOL * np.abs(lhs)
        count("phase function differs from the potential at 1/e", off)
    return ["%s: %s (%d samples)" % (label, what, k) for what, k in bad.items()]
