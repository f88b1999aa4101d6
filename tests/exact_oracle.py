"""Exact reference implementations the tests compare gcflag against.

Gaussian elimination over Fractions (rank, solve, affine_dim), a pulling
triangulation with a determinant per simplex (volume_of), and the vertex
decision on every lambda-valued pattern (pattern_vertices).  The library
answers these questions combinatorially from the pattern graph; these are
the direct computations, slow but independent of that argument.  The
facets (vertex_facets) are decided on the vertices of the polytope that
every candidate inequality cuts out, not on the pattern order.  The
interior lattice points (interior_lattice_points) are found by a scan
over every lattice point.  The numeric references: ladder_valuations
continues critical points in T by the batched Newton on a fixed fine
ladder, with no step control; same_at_once builds the same-point mask in
one shot; meet is the homotopy's end test in the max norm of each row;
near_relative_to_max is the dedup's earlier rule, relative to max|y|;
lstsq_fit fits the valuations by numpy.linalg.lstsq.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np

from gcflag.exactla import det, to_fraction
from gcflag.polytopes import GCPolytope, _candidates, free_positions, lattice_points, validate_lambda
from gcflag.potential import DEDUP_TOL, VALUATION_LADDER, VALUATION_TOL, _newton


def rank(rows):
    """Exact rank of a (possibly rectangular) matrix."""
    if not rows:
        return 0
    a = [[to_fraction(x) for x in row] for row in rows]
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m):
            if a[i][col] != 0:
                f = a[i][col] / a[r][col]
                for c in range(col, n):
                    a[i][c] -= f * a[r][c]
        r += 1
        if r == m:
            break
    return r


def solve(rows, rhs):
    """Solve a square system exactly; returns None if singular."""
    n = len(rows)
    a = [[to_fraction(x) for x in row] + [to_fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return tuple(a[i][n] / a[i][i] for i in range(n))


def affine_dim(points):
    """Dimension of the affine hull of a set of rational points (-1 if empty)."""
    pts = list(points)
    if not pts:
        return -1
    p0 = pts[0]
    diffs = [[to_fraction(x) - to_fraction(y) for x, y in zip(p, p0)] for p in pts[1:]]
    return rank(diffs) if diffs else 0


def pattern_vertices(poly):
    """Every lambda-valued interlacing pattern whose tight facet normals have
    rank N, as sorted (coordinates, tight facet indices) pairs.

    By De Loera & McAllister (DCG 32, 2004) every vertex is such a pattern,
    and a point of the polytope is a vertex iff its tight normals span R^N;
    here each pattern is filled whole and its rank found by elimination.
    """
    values = sorted(set(poly.lam))
    n = poly.flag.n
    patterns = [{(n, i + 1): x for i, x in enumerate(poly.lam)}]
    for k in range(n - 1, 0, -1):
        patterns = [
            {**p, **{(k, i + 1): x for i, x in enumerate(row)}}
            for p in patterns
            for row in product(
                *([x for x in values if p[(k + 1, i + 1)] >= x >= p[(k + 1, i + 2)]] for i in range(k))
            )
        ]
    out = []
    for p in patterns:
        u = tuple(p[pos] for pos in poly.coords)
        ells = [f.ell(u) for f in poly.facets]
        assert all(e >= 0 for e in ells)
        tight = frozenset(j for j, e in enumerate(ells) if e == 0)
        if rank([poly.facets[j].v for j in tight]) == poly.N:
            out.append((u, tight))
    return sorted(out)


def vertex_facets(flag, lam):
    """The facets of the polytope cut out by every candidate inequality
    (polytopes._candidates), in candidate order.  Candidate j is a facet iff
    its face is (N - 1)-dimensional: the normals tight at every vertex of
    the face are its implicit equalities, so iff those normals have rank 1."""
    lam = validate_lambda(flag, lam)
    candidates = tuple(_candidates(flag, lam))
    on_face = {}  # candidate j -> the candidates tight at every vertex of its face
    for _, act in GCPolytope(flag, lam, free_positions(flag), candidates).vertices():
        for j in act:
            on_face[j] = on_face.get(j, act) & act
    return tuple(
        candidates[j] for j, face in sorted(on_face.items()) if rank([candidates[i].v for i in face]) == 1
    )


def volume_of(points, facet_sets):
    """Exact Euclidean volume of a full-dimensional polytope.

    points: list of rational vectors; facet_sets: frozensets of point
    indices lying on each facet.  Uses a pulling triangulation; each face
    of the face lattice is triangulated once (memoized), since the pulled
    vertex min(face) does not depend on how the face was reached.
    """
    N = len(points[0])
    facet_sets = sorted(set(facet_sets))
    dim_cache = {}
    tri_cache = {}

    def adim(fs):
        if fs not in dim_cache:
            dim_cache[fs] = affine_dim([points[i] for i in fs])
        return dim_cache[fs]

    def tri(vset):
        if vset in tri_cache:
            return tri_cache[vset]
        dim = adim(vset)
        if len(vset) == dim + 1:
            out = [tuple(sorted(vset))]
        else:
            v0 = min(vset)
            out = []
            seen = set()
            for fs in facet_sets:
                sub = vset & fs
                if v0 in sub or len(sub) < dim or sub in seen:
                    continue
                seen.add(sub)
                if adim(sub) == dim - 1:
                    out.extend(s + (v0,) for s in tri(sub))
        tri_cache[vset] = out
        return out

    simplices = tri(frozenset(range(len(points))))
    total = Fraction(0)
    fact = factorial(N)
    for simplex in simplices:
        base = points[simplex[0]]
        rows = [
            [points[i][c] - base[c] for c in range(N)] for i in simplex[1:]
        ]
        total += abs(det(rows)) / fact
    return total


def interior_lattice_points(poly):
    """Lattice points strictly inside every facet, in sorted order.

    For integral lambda every tau is an integer, so <v, p> > tau is decided
    on Python ints, one pass over the facets per point.
    """
    facets = [(f.v, int(f.tau)) for f in poly.facets]
    out = []
    for p in lattice_points(poly):
        q = [int(x) for x in p]
        if all(sum(c * x for c, x in zip(v, q)) > tau for v, tau in facets):
            out.append(p)
    return out


def ladder_valuations(pot, points, per_unit=32):
    """Valuations of critical points that share their T, as a (B, N) array:
    Newton to VALUATION_TOL at per_unit evenly spaced values per unit of
    log T down to each T of VALUATION_LADDER, and the least-squares slope
    of log|y_k| against log T there.  Asserts that every rung converges."""
    S = np.log(np.array([p.y for p in points], dtype=complex))
    logT, samples = np.log(points[0].T), []
    for target in np.log(VALUATION_LADDER):
        rungs = max(3, int(np.ceil(per_unit * (logT - target))))
        for t in np.linspace(logT, target, rungs + 1)[1:]:
            S, _, converged, _ = _newton(pot, S, t, tol=VALUATION_TOL)
            assert converged.all(), "the ladder lost a branch at log T = %g" % t
        samples.append(S.real)
        logT = target
    x = np.log(VALUATION_LADDER)
    x = x - x.mean()
    return np.tensordot(x, np.array(samples), axes=1) / (x @ x)


def same_at_once(A, Y):
    """The (len(A), len(Y)) mask of the pairs of a row of A and a row of Y
    within DEDUP_TOL of each other in every coordinate, relative to the
    larger of the two values there, with every temporary at once."""
    same = np.ones((len(A), len(Y)), bool)
    for a, y in zip(A.T, Y.T):
        same &= np.abs(a[:, None] - y) <= DEDUP_TOL * np.maximum(np.abs(a)[:, None], np.abs(y))
    return same


def meet(Z):
    """Mask of the rows of Z that lie within DEDUP_TOL of another row in
    the max norm, relative to the larger max norm of the two, with every
    (B, B) temporary at once: the rule of the homotopy's end test, written
    in the max norm."""
    norm = np.abs(Z).max(axis=1)
    far = np.zeros((len(Z), len(Z)))
    for z in Z.T:
        far = np.maximum(far, np.abs(z[:, None] - z))
    close = far <= DEDUP_TOL * np.maximum(norm[:, None], norm)
    np.fill_diagonal(close, False)
    return close.any(axis=1)


def near_relative_to_max(A, Y):
    """(len(A), len(Y)) mask of the rows of A within DEDUP_TOL of a row of Y
    in every coordinate, relative to max|y| of that row of Y."""
    tol = DEDUP_TOL * np.maximum(1e-300, np.abs(Y).max(axis=1))
    near = np.ones((len(A), len(Y)), bool)
    for a, y in zip(A.T, Y.T):
        near &= np.abs(a[:, None] - y) <= tol
    return near


def lstsq_fit(samples, B, N):
    """Valuations (B, N) and fit residuals (B,) from the real parts of log y
    at the T of VALUATION_LADDER, one (B * N,) row per T: the slope of the
    least-squares line against log T, and the root of the squared
    residuals summed over the N coordinates of each point."""
    xs = np.log(VALUATION_LADDER)
    A = np.vstack([xs, np.ones_like(xs)]).T
    fit, res, _, _ = np.linalg.lstsq(A, np.array(samples), rcond=None)
    return fit[0].reshape(B, N), np.sqrt(res.reshape(B, N).sum(axis=1))
