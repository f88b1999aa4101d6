"""Exact-rational Gelfand-Cetlin polytopes.

The polytope for a weight vector lambda lives in R^N, one coordinate per
ladder-diagram box (equivalently, per non-constant entry of the triangular
interlacing pattern).  All arithmetic in this module is exact over the
rationals: facet irredundancy, vertex enumeration, volumes, reflexivity and
the unimodularity check for simplicial cones are integer/rational statements
and are decided without floating point.  Vertices are read off the
interlacing patterns with entries in lambda (GCPolytope.vertices), by
comparing pattern entries and a union-find over them.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial

import numpy as np

from .exactla import affine_dim, det, rank, solve, to_fraction
from .flags import FlagType


# ---------------------------------------------------------------------------
# lambda / pattern bookkeeping


def validate_lambda(flag, lam):
    """Check the block condition: constant on blocks, strictly decreasing across."""
    lam = tuple(to_fraction(x) for x in lam)
    if len(lam) != flag.n:
        raise ValueError("lambda must have length n = %d" % flag.n)
    d = flag.dims
    for l in range(1, flag.r + 2):
        block = lam[d[l - 1] : d[l]]
        if any(x != block[0] for x in block):
            raise ValueError("lambda must be constant on block %d" % l)
    for l in range(1, flag.r + 1):
        if lam[d[l] - 1] <= lam[d[l]]:
            raise ValueError(
                "lambda must decrease strictly across block boundary %d" % l
            )
    return lam


def is_pinned(flag, k, i):
    """Entry (k, i) of the pattern is forced to a constant lambda value."""
    return flag.block_of(i) == flag.block_of(i + flag.n - k)


def free_positions(flag):
    """Non-constant pattern positions (k, i), rows listed top-down.

    The order (k = n-1, ..., 1, i increasing) is the coordinate order used
    throughout; it matches the usual way the triangular pattern is read.
    """
    return tuple(
        (k, i)
        for k in range(flag.n - 1, 0, -1)
        for i in range(1, k + 1)
        if not is_pinned(flag, k, i)
    )


@dataclass(frozen=True)
class GCPattern:
    """A full triangular interlacing array, rows indexed 1..n (row n = lambda)."""

    rows: tuple  # rows[k-1] is row k as a tuple of Fractions

    @property
    def n(self):
        return len(self.rows)

    def entry(self, k, i):
        return self.rows[k - 1][i - 1]

    def check_interlacing(self, strict=False):
        for k in range(1, self.n):
            for i in range(1, k + 1):
                up_left = self.entry(k + 1, i)
                up_right = self.entry(k + 1, i + 1)
                mid = self.entry(k, i)
                if strict:
                    if not (up_left > mid > up_right):
                        return False
                else:
                    if not (up_left >= mid >= up_right):
                        return False
        return True


@dataclass(frozen=True)
class Facet:
    """One supporting halfspace ell(u) = <v, u> - tau >= 0.

    tau_blocks gives tau as an integer combination of the block values
    lambda_{n_1}, ..., lambda_{n_{r+1}}; pair records the two pattern
    positions whose interlacing inequality produced the facet.
    """

    v: tuple  # integer normal, at most two nonzero entries, each +-1
    tau: Fraction
    tau_blocks: tuple
    pair: tuple  # (upper position, lower position), positions are (k, i)

    def ell(self, u):
        return sum(c * x for c, x in zip(self.v, u)) - self.tau


@dataclass(frozen=True)
class GCPolytope:
    flag: FlagType
    lam: tuple
    coords: tuple  # ordered free positions (k, i)
    facets: tuple

    @property
    def N(self):
        return len(self.coords)

    # -- pattern assembly -------------------------------------------------

    def pattern(self, u):
        """Assemble the full triangular pattern from coordinates u."""
        u = tuple(u)
        if len(u) != self.N:
            raise ValueError("expected %d coordinates, got %d" % (self.N, len(u)))
        vals = dict(zip(self.coords, u))
        rows = []
        for k in range(1, self.flag.n):
            row = []
            for i in range(1, k + 1):
                if (k, i) in vals:
                    row.append(vals[(k, i)])
                else:
                    row.append(self.lam[i - 1])
            rows.append(tuple(row))
        rows.append(tuple(self.lam))
        return GCPattern(rows=tuple(rows))

    def coordinates_of(self, pattern):
        return tuple(pattern.entry(k, i) for (k, i) in self.coords)

    # -- membership -------------------------------------------------------

    def contains(self, u, strict=False):
        u = tuple(to_fraction(x) for x in u)
        if len(u) != self.N:
            raise ValueError("dimension mismatch")
        if strict:
            return all(f.ell(u) > 0 for f in self.facets)
        return all(f.ell(u) >= 0 for f in self.facets)

    def contains_float(self, u, tol=1e-9):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.N,):
            raise ValueError("dimension mismatch")
        A, b = self.halfspace_arrays
        return bool(np.all(A @ u - b >= -tol))

    @cached_property
    def halfspace_arrays(self):
        """(A, b) with the polytope = {u : A u >= b}, as read-only float arrays."""
        A = np.array([f.v for f in self.facets], dtype=float)
        b = np.array([float(f.tau) for f in self.facets])
        A.flags.writeable = b.flags.writeable = False
        return A, b

    def interior_point(self):
        """Barycenter of the vertex set (interior for full-dimensional polytopes)."""
        verts = [v for v, _ in self.vertices()]
        m = len(verts)
        return tuple(sum(col) / m for col in zip(*verts))

    # -- vertices (cached) ------------------------------------------------

    def vertices(self):
        """All vertices with their active facet index sets, canonically sorted.

        Every vertex is an interlacing pattern whose entries are lambda
        values (De Loera & McAllister, Vertices of Gelfand-Tsetlin
        polytopes, Discrete Comput. Geom. 32 (2004)), so the candidates are
        the patterns filled from lambda's distinct values.  Facet j is tight
        at a pattern iff the two entries of facets[j].pair are equal.  A
        point is a vertex iff its tight normals have rank N.  They form a
        network matrix: e_a - e_b joins two free entries and +-e_a joins a
        free entry to a lambda value (a pinned entry or row n), so it is the
        incidence matrix of a graph on the free entries plus one ground node
        for all lambda values.  Its rank is N minus the number of components
        without a lambda node, so the pattern is a vertex iff the tight
        facets join every free entry to a lambda value (a union-find, _join).
        No arithmetic is needed.
        """
        return self._vertices

    @cached_property
    def _vertices(self):
        values = sorted(set(self.lam))
        pairs = [tuple(_cell(self.flag, pos) for pos in f.pair) for f in self.facets]
        at = [_cell(self.flag, pos) for pos in self.coords]
        lambda_nodes = [("val", b) for b in range(1, self.flag.r + 2)]
        free_nodes = [_facet_node(self, pos) for pos in self.coords]
        out = []
        for rows in _patterns(self.lam, lambda lo, hi: [x for x in values if lo <= x <= hi]):
            tight = [
                j for j, ((a, b), (c, e)) in enumerate(pairs) if rows[a][b] == rows[c][e]
            ]
            find, _ = _join(self._facet_ends[j] for j in tight)
            grounded = {find(x) for x in lambda_nodes}
            if all(find(x) in grounded for x in free_nodes):
                out.append((tuple(rows[a][b] for a, b in at), frozenset(tight)))
        return sorted(out, key=lambda vertex: vertex[0])

    @cached_property
    def _facet_ends(self):
        """The two pattern-entry nodes joined by each facet's equality."""
        return tuple(tuple(_facet_node(self, pos) for pos in f.pair) for f in self.facets)


# ---------------------------------------------------------------------------
# interlacing patterns


def _patterns(top, choices):
    """Every interlacing pattern with top row `top`, as a tuple of rows.

    Rows run top-down (row k is rows[n - k], see _cell); entry i of a row
    ranges over choices(lo, hi), lo and hi being its two upper neighbours,
    independently of the other entries of its row.
    """

    def below(rows):
        upper = rows[-1]
        if len(upper) == 1:
            yield rows
            return
        for row in product(*(choices(lo, hi) for hi, lo in zip(upper, upper[1:]))):
            yield from below(rows + (row,))

    return below((tuple(top),))


def _cell(flag, pos):
    """Index (row, column) of pattern position (k, i) in a _patterns tuple."""
    k, i = pos
    return flag.n - k, i - 1


# ---------------------------------------------------------------------------
# construction


def build_polytope(flag, lam, coords=None):
    """Build the irredundant facet description of the Gelfand-Cetlin polytope.

    One inequality is generated per adjacent pattern pair; constant-constant
    pairs are dropped.  Candidate j is kept iff its face is (N-1)-dimensional:
    the normals tight at every vertex of the face are its implicit
    equalities, so j is a facet iff those normals have rank 1.  The vertices
    are those of the polytope cut out by all candidates.
    """
    lam = validate_lambda(flag, lam)
    default_coords = free_positions(flag)
    if coords is None:
        coords = default_coords
    else:
        coords = tuple((int(k), int(i)) for k, i in coords)
        if sorted(coords) != sorted(default_coords):
            raise ValueError("coords override must permute the free positions")
    index = {pos: a for a, pos in enumerate(coords)}
    N = len(coords)
    n = flag.n
    d = flag.dims

    def term(k, i):
        """Return ('free', coord index) or ('const', block index)."""
        if k == n or is_pinned(flag, k, i):
            return ("const", flag.block_of(i))
        return ("free", index[(k, i)])

    candidates = []
    seen = set()
    for k in range(n - 1, 0, -1):
        for i in range(1, k + 1):
            for upper, lower in (((k + 1, i), (k, i)), ((k, i), (k + 1, i + 1))):
                tu, tl = term(*upper), term(*lower)
                if tu[0] == "const" and tl[0] == "const":
                    continue
                v = [0] * N
                cb = [0] * (flag.r + 1)
                for t, sgn in ((tu, 1), (tl, -1)):
                    if t[0] == "free":
                        v[t[1]] += sgn
                    else:
                        cb[t[1] - 1] += sgn
                tau_blocks = tuple(-c for c in cb)
                key = (tuple(v), tau_blocks)
                if key in seen:
                    continue
                seen.add(key)
                tau = sum(
                    Fraction(c) * lam[d[l + 1] - 1] for l, c in enumerate(tau_blocks)
                )
                candidates.append(
                    Facet(v=tuple(v), tau=tau, tau_blocks=tau_blocks, pair=(upper, lower))
                )

    provisional = GCPolytope(flag=flag, lam=lam, coords=coords, facets=tuple(candidates))
    verts = provisional.vertices()
    facets = []
    for j, f in enumerate(candidates):
        on_face = [act for _, act in verts if j in act]
        if on_face and rank([candidates[i].v for i in frozenset.intersection(*on_face)]) == 1:
            facets.append(f)
    return GCPolytope(flag=flag, lam=lam, coords=coords, facets=tuple(facets))


# ---------------------------------------------------------------------------
# lattice points and counting


def weyl_dimension(lam):
    """prod_{i<j} (lam_i - lam_j + j - i) / prod k!  for integral lam."""
    lam = [to_fraction(x) for x in lam]
    n = len(lam)
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + (j - i)
    den = 1
    for k in range(1, n):
        den *= factorial(k)
    val = num / den
    if val.denominator != 1:
        raise AssertionError("Weyl dimension is not an integer")
    return int(val)


def lattice_points(poly):
    """All integral patterns, as coordinate vectors, in sorted order.

    Each entry ranges over the integers between its two upper neighbours
    (_patterns); points are sorted as ints and made Fractions once per value.
    """
    lam = poly.lam
    if any(x.denominator != 1 for x in lam):
        raise ValueError("lattice enumeration requires integral lambda")
    top = [int(x) for x in lam]
    at = [_cell(poly.flag, pos) for pos in poly.coords]
    points = sorted(
        tuple(rows[a][b] for a, b in at)
        for rows in _patterns(top, lambda lo, hi: range(lo, hi + 1))
    )
    exact = {x: Fraction(x) for x in range(top[-1], top[0] + 1)}
    return [tuple(exact[x] for x in p) for p in points]


# ---------------------------------------------------------------------------
# volume


def volume_formula(flag, lam):
    """prod (lam_i - lam_j)/(j - i) over pairs i < j in distinct blocks.

    This is the leading coefficient of k -> weyl_dimension(k lam) in k^N,
    i.e. the Euclidean volume of the polytope; pairs inside a block drop
    out (their lam-difference vanishes and their j - i factor with it).
    """
    lam = validate_lambda(flag, lam)
    n = flag.n
    out = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if flag.block_of(i) != flag.block_of(j):
                out *= Fraction(lam[i - 1] - lam[j - 1], j - i)
    return out


def _volume_of(points, facet_sets):
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


def volume(poly):
    """Exact Euclidean volume via a pulling triangulation of the vertex set."""
    if poly.N < 1:
        raise ValueError("polytope must be at least one-dimensional")
    verts = poly.vertices()
    points = [v for v, _ in verts]
    if affine_dim(points) < poly.N:
        raise ValueError("polytope is not full-dimensional")
    facet_sets = [
        frozenset(i for i, (_, act) in enumerate(verts) if j in act)
        for j in range(len(poly.facets))
    ]
    return _volume_of(points, facet_sets)


# ---------------------------------------------------------------------------
# reflexivity and the dual polytope


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


def is_reflexive(poly):
    """(True, p) if the polytope is reflexive after translating p to the
    origin; (False, None) otherwise.

    Reflexive means one interior lattice point p with every facet at lattice
    distance 1 from it: ell_f(p) = 1 for all f.  This is decided from the
    facets alone.  N facets with independent normals fix the only candidate,
    ell_f(p) = 1 on those N; the polytope is reflexive iff p is integral and
    ell_f(p) = 1 holds for every facet.  Such a p is interior, and it is the
    only interior lattice point: ell_f takes integer values on lattice
    points, so an interior lattice point q has ell_f(q) >= 1 = ell_f(p) for
    every f, which puts q - p in the recession cone of a bounded polytope,
    {0}.
    """
    if any(x.denominator != 1 for x in poly.lam):
        raise ValueError("reflexivity requires integral lambda")
    rows, rhs = [], []
    for f in poly.facets:
        if len(rows) < poly.N and rank(rows + [f.v]) > len(rows):
            rows.append(f.v)
            rhs.append(f.tau + 1)
    if len(rows) < poly.N:
        raise ValueError("polytope is not full-dimensional")
    p = solve(rows, rhs)
    if any(x.denominator != 1 for x in p) or any(f.ell(p) != 1 for f in poly.facets):
        return False, None
    return True, p


def dual_volume(poly):
    """Exact volume of conv{facet normals}, the dual after the reflexive shift."""
    ok, p = is_reflexive(poly)
    if not ok:
        raise ValueError("dual polytope is only defined for reflexive input")
    normals = [tuple(Fraction(c) for c in f.v) for f in poly.facets]
    # facets of the dual correspond to vertices of the translated polytope
    facet_sets = []
    for w, _ in poly.vertices():
        ws = tuple(x - y for x, y in zip(w, p))
        fs = frozenset(
            i
            for i, v in enumerate(normals)
            if sum(a * b for a, b in zip(v, ws)) == -1
        )
        facet_sets.append(fs)
    return _volume_of(normals, facet_sets)


# ---------------------------------------------------------------------------
# simplicial refinement determinant


class LoopError(ValueError):
    """The selected equality set contains a loop in the pattern graph."""


class RankDeficientError(ValueError):
    """The selected facet normals do not span R^N."""


def _facet_node(poly, pos):
    k, i = pos
    if k == poly.flag.n or is_pinned(poly.flag, k, i):
        return ("val", poly.flag.block_of(i))
    return ("box", k, i)


def _join(edges):
    """Union-find over pattern-entry nodes, joining the two ends of each edge.

    Returns (find, looped): find maps a node to the root of its component,
    looped says whether some edge closed a cycle.
    """
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    looped = False
    for a, b in edges:
        a, b = find(a), find(b)
        if a == b:
            looped = True
        else:
            parent[a] = b
    return find, looped


def selection_is_loop_free(poly, facet_indices):
    """Union-find over pattern entries; a loop is a cycle of equalities."""
    _, looped = _join(poly._facet_ends[j] for j in facet_indices)
    return not looped


def simplicial_cone_determinant(poly, vertex, facet_indices):
    """|det| of the N normals selected at a vertex; must be 1 when loop-free."""
    vertex = tuple(to_fraction(x) for x in vertex)
    facet_indices = list(facet_indices)
    if len(facet_indices) != poly.N:
        raise ValueError("need exactly N rays")
    for j in facet_indices:
        if poly.facets[j].ell(vertex) != 0:
            raise ValueError("ray %d is not active at the vertex" % j)
    if not selection_is_loop_free(poly, facet_indices):
        raise LoopError("equality set contains a loop")
    rows = [[Fraction(c) for c in poly.facets[j].v] for j in facet_indices]
    if rank(rows) < poly.N:
        raise RankDeficientError("ray selection is rank-deficient")
    return det(rows)


# ---------------------------------------------------------------------------
# serialization


def frac_str(x):
    x = to_fraction(x)
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(
        x.numerator
    )


def polytope_to_json(poly):
    return {
        "flag": str(poly.flag),
        "lambda": [frac_str(x) for x in poly.lam],
        "coords": [[k, i] for k, i in poly.coords],
        "facets": [
            {"v": list(f.v), "tau": frac_str(f.tau)} for f in poly.facets
        ],
    }


def polytope_from_json(doc):
    flag = FlagType.parse(doc["flag"])
    lam = [Fraction(s) for s in doc["lambda"]]
    coords = [tuple(c) for c in doc["coords"]]
    poly = build_polytope(flag, lam, coords=coords)
    got = {(f.v, f.tau) for f in poly.facets}
    want = {
        (tuple(f["v"]), Fraction(f["tau"])) for f in doc["facets"]
    }
    if got != want:
        raise ValueError("facet list in document does not match rebuilt polytope")
    return poly


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=False)
