"""Exact-rational Gelfand-Cetlin polytopes.

The polytope for a weight vector lambda lives in R^N, one coordinate per
ladder-diagram box (equivalently, per non-constant entry of the triangular
interlacing pattern).  All arithmetic in this module is exact over the
rationals: facet irredundancy, vertex enumeration, volumes, reflexivity and
the unimodularity check for simplicial cones are integer/rational statements
and are decided without floating point.

The facets are decided from the pattern order, with no vertex (_is_facet).
Every facet normal is e_a - e_b or +-e_a, an equality between two adjacent
pattern entries, so a set of normals is a graph on the free entries plus
one ground node for all lambda values, and its rank is the size of a
spanning forest (_join).  That one union-find decides which patterns are
vertices, the dimension of every face, and the reflexive centre.
Vertices are enumerated only when read, by one pass that fills
lambda-valued patterns row by row, on the ranks of lambda's values, and
drops a branch once a component of the row above reaches neither a lambda
value nor the new row: facets join adjacent rows only, so nothing further
down can ground it.  Volumes are sums over the face lattice (the lattice
pyramid recursion, _face_volume) with no determinant: a face's free
entries fall into clusters of equal entries, the clusters are lattice
coordinates on its affine hull, and in them every facet inequality has
coefficients +-1.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from math import factorial

from ._lazy import lazy
from .exactla import det, to_fraction
from .flags import FlagType

np = lazy("numpy")


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
    """Entry (k, i) of the pattern is forced to a lambda value, as all of row n is."""
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


class Facet(namedtuple("Facet", "v tau tau_blocks pair")):
    """One supporting halfspace ell(u) = <v, u> - tau >= 0.

    v is the integer normal, with at most two nonzero entries, each +-1.
    tau_blocks gives the Fraction tau as an integer combination of the
    block values lambda_{n_1}, ..., lambda_{n_{r+1}}; pair records the two
    pattern positions (upper, lower), each (k, i), whose interlacing
    inequality produced the facet.
    """

    __slots__ = ()

    def ell(self, u):
        return sum(c * x for c, x in zip(self.v, u)) - self.tau


class GCPolytope(namedtuple("GCPolytope", "flag lam coords facets")):
    """The facets of a polytope for flag and lam; coords is free_positions(flag).
    No __slots__: the cached properties need __dict__."""

    @property
    def N(self):
        return len(self.coords)

    # -- pattern assembly -------------------------------------------------

    def pattern(self, u):
        """The pattern with coordinates u as a _patterns tuple: rows run
        top-down, so row k is rows[n - k] (_cell) and rows[0] is lambda."""
        u = tuple(u)
        if len(u) != self.N:
            raise ValueError("expected %d coordinates, got %d" % (self.N, len(u)))
        n = self.flag.n
        rows = [list(self.lam[:k]) for k in range(n, 0, -1)]  # a pinned (k, i) equals lambda_i
        for (k, i), x in zip(self.coords, u):
            rows[n - k][i - 1] = x
        return tuple(map(tuple, rows))

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
        """The pattern whose entry (k, i) is the mean of lambda_i, ...,
        lambda_{i+n-k}, the values it lies between, in Fractions.  It is
        strictly inside every facet.  The entry (k, i) of a facet's pair is
        free, and its window is that of its neighbour in row k + 1 plus one
        more value, smaller for the upper-left neighbour and larger for the
        lower-right one, which moves the mean strictly as the window is not
        constant."""
        n, lam = self.flag.n, self.lam
        return tuple(sum(lam[i - 1 : i + n - k]) / (n - k + 1) for k, i in self.coords)

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
        for all lambda values.  Its rank is the size of a spanning forest
        (_join), N minus the number of components without the ground, so
        the pattern is a vertex iff the tight facets join every free entry
        to a lambda value.  No arithmetic is needed.

        The patterns are filled row by row from the top, on the ranks of
        lambda's distinct values, and a branch is dropped as soon as a
        component of the row above reaches neither the ground nor the new
        row.  The rule is exact: every facet joins two adjacent rows, so no
        row further down can join that component to anything.  At the
        bottom row every component must reach the ground.  Ranks are mapped
        to values only for the vertices kept; the map keeps order, so
        sorting the ranks sorts the vertices.
        """
        return self._vertices

    @cached_property
    def _vertices(self):
        n = self.flag.n
        values = sorted(set(self.lam))
        # edges[t]: (facet, column in row t - 1, column in row t) for every
        # facet between those two rows of a _patterns tuple
        edges = [[] for _ in range(n)]
        for j, f in enumerate(self.facets):
            (_, a), (t, b) = sorted(_cell(self.flag, pos) for pos in f.pair)
            edges[t].append((j, a, b))
        nodes = [tuple(_facet_node(self, (n - t, c + 1)) for c in range(n - t)) for t in range(n)]

        @cache
        def rows_below(upper, labels):
            """(row, its labels, facets tight between upper and row) for every
            row that may follow `upper`, whose entry c lies in the component
            labels[c]: the ground, or a free entry of upper."""
            t = n + 1 - len(upper)
            lower = nodes[t]
            out = []
            for row in _rows_below(upper):
                tight = [(j, labels[a], lower[b]) for j, a, b in edges[t] if upper[a] == row[b]]
                parent = {}
                _join([(a, b) for _, a, b in tight], parent)
                ground = _find(parent, _GROUND)
                roots = [_find(parent, x) for x in lower]
                reached = {ground, *roots}
                if all(_find(parent, x) in reached for x in labels):
                    new = tuple(_GROUND if r == ground else r for r in roots)
                    out.append((row, new, tuple(j for j, _, _ in tight)))
            return out

        found = []

        def fill(rows, labels, tight):
            if len(rows) == n:
                if labels == (_GROUND,):
                    found.append((rows, tight))
                return
            for row, new, js in rows_below(rows[-1], labels):
                fill(rows + (row,), new, tight + js)

        fill((tuple(map(values.index, self.lam)),), (_GROUND,) * n, ())
        at = [_cell(self.flag, pos) for pos in self.coords]
        found = sorted((tuple(rows[a][b] for a, b in at), tight) for rows, tight in found)
        return [(tuple(values[r] for r in u), frozenset(tight)) for u, tight in found]

    @cached_property
    def _facet_ends(self):
        """The two pattern-entry nodes joined by each facet's equality,
        upper entry first (the normal is +1 there, -1 at the lower one)."""
        return tuple(tuple(_facet_node(self, pos) for pos in f.pair) for f in self.facets)


# ---------------------------------------------------------------------------
# interlacing patterns


def _rows_below(upper):
    """Every integral row interlacing below the row `upper`, in increasing
    lexicographic order: entry i ranges over the integers between its two
    upper neighbours upper[i + 1] and upper[i], independently of the other
    entries of its row."""
    return product(*(range(lo, hi + 1) for hi, lo in zip(upper, upper[1:])))


def _patterns(top):
    """Every integral interlacing pattern with top row `top`, as a tuple of
    rows, in increasing lexicographic order.  Rows run top-down (row k is
    rows[n - k], see _cell)."""

    def below(rows):
        upper = rows[-1]
        if len(upper) == 1:
            yield rows
            return
        for row in _rows_below(upper):
            yield from below(rows + (row,))

    return below((tuple(top),))


def _cell(flag, pos):
    """Index (row, column) of pattern position (k, i) in a _patterns tuple."""
    k, i = pos
    return flag.n - k, i - 1


# ---------------------------------------------------------------------------
# construction


def _candidates(flag, lam):
    """One Facet per adjacent pattern pair, upper >= lower, rows top-down
    and each entry's upper-left pair first; constant-constant pairs are
    dropped.  No two candidates coincide: a normal e_a - e_b names its
    pair, and of the two entries bounding a free entry from one side at
    most one is pinned (both would pin it too)."""
    index = {pos: a for a, pos in enumerate(free_positions(flag))}
    d = flag.dims
    for k in range(flag.n - 1, 0, -1):
        for i in range(1, k + 1):
            for upper, lower in (((k + 1, i), (k, i)), ((k, i), (k + 1, i + 1))):
                if is_pinned(flag, *upper) and is_pinned(flag, *lower):
                    continue
                v = [0] * len(index)
                tau_blocks = [0] * (flag.r + 1)  # ell = <v, u> - tau: a pinned entry moves to tau
                for pos, sgn in ((upper, 1), (lower, -1)):
                    if is_pinned(flag, *pos):
                        tau_blocks[flag.block_of(pos[1]) - 1] -= sgn
                    else:
                        v[index[pos]] += sgn
                tau = sum(Fraction(c) * lam[d[l + 1] - 1] for l, c in enumerate(tau_blocks))
                yield Facet(v=tuple(v), tau=tau, tau_blocks=tuple(tau_blocks), pair=(upper, lower))


def _is_facet(flag, pair):
    """Whether the candidate on the pattern pair (upper, lower) is a facet.

    The polytope is a marked order polytope, so a candidate is a facet iff
    no other chain of interlacing inequalities and lambda values implies
    it (Ardila, Bliem & Salazar, JCTA 118, 2011; Pegel, Order 35, 2018).
    The pair is a free entry x = (k, i) and p = (k + 1, j) in the row
    above (the entries below a free entry are free).  Take p >= x, j = i;
    p <= x is the mirror image.  Another chain reaches x through its other
    upper neighbour y = (k - 1, i - 1), which the order does not compare
    with p, so it needs a lambda value c with min p >= c >= max y, that is
    lambda_{i+n-k-1} >= c >= lambda_{i-1}.  That holds iff the twin
    t = (k, i - 1), p's other neighbour in row k, is pinned, and then
    t >= y >= x is the chain.  So the candidate is a facet iff its twin
    (k, 2j - 1 - i) is free or absent.
    """
    (k, i), (_, j) = sorted(pair)
    twin = 2 * j - 1 - i
    return not (1 <= twin <= k and is_pinned(flag, k, twin))


def build_polytope(flag, lam):
    """Build the irredundant facet description of the Gelfand-Cetlin polytope.

    The facets are the candidates (_candidates) that _is_facet keeps,
    decided from the pattern order alone, in candidate order; no vertex is
    enumerated.  The coords are always free_positions(flag): gc_map, the
    moment maps and the Toda layer read that order.
    """
    lam = validate_lambda(flag, lam)
    coords = free_positions(flag)
    if not coords:
        raise ValueError("polytope must be at least one-dimensional")
    facets = tuple(f for f in _candidates(flag, lam) if _is_facet(flag, f.pair))
    return GCPolytope(flag=flag, lam=lam, coords=coords, facets=facets)


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

    _patterns yields them sorted: the coordinates are its entries in the
    order it fills them, rows top-down, less the pinned entries, which are
    constant.  Each value is made a Fraction once.
    """
    top = _integral_top(poly)
    at = [_cell(poly.flag, pos) for pos in poly.coords]
    exact = {x: Fraction(x) for x in range(top[-1], top[0] + 1)}
    return [tuple(exact[rows[a][b]] for a, b in at) for rows in _patterns(top)]


def lattice_point_count(poly):
    """len(lattice_points(poly)) without the points: count(row) is the sum
    of count(r) over the integral rows r interlacing below row, memoized on
    the row.  It uses no Weyl formula, so weyl_dimension checks it.
    """

    @cache
    def count(row):
        if len(row) == 1:
            return 1
        return sum(map(count, _rows_below(row)))

    return count(_integral_top(poly))


def _integral_top(poly):
    """lambda as a tuple of ints, the top row of every lattice point."""
    if any(x.denominator != 1 for x in poly.lam):
        raise ValueError("lattice enumeration requires integral lambda")
    return tuple(int(x) for x in poly.lam)


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


def _face_volume(facet_masks, dim, height):
    """Normalized volume of a face, as a memoized function of the face.

    A face G is a bitmask of the vertices it holds, and facet_masks holds
    one such mask per facet of the whole polytope; the facets of G are the
    sets G & facet_masks[j] of dimension dim(G) - 1.  With v0 the least
    vertex of G, G is the union of the pyramids with apex v0 over its facets
    F that miss v0, so (Lasserre, JOTA 39, 1983)

        Vol(G) = sum over those F of height(v0, j) * Vol(F),

    j being a facet with F = G & facet_masks[j], and a point has volume 1.
    Vol is d! times the d-dimensional volume in lattice coordinates on the
    affine hull, and height(v0, j) must be the lattice distance of v0 from
    the hyperplane of F inside that hull.
    """
    dim = cache(dim)
    memo = {}

    def vol(G):
        d = dim(G)
        if d == 0:
            return 1
        if G not in memo:
            v0, seen, total = G & -G, set(), 0
            for j, M in enumerate(facet_masks):
                F = G & M
                if F and F != G and not F & v0 and F not in seen:
                    seen.add(F)
                    if dim(F) == d - 1:
                        total += height(v0.bit_length() - 1, j) * vol(F)
            memo[G] = total
        return memo[G]

    return vol


def volume(poly):
    """Exact Euclidean volume by the pyramid recursion over the face lattice.

    The dimension of a face is the number of free-entry components, under
    the equalities of the facets tight on all of it, that reach no lambda
    value (_join); entries in one component are equal on the face.  These
    clusters are lattice coordinates on the face's affine hull, and in them
    a facet inequality not tight on the whole face reads x_a - x_b - c or
    +-x_a - c: its coefficients are +-1, so the lattice distance of a
    vertex w from the hyperplane of the facet is |ell_j(w)|.  At the top
    the clusters are the N coordinates, so the volume is Vol(P) / N!.
    """
    verts = poly.vertices()
    ends = poly._facet_ends
    masks = [
        sum(1 << i for i, (_, act) in enumerate(verts) if j in act)
        for j in range(len(poly.facets))
    ]

    def dim(G):
        return poly.N - len(_join(ends[j] for j, M in enumerate(masks) if G & M == G))

    def height(v0, j):
        return abs(poly.facets[j].ell(verts[v0][0]))

    everything = (1 << len(verts)) - 1
    if dim(everything) < poly.N:
        raise ValueError("polytope is not full-dimensional")
    return Fraction(_face_volume(masks, dim, height)(everything), factorial(poly.N))


# ---------------------------------------------------------------------------
# reflexivity and the dual polytope


def is_reflexive(poly):
    """(True, p) if the polytope is reflexive after translating p to the
    origin; (False, None) otherwise.

    Reflexive means one interior lattice point p with every facet at lattice
    distance 1 from it: ell_f(p) = 1 for all f.  This is decided from the
    facets alone.  N facets with independent normals fix the only candidate,
    ell_f(p) = 1 on those N, and they form a spanning tree of the pattern
    entries and the ground (_join), along which p is read off edge by edge.
    The polytope is reflexive iff p is integral and ell_f(p) = 1 holds for
    every facet.  Such a p is interior, and it is the only interior lattice
    point: ell_f takes integer values on lattice points, so an interior
    lattice point q has ell_f(q) >= 1 = ell_f(p) for every f, which puts
    q - p in the recession cone of a bounded polytope, {0}.
    """
    if any(x.denominator != 1 for x in poly.lam):
        raise ValueError("reflexivity requires integral lambda")
    ends = poly._facet_ends
    forest = _join(ends)
    if len(forest) < poly.N:
        raise ValueError("polytope is not full-dimensional")
    # N independent normals span the entries and the ground, whose value is
    # 0 (lambda sits in tau); p[upper] - p[lower] = tau + 1 along each edge
    # fixes the entries outwards from it
    at = {_GROUND: Fraction(0)}
    while forest:
        rest = []
        for j in forest:
            upper, lower = ends[j]
            step = poly.facets[j].tau + 1
            if upper in at:
                at[lower] = at[upper] - step
            elif lower in at:
                at[upper] = at[lower] + step
            else:
                rest.append(j)
        forest = rest
    p = tuple(at[pos] for pos in poly.coords)
    if any(x.denominator != 1 for x in p) or any(f.ell(p) != 1 for f in poly.facets):
        return False, None
    return True, p


def dual_volume(poly):
    """Exact volume of conv{facet normals}, the dual after the reflexive shift.

    The facets of the dual are the vertices' active sets: <v_f, w - p> = -1
    iff f is tight at the vertex w.  They lie on hyperplanes that miss the
    origin, so the dual is the union of the cones from the origin over the
    simplices of a pulling triangulation of its boundary.  Each such cone is
    spanned by N independent normals, and every N-subset of GC normals has
    determinant 0 or +-1 (a network matrix), so each cone has normalized
    volume 1.  The volume is therefore the number of those simplices over
    N!: the pyramid recursion on each dual facet with every height 1.  A
    face of the dual is a set of normals on such a hyperplane, so its affine
    dimension is their rank (_join) minus 1.
    """
    ok, _ = is_reflexive(poly)
    if not ok:
        raise ValueError("dual polytope is only defined for reflexive input")
    ends = poly._facet_ends
    masks = [sum(1 << j for j in act) for _, act in poly.vertices()]

    def dim(G):
        return len(_join(ends[j] for j in range(len(ends)) if G >> j & 1)) - 1

    vol = _face_volume(masks, dim, lambda v0, j: 1)
    return Fraction(sum(vol(M) for M in masks), factorial(poly.N))


# ---------------------------------------------------------------------------
# simplicial refinement determinant


class LoopError(ValueError):
    """The selected equality set contains a loop in the pattern graph."""


_GROUND = "lambda"


def _facet_node(poly, pos):
    """Union-find node of pattern position pos: itself if free, else the
    ground node shared by all lambda values."""
    k, i = pos
    if is_pinned(poly.flag, k, i):
        return _GROUND
    return pos


def _find(parent, x):
    """Root of x in the union-find forest parent, halving the path to it."""
    parent.setdefault(x, x)
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(edges, parent=None):
    """Union-find over pattern entries and the ground, joining each edge's ends.

    Returns the indices of the edges that joined two components, a
    spanning forest.  The edges' normals form a network matrix, so the
    forest's size is their rank; an edge left out closes a loop.  A
    parent dict, if given, is left holding the components, each node's
    root being _find(parent, node).
    """
    parent = {} if parent is None else parent
    forest = []
    for j, (a, b) in enumerate(edges):
        a, b = _find(parent, a), _find(parent, b)
        if a != b:
            parent[a] = b
            forest.append(j)
    return forest


def selection_is_loop_free(poly, facet_indices):
    """Union-find over pattern entries; a loop is a cycle of equalities.

    All lambda values are one ground node, so a chain of equalities between
    two lambda values closes a loop too; among facets tight at one point
    such a chain joins equal values, one block of lambda.
    """
    facet_indices = list(facet_indices)
    return len(_join(poly._facet_ends[j] for j in facet_indices)) == len(facet_indices)


def simplicial_cone_determinant(poly, vertex, facet_indices):
    """det of the N normals selected at a vertex; |det| must be 1 when loop-free."""
    vertex = tuple(to_fraction(x) for x in vertex)
    facet_indices = list(facet_indices)
    if len(facet_indices) != poly.N:
        raise ValueError("need exactly N rays")
    for j in facet_indices:
        if poly.facets[j].ell(vertex) != 0:
            raise ValueError("ray %d is not active at the vertex" % j)
    if not selection_is_loop_free(poly, facet_indices):
        raise LoopError("equality set contains a loop")
    return det([[Fraction(c) for c in poly.facets[j].v] for j in facet_indices])


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
    if [tuple(c) for c in doc["coords"]] != list(free_positions(flag)):
        raise ValueError("coords in document are not the free positions in order")
    lam = [Fraction(s) for s in doc["lambda"]]
    poly = build_polytope(flag, lam)
    got = {(f.v, f.tau) for f in poly.facets}
    want = {
        (tuple(f["v"]), Fraction(f["tau"])) for f in doc["facets"]
    }
    if got != want:
        raise ValueError("facet list in document does not match rebuilt polytope")
    return poly
