import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from exact_oracle import (
    affine_dim,
    interior_lattice_points,
    pattern_vertices,
    rank,
    solve,
    vertex_facets,
    volume_of,
)
from gcflag.criteria import FIXED_CASES, POLYTOPE_CASES
from gcflag.exactla import det
from gcflag.flags import FlagType, anticanonical_lambda, dimension
from gcflag import polytopes
from gcflag.cli import main
from gcflag.polytopes import (
    GCPolytope,
    build_polytope,
    dual_volume,
    free_positions,
    is_reflexive,
    lattice_point_count,
    lattice_points,
    polytope_from_json,
    polytope_to_json,
    selection_is_loop_free,
    simplicial_cone_determinant,
    volume,
    volume_formula,
    weyl_dimension,
    LoopError,
)

F3 = FlagType.full(3)
G24 = FlagType.grassmannian(2, 4)


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def test_exactla_basics():
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == Fraction(1, 6)
    assert rank([[1, 2], [2, 4]]) == 1
    assert solve([[2, 0], [0, 4]], [1, 1]) == (Fraction(1, 2), Fraction(1, 4))
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    assert affine_dim([(0, 0), (1, 0), (0, 1), (1, 1)]) == 2
    assert affine_dim([(0, 0), (1, 1), (2, 2)]) == 1


# ---------------------------------------------------------------------------
# facet reproduction (the two worked examples, in display order)


def test_facets_f123():
    poly = build_polytope(F3, [2, 0, -2])
    assert poly.coords == ((2, 1), (2, 2), (1, 1))
    got = [(f.v, f.tau) for f in poly.facets]
    assert got == [
        ((-1, 0, 0), Fraction(-2)),
        ((1, 0, 0), Fraction(0)),
        ((0, -1, 0), Fraction(0)),
        ((0, 1, 0), Fraction(-2)),
        ((1, 0, -1), Fraction(0)),
        ((0, -1, 1), Fraction(0)),
    ]


def test_facets_gr24():
    poly = build_polytope(G24, [1, 1, -1, -1])
    assert poly.coords == ((3, 2), (2, 1), (2, 2), (1, 1))
    got = [(f.v, f.tau) for f in poly.facets]
    assert got == [
        ((0, -1, 0, 0), Fraction(-1)),
        ((-1, 1, 0, 0), Fraction(0)),
        ((1, 0, -1, 0), Fraction(0)),
        ((0, 0, 1, 0), Fraction(-1)),
        ((0, 1, 0, -1), Fraction(0)),
        ((0, 0, -1, 1), Fraction(0)),
    ]


def test_facet_tau_blocks_consistency():
    for fl, lam in [(F3, (2, 0, -2)), (G24, (1, 1, -1, -1)), (FlagType(5, (2, 4)), (2, 2, 0, 0, -1))]:
        poly = build_polytope(fl, lam)
        d = fl.dims
        for f in poly.facets:
            assert f.tau == sum(
                Fraction(c) * poly.lam[d[l + 1] - 1]
                for l, c in enumerate(f.tau_blocks)
            )


def test_lambda_validation():
    with pytest.raises(ValueError):
        build_polytope(F3, [0, 0, -2])  # not strict across blocks
    with pytest.raises(ValueError):
        build_polytope(G24, [2, 1, -1, -1])  # not constant on a block
    with pytest.raises(ValueError):
        build_polytope(F3, [1, 2, 3])  # increasing


# ---------------------------------------------------------------------------
# vertex oracle: independent pure-Fraction enumeration, no prefilter


def brute_force_vertices(poly):
    """Intersect every N-subset of facet hyperplanes exactly; keep feasible.

    Returns (vertex, active facet indices) pairs in sorted order.
    """
    ineqs = [(f.v, f.tau) for f in poly.facets]
    found = {}
    for sub in combinations(range(len(ineqs)), poly.N):
        rows = [[Fraction(c) for c in ineqs[j][0]] for j in sub]
        rhs = [ineqs[j][1] for j in sub]
        pt = solve(rows, rhs)
        if pt is None or pt in found:
            continue
        vals = [sum(Fraction(c) * x for c, x in zip(v, pt)) - t for v, t in ineqs]
        if all(val >= 0 for val in vals):
            found[pt] = frozenset(j for j, val in enumerate(vals) if val == 0)
    return sorted(found.items())


def test_vertices_f123_against_oracle():
    poly = build_polytope(F3, [2, 0, -2])
    oracle = brute_force_vertices(poly)
    assert len(oracle) == 7  # cone over a square: 4 + 2 + 1
    assert poly.vertices() == oracle
    # the apex of the cone (the S^3 fiber point) lies on four facets
    apex = (Fraction(0), Fraction(0), Fraction(0))
    acts = dict(poly.vertices())
    assert len(acts[apex]) == 4


def test_vertices_gr24_against_oracle():
    poly = build_polytope(G24, [1, 1, -1, -1])
    oracle = brute_force_vertices(poly)
    assert poly.vertices() == oracle
    assert len(oracle) == 6


def test_vertices_partial_flag_against_oracle():
    poly = build_polytope(FlagType(4, (1, 3)), [2, 0, 0, -2])
    oracle = brute_force_vertices(poly)
    assert poly.vertices() == oracle


# rational lambda, a generic lambda, Grassmannians and partial flags with
# pinned entries; each has at most C(m, N) = 2002 facet subsets
VERTEX_ORACLE_CASES = [
    ("1,2|3", (2, Fraction(1, 2), -2)),
    ("1,2,3|4", (6, 3, -1, -5)),
    ("2|5", None),
    ("1,3|5", None),
    ("3|6", None),
    ("1,3|4", (2, 0, 0, -2)),
]


@pytest.mark.parametrize("flag,lam", VERTEX_ORACLE_CASES)
def test_vertices_and_facets_against_oracle(flag, lam):
    fl = FlagType.parse(flag)
    poly = build_polytope(fl, lam or anticanonical_lambda(fl))
    oracle = brute_force_vertices(poly)
    assert poly.vertices() == oracle
    # every kept inequality is a facet: its face is (N-1)-dimensional
    for j in range(len(poly.facets)):
        assert affine_dim([v for v, act in oracle if j in act]) == poly.N - 1


# every flag type with n <= 6, each at its anticanonical weight and at a
# rational weight with uneven gaps
ALL_TYPES_6 = [FlagType(n, steps) for n in range(2, 7) for r in range(1, n) for steps in combinations(range(1, n), r)]


def rational_lambda(flag):
    values = [Fraction((flag.r + 1 - b) ** 2, 3) for b in range(flag.r + 1)]
    return tuple(values[flag.block_of(i) - 1] for i in range(1, flag.n + 1))


@pytest.mark.parametrize("flag", ALL_TYPES_6, ids=str)
def test_facets_match_vertex_oracle(flag):
    # the pattern-order rule keeps exactly the candidates whose face on the
    # vertices of all candidates is a facet, in the same order
    for lam in (anticanonical_lambda(flag), rational_lambda(flag)):
        assert build_polytope(flag, lam).facets == vertex_facets(flag, lam)


@pytest.mark.parametrize("flag", ALL_TYPES_6, ids=str)
def test_interior_point_strictly_inside(flag):
    for lam in (anticanonical_lambda(flag), rational_lambda(flag)):
        poly = build_polytope(flag, lam)
        assert poly.contains(poly.interior_point(), strict=True)


def test_build_and_potential_enumerate_no_vertex(monkeypatch, capsys):
    # the facets come from the pattern order alone, so building a polytope
    # and printing its potential never run the vertex pass
    def no_vertices(self):
        raise AssertionError("vertices enumerated")

    monkeypatch.setattr(GCPolytope, "_vertices", property(no_vertices))
    fl = FlagType.full(7)
    assert len(build_polytope(fl, anticanonical_lambda(fl)).facets) == 42
    # the potential-ladder inputs of the benchmark
    for flag, lam in [
        ("1,2,3,4|5", "4,2,0,-2,-4"),
        ("1,2,3,4|5", "7,3,0,-2,-8"),
        ("1,2,4|5", None),
        ("1,3,4|5", None),
        ("2,3|5", None),
    ]:
        lam = lam or ",".join(map(str, anticanonical_lambda(FlagType.parse(flag))))
        assert main(["potential", "--flag", flag, "--lambda", lam]) == 0
        assert json.loads(capsys.readouterr().out)["terms"]


@pytest.mark.parametrize("flag,lam", VERTEX_ORACLE_CASES)
def test_union_find_rank_matches_oracle(flag, lam, monkeypatch):
    # every set of normals whose rank the vertex row pass decides (an entry
    # of the row above stands for its component) has union-find rank = the
    # exact rank
    fl = FlagType.parse(flag)
    poly = build_polytope(fl, lam or anticanonical_lambda(fl))
    seen = []
    join = polytopes._join

    def recording(edges, parent=None):
        # a union-find started afresh, so its forest is the rank of these edges
        assert not parent
        edges = list(edges)
        forest = join(edges, parent)
        seen.append((edges, len(forest)))
        return forest

    monkeypatch.setattr(polytopes, "_join", recording)
    poly.vertices()
    index = {pos: a for a, pos in enumerate(poly.coords)}

    def normal(upper, lower):
        v = [0] * poly.N
        for node, sign in ((upper, 1), (lower, -1)):
            if node in index:
                v[index[node]] += sign
        return v

    assert len(seen) > len(poly.facets)
    for edges, got in seen:
        assert got == rank([normal(*e) for e in edges])
    # is_reflexive grows its forest over prefixes of the facet list, sets of
    # normals that need not be tight together anywhere
    normals = [f.v for f in poly.facets]
    for k in range(1, len(normals) + 1):
        assert len(join(poly._facet_ends[:k])) == rank(normals[:k])


@pytest.mark.parametrize(
    "flag,lam",
    FIXED_CASES + [(FlagType.parse(flag), lam) for flag, lam in VERTEX_ORACLE_CASES],
    ids=str,
)
def test_vertices_match_pattern_rank_oracle(flag, lam):
    # every lambda-valued pattern is a vertex iff its tight normals have rank N
    poly = build_polytope(flag, lam or anticanonical_lambda(flag))
    # build_polytope decides the facets without the vertices: it leaves
    # them to the first call of vertices()
    assert "_vertices" not in vars(poly)
    assert poly.vertices() == pattern_vertices(poly)


def test_vertices_full6_counts():
    # 2^15 eliminations in the pattern oracle are too slow here; pin the counts
    fl = FlagType.full(6)
    poly = build_polytope(fl, anticanonical_lambda(fl))
    assert len(poly.facets) == 30 and len(poly.vertices()) == 4884


def test_vertices_2_4_6_certified():
    # C(24, 12) facet subsets is out of reach for the oracle; certify each
    # vertex exactly instead: feasible, and its tight normals span R^N
    poly = build_polytope(FlagType.parse("2,4|6"), (3, 3, 0, 0, -3, -3))
    verts = poly.vertices()
    assert len(poly.facets) == 20 and len(verts) == 155
    for v, act in verts:
        vals = [f.ell(v) for f in poly.facets]
        assert all(x >= 0 for x in vals)
        assert act == frozenset(j for j, x in enumerate(vals) if x == 0)
        assert rank([poly.facets[j].v for j in act]) == poly.N


# ---------------------------------------------------------------------------
# membership, patterns, containment


def test_pattern_roundtrip():
    poly = build_polytope(F3, [2, 0, -2])
    u = (Fraction(1), Fraction(-1), Fraction(0))
    pat = poly.pattern(u)
    assert pat == ((2, 0, -2), (1, -1), (0,))
    assert tuple(pat[poly.flag.n - k][i - 1] for k, i in poly.coords) == u
    assert all(up[i] >= x >= up[i + 1] for up, row in zip(pat, pat[1:]) for i, x in enumerate(row))
    assert poly.contains(u, strict=True)
    assert not poly.contains((3, 0, 0))
    assert poly.contains_float([1.0, -1.0, 0.0])
    assert not poly.contains_float([2.1, 0.0, 0.0])


def test_halfspace_arrays_cached_read_only():
    poly = build_polytope(F3, [2, 0, -2])
    A, b = poly.halfspace_arrays
    assert poly.halfspace_arrays[0] is A and poly.halfspace_arrays[1] is b
    with pytest.raises(ValueError):
        A[0, 0] = 5.0


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_random_interlacing_patterns_are_contained(seed):
    import random

    rnd = random.Random(seed)
    lam = sorted((rnd.randint(-3, 3) for _ in range(4)), reverse=True)
    if len(set(lam)) == 1:
        lam[0] += 1
        lam.sort(reverse=True)
    # blocks of equal values determine the flag
    steps = tuple(
        i for i in range(1, 4) if lam[i - 1] != lam[i]
    )
    fl = FlagType(4, steps)
    poly = build_polytope(fl, lam)
    # build a random interlacing pattern top-down
    rows = [list(map(Fraction, lam))]
    for k in (3, 2, 1):
        upper = rows[-1]
        row = []
        for i in range(k):
            lo, hi = upper[i + 1], upper[i]
            row.append(lo + (hi - lo) * Fraction(rnd.randint(0, 8), 8))
        rows.append(row)
    vals = {}
    for k, row in zip((4, 3, 2, 1), rows):
        for i, x in enumerate(row, start=1):
            vals[(k, i)] = x
    u = tuple(vals[pos] for pos in poly.coords)
    assert poly.contains(u)


# ---------------------------------------------------------------------------
# lattice points and the Weyl dimension oracle


def test_weyl_dimension_examples():
    assert weyl_dimension((1, 0)) == 2
    assert weyl_dimension((2, 0, -2)) == 27
    assert weyl_dimension((1, 0, 0)) == 3


def test_lattice_counts_match_weyl():
    for lam in [(1, 0), (2, 0, -2), (3, 1, 0), (2, 1, 0, -1)]:
        n = len(lam)
        steps = tuple(i for i in range(1, n) if lam[i - 1] != lam[i])
        poly = build_polytope(FlagType(n, steps), lam)
        if FlagType(n, steps).is_full():
            assert len(lattice_points(poly)) == weyl_dimension(lam)


@pytest.mark.parametrize(
    "lam, count",
    [((5, 3, 1, -1, -3, -5), 3**15), ((7, 3, 1, 0, -2, -9), 208_208_000)],
)
def test_lattice_point_count_n6(lam, count):
    # the count reads lambda alone, so the polytope skips build_polytope's facet pass
    flag = FlagType.full(6)
    lam_q = tuple(map(Fraction, lam))
    poly = GCPolytope(flag=flag, lam=lam_q, coords=free_positions(flag), facets=())
    assert lattice_point_count(poly) == count == weyl_dimension(lam)


def test_lattice_point_count_refuses_rational_lambda():
    poly = build_polytope(F3, [2, Fraction(1, 2), -2])
    with pytest.raises(ValueError, match="integral lambda"):
        lattice_point_count(poly)
    with pytest.raises(ValueError, match="integral lambda"):
        lattice_points(poly)


def test_lattice_points_come_sorted():
    # lattice_points does not sort: _patterns fills the coordinates in order
    for flag, lam in POLYTOPE_CASES + [(FlagType.parse("2,4|6"), (3, 3, 0, 0, -3, -3))]:
        pts = lattice_points(build_polytope(flag, lam))
        assert pts == sorted(pts), (flag, lam)


def test_lattice_points_are_contained_and_integral():
    poly = build_polytope(G24, [2, 2, -1, -1])
    pts = lattice_points(poly)
    assert len(pts) == len(set(pts))
    for p in pts:
        assert poly.contains(p)
        assert all(x.denominator == 1 for x in p)


# ---------------------------------------------------------------------------
# volume


def test_volume_f123():
    poly = build_polytope(F3, [2, 0, -2])
    assert volume(poly) == 8 == volume_formula(F3, [2, 0, -2])


def test_volume_formula_cases():
    cases = [
        (F3, (3, 1, 0)),
        (G24, (1, 1, -1, -1)),
        (G24, (1, 1, 0, 0)),
        (FlagType.full(4), (3, 1, -1, -3)),
        (FlagType(4, (1, 3)), (2, 0, 0, -2)),
        (FlagType.parse("2,4|6"), (3, 3, 0, 0, -3, -3)),
        (FlagType.full(5), (7, 3, 0, -2, -8)),
    ]
    for fl, lam in cases:
        poly = build_polytope(fl, lam)
        assert volume(poly) == volume_formula(fl, lam)


def test_volume_gr24_cli_example():
    assert volume_formula(G24, [1, 1, 0, 0]) == Fraction(1, 12)


def triangulated_volume(poly):
    """Reference: a pulling triangulation of the vertices, a det per simplex."""
    verts = poly.vertices()
    facet_sets = [
        frozenset(i for i, (_, act) in enumerate(verts) if j in act)
        for j in range(len(poly.facets))
    ]
    return volume_of([v for v, _ in verts], facet_sets)


def triangulated_dual_volume(poly):
    """Reference: the same triangulation of conv{facet normals}, whose facets
    are the sets of normals at distance -1 from a vertex after the shift."""
    ok, p = is_reflexive(poly)
    assert ok
    normals = [tuple(Fraction(c) for c in f.v) for f in poly.facets]
    facet_sets = []
    for w, _ in poly.vertices():
        ws = tuple(x - y for x, y in zip(w, p))
        facet_sets.append(
            frozenset(
                i for i, v in enumerate(normals) if sum(a * b for a, b in zip(v, ws)) == -1
            )
        )
    return volume_of(normals, facet_sets)


# the gc polytope ladder, rational lambda included; its anticanonical 1,2|3,
# 2|4 and 1,2,3|4 are the flags of acceptance criterion 6
@pytest.mark.parametrize(
    "flag,lam",
    [
        ("1,2|3", (2, 0, -2)),
        ("1,2|3", (2, Fraction(1, 2), -2)),
        ("2|4", None),
        ("1,2,3|4", (3, 1, -1, -3)),
        ("1,2,3|4", (6, 3, -1, -5)),
        ("2|5", None),
        ("1,3|5", None),
        ("3|6", None),
    ],
)
def test_volumes_match_triangulation(flag, lam):
    fl = FlagType.parse(flag)
    poly = build_polytope(fl, lam or anticanonical_lambda(fl))
    assert volume(poly) == triangulated_volume(poly)
    if all(x.denominator == 1 for x in poly.lam) and is_reflexive(poly)[0]:
        assert dual_volume(poly) == triangulated_dual_volume(poly)


# only the dual here: the primal triangulation of this polytope takes minutes
def test_dual_volume_full5_matches_triangulation():
    fl = FlagType.full(5)
    poly = build_polytope(fl, anticanonical_lambda(fl))
    assert dual_volume(poly) == triangulated_dual_volume(poly) == Fraction(4, 14175)


# ---------------------------------------------------------------------------
# reflexivity and dual volumes


def test_reflexive_full_flags():
    from math import factorial

    for n in (3, 4):
        fl = FlagType.full(n)
        lam = anticanonical_lambda(fl)
        poly = build_polytope(fl, lam)
        ok, p = is_reflexive(poly)
        assert ok
        # interior pattern entry formula k - 2i + 1
        expected = tuple(
            Fraction(k - 2 * i + 1) for (k, i) in poly.coords
        )
        assert p == expected
        N = poly.N
        assert dual_volume(poly) == Fraction(2**N, factorial(N))


def test_reflexive_gr24():
    from math import factorial

    lam = anticanonical_lambda(G24)
    poly = build_polytope(G24, lam)
    ok, p = is_reflexive(poly)
    assert ok
    N, n = poly.N, 4
    assert dual_volume(poly) == Fraction(n * 2 ** (N - (n - 1)), factorial(N))


def test_not_reflexive():
    poly = build_polytope(G24, [1, 1, -1, -1])
    ok, p = is_reflexive(poly)
    assert not ok and p is None
    assert interior_lattice_points(poly) == []


def reflexive_by_scan(poly):
    """Reference: one interior lattice point, every facet at distance 1 from it."""
    interior = interior_lattice_points(poly)
    if len(interior) != 1 or any(f.ell(interior[0]) != 1 for f in poly.facets):
        return False, None
    return True, interior[0]


# the gc polytope ladder with integral lambda, a translate of an anticanonical
# lambda, and non-reflexive weights (1,3|5 has pinned entries)
@pytest.mark.parametrize(
    "flag,lam,reflexive",
    [
        ("1,2|3", (2, 0, -2), True),
        ("2|4", (2, 2, -2, -2), True),
        ("2|4", (4, 4, 0, 0), True),
        ("2|4", (1, 1, -1, -1), False),
        ("1,2,3|4", (3, 1, -1, -3), True),
        ("1,2,3|4", (6, 3, -1, -5), False),
        ("2|5", (3, 3, -2, -2, -2), True),
        ("1,3|5", (4, 1, 1, -3, -3), True),
        ("1,3|5", (3, 1, 1, -2, -2), False),
        ("3|6", (3, 3, 3, -3, -3, -3), True),
    ],
)
def test_is_reflexive_matches_scan(flag, lam, reflexive):
    poly = build_polytope(FlagType.parse(flag), lam)
    got = is_reflexive(poly)
    assert got == reflexive_by_scan(poly)
    assert got[0] == reflexive


@pytest.mark.parametrize(
    "flag,lam",
    [
        ("1,2|3", (4, 1, -2)),
        ("2|4", (4, 4, 0, 0)),
        ("1,2,3|4", (4, 2, 0, -3)),
        ("1,3|5", (3, 1, 1, -2, -2)),
    ],
)
def test_interior_lattice_points_match_exact_contains(flag, lam):
    poly = build_polytope(FlagType.parse(flag), lam)
    want = [p for p in lattice_points(poly) if poly.contains(p, strict=True)]
    assert interior_lattice_points(poly) == want


# ---------------------------------------------------------------------------
# simplicial cone determinants


def test_cone_determinant_pm1():
    poly = build_polytope(F3, [2, 0, -2])
    for vertex, active in poly.vertices():
        for sel in combinations(sorted(active), poly.N):
            if not selection_is_loop_free(poly, sel):
                continue
            rows = [list(poly.facets[j].v) for j in sel]
            if rank(rows) < poly.N:
                continue
            assert abs(simplicial_cone_determinant(poly, vertex, sel)) == 1


def test_cone_determinant_loop_detection():
    # at the F(1,2,3) apex the 4 active facets form a single 4-cycle, so
    # every 3-subset is loop-free; Gr(2,4) has genuine looped N-subsets
    poly = build_polytope(F3, [2, 0, -2])
    apex = tuple(map(Fraction, (0, 0, 0)))
    acts = dict(poly.vertices())[apex]
    assert all(
        selection_is_loop_free(poly, sel)
        for sel in combinations(sorted(acts), 3)
    )

    poly = build_polytope(G24, [1, 1, -1, -1])
    vert = tuple(map(Fraction, (-1, -1, -1, -1)))
    acts = dict(poly.vertices())[vert]
    loops = [
        sel
        for sel in combinations(sorted(acts), 4)
        if not selection_is_loop_free(poly, sel)
    ]
    assert (1, 2, 4, 5) in loops
    with pytest.raises(LoopError):
        simplicial_cone_determinant(poly, vert, loops[0])


def test_cone_determinant_requires_active():
    poly = build_polytope(F3, [2, 0, -2])
    with pytest.raises(ValueError):
        simplicial_cone_determinant(poly, (1, -1, 0), [0, 1, 2])


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip():
    poly = build_polytope(G24, [Fraction(3, 2), Fraction(3, 2), -1, -1])
    doc = polytope_to_json(poly)
    blob = json.dumps(doc)
    back = polytope_from_json(json.loads(blob))
    assert back.lam == poly.lam
    assert [f.v for f in back.facets] == [f.v for f in poly.facets]
    # polytopes and facets are equal by value and hash alike
    assert back == poly and hash(back) == hash(poly) and back is not poly
    assert set(back.facets) == set(poly.facets) and len({back, poly}) == 1
    assert doc["lambda"][0] == "3/2"


def test_json_rejects_permuted_coords():
    # a consistent document in the reversed coordinate order: the Toda
    # layer and the moment maps read free_positions order, so it must not load
    doc = polytope_to_json(build_polytope(F3, [2, 0, -2]))
    doc["coords"] = doc["coords"][::-1]
    for f in doc["facets"]:
        f["v"] = f["v"][::-1]
    with pytest.raises(ValueError, match="coords"):
        polytope_from_json(doc)
