import numpy as np
import pytest

from gcflag.flags import FlagType
from gcflag.polytopes import build_polytope
from gcflag.system import (
    arrow_completion,
    eigenvalues_desc,
    fiber_point,
    gc_map,
    hermitize,
    random_orbit_point,
)

F3 = FlagType.full(3)
G24 = FlagType.grassmannian(2, 4)


def test_random_orbit_point_deterministic():
    x1 = random_orbit_point([2, 0, -2], seed=11)
    x2 = random_orbit_point([2, 0, -2], seed=11)
    x3 = random_orbit_point([2, 0, -2], seed=12)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)


def test_random_orbit_point_spectrum():
    lam = [3, 1, -1, -3]
    x = random_orbit_point(lam, seed=0)
    assert np.allclose(x, x.conj().T)
    assert np.allclose(eigenvalues_desc(x), lam, atol=1e-10)


def test_hermitize_validates():
    good = np.array([[1.0, 2 + 1j], [2 - 1j, 3.0]])
    assert np.allclose(hermitize(good), good)
    with pytest.raises(ValueError):
        hermitize(np.array([[1.0, 2 + 1j], [0.0, 3.0]]))
    with pytest.raises(ValueError):
        hermitize(np.ones((2, 3)))


def test_gc_map_diagonal():
    # on a diagonal matrix the map just reads off leading entries
    x = np.diag([2.0, 0.0, -2.0]).astype(complex)
    u = gc_map(x, F3)
    # coords order: (2,1), (2,2), (1,1)
    assert np.allclose(u, [2.0, 0.0, 2.0])


def test_gc_map_antidiagonal_s3_point():
    # the fiber over the apex of the F(1,2,3) cone: top-left 2x2 block has
    # eigenvalues (0, 0), i.e. the block is traceless with det 0 only if
    # the block is zero; take the classic representative
    lam = [2, 0, -2]
    x = np.array(
        [
            [0, 0, 2],
            [0, 0, 0],
            [2, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(eigenvalues_desc(x), lam)
    u = gc_map(x, F3)
    assert np.allclose(u, [0, 0, 0], atol=1e-12)


def test_gc_map_accepts_polytope():
    poly = build_polytope(F3, [2, 0, -2])
    x = random_orbit_point([2, 0, -2], seed=3)
    assert np.allclose(gc_map(x, F3), gc_map(x, poly))


def test_gc_map_lands_in_polytope():
    for fl, lam in [(F3, [2, 0, -2]), (G24, [1, 1, -1, -1]),
                    (FlagType.full(4), [3, 1, -1, -3])]:
        poly = build_polytope(fl, lam)
        for seed in range(25):
            u = gc_map(random_orbit_point(lam, seed=seed), fl)
            assert poly.contains_float(u, tol=1e-9)


def test_gc_map_interlacing_cauchy():
    # eigenvalues of nested principal blocks interlace (Cauchy)
    x = random_orbit_point([4, 1, 0, -2, -3], seed=7)
    prev = None
    for m in range(1, 6):
        ev = eigenvalues_desc(x[:m, :m])
        if prev is not None:
            for i in range(len(prev)):
                assert ev[i] + 1e-10 >= prev[i] >= ev[i + 1] - 1e-10
        prev = ev


# ---------------------------------------------------------------------------
# arrow completion


def test_arrow_completion_2x2():
    a = np.array([1.0, 0.0])
    b = np.array([0.5])
    m = arrow_completion(a, b)
    # diagonal carries b, corner the trace complement, couplings real >= 0
    assert np.allclose(m[0, 0], 0.5)
    assert np.allclose(m[1, 1], 0.5)
    assert np.allclose(m[0, 1], 0.5)
    assert np.allclose(eigenvalues_desc(m), a)


def test_arrow_completion_strict():
    a = np.array([2.0, 0.0, -2.0])
    b = np.array([1.0, -1.0])
    m = arrow_completion(a, b)
    assert np.allclose(np.diag(m)[:-1], b)
    assert np.allclose(m[-1, -1], np.sum(a) - np.sum(b))
    assert np.allclose(m, m.conj().T)
    assert np.allclose(eigenvalues_desc(m), a, atol=1e-12)


def test_arrow_completion_deflation():
    # b hits an eigenvalue of a: that row decouples exactly
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, 0.0])
    m = arrow_completion(a, b)
    assert m[0, -1] == 0.0 or m[1, -1] == 0.0
    assert np.allclose(eigenvalues_desc(m), a, atol=1e-12)


def test_arrow_completion_rejects_non_interlacing():
    with pytest.raises(ValueError):
        arrow_completion(np.array([1.0, 0.0]), np.array([2.0]))


def test_arrow_completion_couplings_formula():
    # |x_j|^2 = -prod_i (b_j - a_i) / prod_{l != j} (b_j - b_l)
    a = np.array([3.0, 1.0, -2.0])
    b = np.array([2.0, 0.0])
    m = arrow_completion(a, b)
    for j, bj in enumerate(b):
        num = -np.prod(bj - a)
        den = np.prod([bj - bl for l, bl in enumerate(b) if l != j])
        assert np.allclose(abs(m[j, -1]) ** 2, num / den)


# ---------------------------------------------------------------------------
# fiber points


def test_fiber_point_roundtrip_interior():
    poly = build_polytope(F3, [2, 0, -2])
    u = [1.0, -1.0, 0.5]
    x = fiber_point(poly, u)
    assert np.allclose(x, x.conj().T)
    assert np.allclose(eigenvalues_desc(x), [2, 0, -2], atol=1e-10)
    assert np.allclose(gc_map(x, F3), u, atol=1e-10)


def test_fiber_point_vertex():
    poly = build_polytope(F3, [2, 0, -2])
    x = fiber_point(poly, [0.0, 0.0, 0.0])
    assert np.allclose(eigenvalues_desc(x), [2, 0, -2], atol=1e-10)
    assert np.allclose(gc_map(x, F3), [0, 0, 0], atol=1e-8)


def test_fiber_point_gr24_roundtrips():
    poly = build_polytope(G24, [1, 1, -1, -1])
    rng = np.random.default_rng(5)
    hits = 0
    while hits < 30:
        u = rng.uniform(-1, 1, size=4)
        if not poly.contains_float(u, tol=-1e-6):
            continue
        hits += 1
        x = fiber_point(poly, u)
        assert np.allclose(gc_map(x, G24), u, atol=1e-8)


def test_fiber_point_rejects_outside():
    poly = build_polytope(F3, [2, 0, -2])
    with pytest.raises(ValueError):
        fiber_point(poly, [5.0, 0.0, 0.0])


def test_trace_telescoping():
    # partial traces of fiber points telescope through the pattern rows
    poly = build_polytope(FlagType.full(4), [3, 1, -1, -3])
    u = gc_map(random_orbit_point([3, 1, -1, -3], seed=9), poly)
    x = fiber_point(poly, u)
    # float pattern rows: row k entries sum to trace of leading k-block
    vals = {}
    for (k, i), val in zip(poly.coords, u):
        vals[(k, i)] = float(val)
    for k in range(1, 4):
        row = [vals[(k, i)] for i in range(1, k + 1)]
        assert np.allclose(np.trace(x[:k, :k]).real, sum(row), atol=1e-8)
