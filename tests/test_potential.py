import numpy as np
import pytest

from gcflag.flags import FlagType
from gcflag.polytopes import build_polytope
from gcflag.potential import (
    build_potential,
    cohomology_rank,
    count_vs_cohomology,
    critical_points,
    critical_valuation,
    hessian_nondegenerate,
    positive_real_minimum,
    potential_report,
)

F2 = FlagType.full(2)
F3 = FlagType.full(3)
G24 = FlagType.grassmannian(2, 4)


def pot_f3():
    return build_potential(build_polytope(F3, [2, 0, -2]))


def pot_g24():
    return build_potential(build_polytope(G24, [1, 1, -1, -1]))


# ---------------------------------------------------------------------------
# construction and rendering


def test_render_f2():
    pot = build_potential(build_polytope(F2, [1, -1]))
    assert pot.render() == "Q1/y1 + y1/Q2"


def test_render_f3():
    pot = pot_f3()
    assert pot.render() == "Q1/y1 + y1/Q2 + Q2/y2 + y2/Q3 + y1/y3 + y3/y2"
    assert pot.q_labels() == [1, 2, 3]


def test_render_g24():
    pot = pot_g24()
    assert pot.render() == "Q1/y2 + y2/y1 + y1/y3 + y3/Q3 + y2/y4 + y4/y3"
    assert pot.q_labels() == [1, 3]


def test_value_matches_direct_sum():
    # at y = 1 (s = 0) each term is T^{-tau}
    pot = pot_f3()
    T = 0.2
    want = sum(T ** (-float(t)) for _, _, t in pot.terms)
    assert abs(pot.value(np.zeros(3), np.log(T)) - want) < 1e-12


def test_gradient_matches_finite_differences():
    pot = pot_g24()
    logT = np.log(np.exp(-1.0))
    rng = np.random.default_rng(0)
    s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    g = pot.gradient(s, logT)
    h = 1e-6
    for k in range(4):
        dk = np.zeros(4, dtype=complex)
        dk[k] = h
        fd = (pot.value(s + dk, logT) - pot.value(s - dk, logT)) / (2 * h)
        assert abs(fd - g[k]) < 1e-5 * max(1.0, abs(g[k]))
    # hessian is the Jacobian of the gradient
    H = pot.hessian(s, logT)
    for k in range(4):
        dk = np.zeros(4, dtype=complex)
        dk[k] = h
        fd = (pot.gradient(s + dk, logT) - pot.gradient(s - dk, logT)) / (2 * h)
        assert np.abs(fd - H[:, k]).max() < 1e-4 * max(1.0, np.abs(H).max())


# ---------------------------------------------------------------------------
# critical points, closed forms


def test_critical_f2_closed_form():
    # W = T/y + y T: critical points y = +-1, independent of T
    pot = build_potential(build_polytope(F2, [1, -1]))
    for T in (np.exp(-1.0), 0.1):
        pts = critical_points(pot, T)
        assert len(pts) == 2
        got = sorted(pts, key=lambda p: p.y[0].real)
        assert abs(got[0].y[0] + 1) < 1e-10
        assert abs(got[1].y[0] - 1) < 1e-10
        assert all(p.nondegenerate for p in pts)


def test_critical_count_f3():
    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0))
    assert len(pts) == 6 == cohomology_rank(F3)
    for p in pts:
        assert p.residual < 1e-10
        assert p.nondegenerate


def test_critical_count_g24():
    pot = pot_g24()
    pts = critical_points(pot, np.exp(-1.0))
    assert len(pts) == 4
    assert cohomology_rank(G24) == 6
    count, rank = count_vs_cohomology(pot, np.exp(-1.0))
    assert count == 4 < rank == 6


def test_critical_points_deterministic():
    pot = pot_f3()
    a = critical_points(pot, np.exp(-1.0))
    b = critical_points(pot, np.exp(-1.0))
    for p, q in zip(a, b):
        assert np.array_equal(p.y, q.y)


def test_count_stable_in_T():
    pot = pot_f3()
    for T in (np.exp(-1.0), 1e-2):
        assert len(critical_points(pot, T)) == 6


def test_critical_rejects_bad_T():
    pot = pot_f3()
    for T in (0.0, 1.0, 2.0, -0.5):
        with pytest.raises(ValueError):
            critical_points(pot, T)


# ---------------------------------------------------------------------------
# hessian and valuations


def test_hessian_nondegenerate_and_rejection():
    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0))
    ok, dh = hessian_nondegenerate(pot, np.exp(-1.0), pts[0].y)
    assert ok and abs(dh) > 0
    with pytest.raises(ValueError):
        hessian_nondegenerate(pot, np.exp(-1.0), np.array([5.0, 5.0, 5.0]))


def test_valuations_f3():
    # every critical branch valuates at the unique interior lattice point
    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0))
    for p in pts:
        val = critical_valuation(pot, p)
        assert np.allclose(val, [1.0, -1.0, 0.0], atol=1e-3)
        assert p.valuation_residual < 1e-3


def test_valuations_g24():
    pot = pot_g24()
    pts = critical_points(pot, np.exp(-1.0))
    for p in pts:
        val = critical_valuation(pot, p)
        assert np.allclose(val, [0.0, 0.5, -0.5, 0.0], atol=1e-3)


def test_term_arrays_cached_read_only():
    poly = build_polytope(F3, [2, 0, -2])
    pot = build_potential(poly)
    assert pot.poly is poly
    assert pot._vm is pot._vm and pot._taus is pot._taus
    with pytest.raises(ValueError):
        pot._vm[0, 0] = 5.0


def test_positive_real_minimum_f3():
    pot = pot_f3()
    poly = pot.poly
    cp = positive_real_minimum(pot, np.exp(-1.0))
    assert np.abs(cp.y.imag).max() < 1e-12
    assert (cp.y.real > 0).all()
    assert cp.residual < 1e-10
    assert cp.nondegenerate
    # valuation lies strictly inside the polytope
    assert poly.contains_float(cp.valuation, tol=-1e-6)


def test_positive_real_minimum_matches_a_critical_point():
    pot = pot_g24()
    cp = positive_real_minimum(pot, np.exp(-1.0))
    pts = critical_points(pot, np.exp(-1.0))
    dists = [np.abs(p.y - cp.y).max() for p in pts]
    assert min(dists) < 1e-6


# ---------------------------------------------------------------------------
# invariances and reports


def test_argmin_invariant_under_lambda_shift():
    # shifting lambda by a constant rescales W but moves every y_k by T^c
    pot0 = build_potential(build_polytope(F3, [2, 0, -2]))
    pot1 = build_potential(build_polytope(F3, [3, 1, -1]))
    T = np.exp(-1.0)
    cp0 = positive_real_minimum(pot0, T)
    cp1 = positive_real_minimum(pot1, T)
    assert np.allclose(cp1.y.real / cp0.y.real, T, atol=1e-8)


def test_cohomology_ranks():
    assert cohomology_rank(F3) == 6
    assert cohomology_rank(FlagType.full(4)) == 24
    assert cohomology_rank(G24) == 6
    assert cohomology_rank(FlagType.grassmannian(2, 5)) == 10
    assert cohomology_rank(FlagType(5, (2, 4))) == 30


def test_potential_report_layout():
    import json

    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0))
    rep = potential_report(pot, pts)
    blob = json.dumps(rep)
    back = json.loads(blob)
    assert len(back["terms"]) == 6
    assert back["terms"][0]["v"] == [-1, 0, 0]
    assert back["terms"][0]["tau"] == "-2"
    assert len(back["critical"]) == 6
