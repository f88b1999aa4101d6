from fractions import Fraction

import numpy as np
import pytest

from gcflag.flags import FlagType
from gcflag.polytopes import build_polytope, free_positions
from gcflag.potential import build_potential, critical_points
from gcflag.toda import (
    PhaseCoordinates,
    TodaState,
    gc_to_toda,
    level_set_check,
    phase_function,
    toda_hamiltonians,
)


# ---------------------------------------------------------------------------
# Hamiltonians


def test_state_validation():
    TodaState(p=(1, 2), q=(3,))
    with pytest.raises(ValueError, match=r"need len\(q\) = len\(p\) - 1"):
        TodaState(p=(1, 2), q=(3, 4))


def test_hamiltonians_n2_hand():
    # det(A + xI) = x^2 + (p0 + p1) x + (p0 p1 + q1)
    D = toda_hamiltonians(TodaState(p=(2, 5), q=(3,)))
    assert D == (7, 13)


def test_hamiltonians_n3_hand():
    p = (1, 2, 3)
    q = (4, 5)
    D = toda_hamiltonians(TodaState(p=p, q=q))
    assert D[0] == sum(p)
    assert D[1] == 1 * 2 + 1 * 3 + 2 * 3 + 4 + 5
    assert D[2] == 1 * 2 * 3 + 3 * 4 + 1 * 5


def test_hamiltonians_exact_fractions():
    D = toda_hamiltonians(
        TodaState(p=(Fraction(1, 2), Fraction(1, 3)), q=(Fraction(1, 6),))
    )
    assert all(isinstance(d, Fraction) for d in D)
    assert D == (Fraction(5, 6), Fraction(1, 3))


def test_hamiltonians_against_charpoly():
    # oracle: D_i are the coefficients of det(xI + A) via numpy.poly(-A)
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4, 5):
        for trial in range(20):
            p = rng.standard_normal(n)
            q = rng.standard_normal(n - 1)
            if trial % 2:  # level_set_check passes complex gradients
                p = p + 1j * rng.standard_normal(n)
                q = q + 1j * rng.standard_normal(n - 1)
            A = np.diag(p) + np.diag(q, 1) + np.diag(-np.ones(n - 1), -1)
            coeffs = np.poly(-A)  # [1, D_1, ..., D_n]
            D = toda_hamiltonians(TodaState(p=tuple(p), q=tuple(q)))
            assert np.allclose(D, coeffs[1:], atol=1e-10)


def test_known_level_set_point():
    # real critical point of the n = 3 phase function with lam = (2, 0, -2)
    e = np.e
    s = np.sqrt(2.0)
    D = toda_hamiltonians(
        TodaState(p=(-s / e, 0.0, s / e), q=(e**-2, e**-2))
    )
    assert abs(D[0]) < 1e-15
    assert abs(D[1]) < 1e-15
    assert abs(D[2]) < 1e-15


# ---------------------------------------------------------------------------
# phase coordinates


def make_pc(n, lam, fill=0.0):
    T = {}
    for i in range(1, n + 1):
        for j in range(1, n - i + 2):
            T[(i, j)] = lam[i - 1] if j == n - i + 1 else fill
    return PhaseCoordinates(n=n, T=T)


def test_phase_coordinates_boundary():
    pc = make_pc(3, (2.0, 0.0, -2.0))
    assert pc.lam == (2.0, 0.0, -2.0)
    assert np.allclose(pc.q(), (np.exp(-2.0), np.exp(-2.0)))
    with pytest.raises(ValueError, match="T must be defined exactly on the triangle"):
        PhaseCoordinates(n=3, T={(1, 1): 0.0})


def test_phase_function_positive_at_flat_fill():
    pc = make_pc(3, (2.0, 0.0, -2.0))
    # 6 unit terms when every interior difference is zero... count by value
    # at the flat fill the X terms with j+1 on the boundary pick up lam
    assert phase_function(pc) > 0


def test_gc_to_toda_boundary_and_interior():
    lam = (2.0, 0.0, -2.0)
    u = np.array([1.0, -1.0, 0.5])
    x = np.array([0.2, -0.3, 0.1])
    pc = gc_to_toda(x, u, lam)
    assert pc.lam == lam
    # interior entry (1,1) corresponds to pattern box (1,1), coordinate u3
    coords = free_positions(FlagType.full(3))
    a = coords.index((1, 1))
    assert pc.T[(1, 1)] == pytest.approx(u[a] - x[a])


def test_phase_equals_potential_at_e_inverse():
    # f_q(T) = W(y) at T = e^{-1} under T_ij = u_ij - x_ij, y = e^{x - u}
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        lam_q = sorted(
            {Fraction(int(k), 8) for k in rng.integers(-24, 24, 4 * n)},
            reverse=True,
        )[:n]
        lam = tuple(float(x) for x in lam_q)
        pot = build_potential(build_polytope(FlagType.full(n), lam_q[:n]))
        N = pot.N
        u = rng.standard_normal(N)
        x = rng.standard_normal(N)
        pc = gc_to_toda(x, u, lam)
        f = phase_function(pc)
        w = pot.value(np.asarray(x - u, dtype=complex), -1.0)
        assert abs(f - w) < 1e-12 * max(1.0, abs(f))


# ---------------------------------------------------------------------------
# level-set correspondence


def test_level_set_n2_exact():
    pot = build_potential(build_polytope(FlagType.full(2), [1, -1]))
    rep = level_set_check(pot)
    assert len(rep) == 2
    for r in rep:
        assert r["residual"] < 1e-14


def test_level_set_n3():
    pot = build_potential(build_polytope(FlagType.full(3), [2, 0, -2]))
    rep = level_set_check(pot)
    assert len(rep) == 6  # 3! critical points
    for r in rep:
        assert r["residual"] < 1e-6
        assert len(r["D"]) == 3


def test_level_set_requires_full_flag_and_fixed_T():
    pot = build_potential(
        build_polytope(FlagType.grassmannian(2, 4), [1, 1, -1, -1])
    )
    with pytest.raises(ValueError):
        level_set_check(pot)


def test_critical_count_n3_is_factorial():
    pot = build_potential(build_polytope(FlagType.full(3), [2, 0, -2]))
    assert len(critical_points(pot, np.exp(-1.0))) == 6
