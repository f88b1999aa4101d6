from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from exact_oracle import meet

from gcflag import potential
from gcflag.cli import main
from gcflag.criteria import POLYTOPE_CASES
from gcflag.flags import FlagType, anticanonical_lambda
from gcflag.polytopes import build_polytope, free_positions
from gcflag.potential import (
    DEDUP_TOL,
    _derivatives,
    _same,
    build_potential,
    critical_points,
    grid_critical_points,
    toda_lift,
    toda_solutions,
)
from gcflag.toda import (
    PhaseCoordinates,
    TodaState,
    boundary_gradients,
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


# ---------------------------------------------------------------------------
# critical points from the level set: toda_solutions, toda_lift and the
# Toda route of critical_points, with the grid route as the oracle


def full_pot(lam):
    return build_potential(build_polytope(FlagType.full(len(lam)), lam))


def test_ladder_step_multiplies_the_characteristic_polynomial_by_x():
    # the step from level s to level s + 1 of the ladder f = sum_s f_s,
    # f_s = sum_i a_i / b_i + b_{i+1} / a_i with a = level s, b = level
    # s + 1: with the momenta d f_s / d log b at level s + 1 and
    # -d f_s / d log a at level s, det(A + xI) at level s + 1 is x times
    # det(A + xI) at level s, couplings b_{i+1} / b_i and a_{i+1} / a_i
    rng = np.random.default_rng(4)
    for s in (1, 2, 3, 4):
        a = np.exp(rng.standard_normal(s) + 1j * rng.standard_normal(s))
        b = np.exp(rng.standard_normal(s + 1) + 1j * rng.standard_normal(s + 1))
        up = np.zeros(s + 1, complex)
        up[:s] -= a / b[:s]
        up[1:] += b[1:] / a
        down = -(a / b[:s] - b[1:] / a)
        big = toda_hamiltonians(TodaState(p=tuple(up), q=tuple(b[1:] / b[:-1])))
        small = toda_hamiltonians(TodaState(p=tuple(down), q=tuple(a[1:] / a[:-1])))
        assert np.allclose(big, list(small) + [0], atol=1e-12)


@pytest.mark.parametrize(
    "lam,T",
    [((5, 2, 0, -4), np.exp(-1.0)), ((5, 2, 0, -4), 0.2), ((2, 0.5, -2), 0.5), ((4, 2, 0, -2, -4), 0.1)],
)
def test_lifted_level_set_points_are_critical_before_any_polish(lam, T):
    pot = full_pot([Fraction(x) for x in lam])
    p = toda_solutions(lam, T)
    S, inside = toda_lift(p, lam, T)
    assert S.shape == (factorial(len(lam)), pot.N) and inside.all()
    E, G, _ = _derivatives(pot, S, np.log(T))
    assert (np.abs(G).max(axis=1) <= 1e-10 * np.abs(E).sum(axis=1)).all()
    # each lift has the momenta it was lifted from: D = 0 is symmetric
    # under p -> -p, so the set of lifts alone would not show a sign slip
    l = -np.log(T) * np.array(lam, dtype=float)
    for s, row in zip(S, p):
        g = boundary_gradients(gc_to_toda(s, np.zeros_like(s), l))
        assert np.abs(g - row).max() <= 1e-9 * np.abs(row).max()


def test_level_set_points_solve_the_toda_hamiltonians():
    lam, T = (3, 1, -1, -3), np.exp(-1.0)
    stats = {}
    p = toda_solutions(lam, T, stats=stats)
    assert p.shape == (24, 4) and stats["paths"] == 24
    assert 0 < stats["homotopy_rejected"] < stats["homotopy_steps"]
    q = np.exp(np.diff(lam))  # q_i = exp(lambda_{i+1} - lambda_i) at T = e^-1
    for row in p:
        D = toda_hamiltonians(TodaState(p=tuple(row), q=tuple(q)))
        assert max(abs(d) for d in D) <= 1e-10 * max(1.0, np.abs(row).max() ** 4)
    # n! distinct points: no two paths end at one
    assert not meet(p).any()


def within(Y, X):
    """The rows of Y that lie within DEDUP_TOL of a row of X (_same)."""
    return _same(Y, X).any(axis=1)


FULL_CASES = [(fl, lam) for fl, lam in POLYTOPE_CASES if fl.is_full()] + [
    (FlagType.full(5), (4, 2, 0, -2, -4)),
    (FlagType.full(5), (7, 3, 0, -2, -8)),
]


@pytest.mark.parametrize("flag,lam", FULL_CASES, ids=[",".join(map(str, lam)) for _, lam in FULL_CASES])
def test_toda_route_holds_the_grid_points(flag, lam):
    pot = build_potential(build_polytope(flag, lam))
    T = np.exp(-1.0)
    stats = {}
    toda = critical_points(pot, T, stats=stats)
    grid = grid_critical_points(pot, T)
    Y, X = np.array([p.y for p in toda]), np.array([p.y for p in grid])
    assert within(X, Y).all()
    if len(grid) == factorial(flag.n):
        # the same count and, point by point, the same order
        assert len(toda) == len(grid)
        assert (np.abs(Y - X) <= DEDUP_TOL * np.maximum(np.abs(Y), np.abs(X))).all()
    # every end of the homotopy is a point or lies outside the torus, and
    # none passes through the grid's filters
    assert stats["outside_torus"] + stats["points"] == stats["starts"] == stats["paths"] == factorial(flag.n)
    assert stats["points"] == len(toda) and stats["not_converged"] == 0
    grid_only = ("converged", "singular", "unfinished", "outside_box", "drifting", "duplicate")
    assert not set(grid_only) & set(stats)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("lam", [(3, 1, -1, -3), (5, 2, 0, -4), (7, 3, 0, -2, -8)])
def test_toda_route_gives_one_set_at_every_seed(lam, seed):
    pot = full_pot(lam)
    T = np.exp(-1.0)
    stats = {}
    got = np.array([p.y for p in critical_points(pot, T, seed=seed, stats=stats)])
    want = np.array([p.y for p in critical_points(pot, T)])
    assert len(got) == len(want) == (20 if lam == (3, 1, -1, -3) else factorial(len(lam)))
    assert stats["outside_torus"] == factorial(len(lam)) - len(want)
    assert stats["carry_steps"] == stats["carry_rejected"] == 0  # the homotopy ran at T
    assert within(got, want).all()


def test_toda_route_at_3_1_m1_m3_drops_four_points_outside_the_torus():
    stats = {}
    pts = critical_points(full_pot((3, 1, -1, -3)), np.exp(-1.0), stats=stats)
    assert len(pts) == 20 and stats["outside_torus"] == 4
    assert all(p.nondegenerate for p in pts)


def test_toda_route_at_anticanonical_n6_holds_points_outside_the_grid_box():
    # 706 torus points and 14 outside; the grid's magnitude box would drop
    # 8 nondegenerate torus points, 1.70-1.86 outside it in log|y|
    flag = FlagType.full(6)
    pot = build_potential(build_polytope(flag, anticanonical_lambda(flag)))
    T = np.exp(-1.0)
    stats = {}
    pts = critical_points(pot, T, stats=stats)
    assert len(pts) == 706 and stats["outside_torus"] == 14
    assert all(p.nondegenerate for p in pts)
    verts = np.array([v for v, _ in pot.poly.vertices()], dtype=float)
    slack = 0.5 + 1.0
    lo, hi = verts.max(axis=0) * -1.0 - slack, verts.min(axis=0) * -1.0 + slack
    s = np.log(np.abs(np.array([p.y for p in pts])))
    beyond = np.maximum(lo - s, s - hi).max(axis=1)
    assert (beyond > 0).sum() == 8
    assert 1.69 < beyond[beyond > 0].min() and beyond.max() < 1.87


def test_toda_route_at_7_3_1_0_m2_m9_finds_all_720_points_at_every_seed():
    # the multi-start found 661, 660, 655 and 665 at seeds 0-3
    pot = full_pot((7, 3, 1, 0, -2, -9))
    sets = []
    for seed in range(4):
        stats = {}
        pts = critical_points(pot, np.exp(-1.0), seed=seed, stats=stats)
        assert len(pts) == 720 and stats["outside_torus"] == 0
        assert all(p.nondegenerate for p in pts)
        sets.append(np.array([p.y for p in pts]))
    for Y in sets[1:]:
        assert within(Y, sets[0]).all()


@pytest.mark.parametrize("lam,steps,rejected", [((5, 2, 0, -4), 176, 46), ((7, 3, 0, -2, -8), 1831, 558)])
def test_homotopy_step_counts_are_pinned(lam, steps, rejected):
    # the path steps and rejections summed over the n! paths, at the first gamma
    stats = {}
    toda_solutions(lam, np.exp(-1.0), stats=stats)
    assert (stats["homotopy_steps"], stats["homotopy_rejected"]) == (steps, rejected)


def test_homotopy_in_row_blocks_matches_one_block(monkeypatch):
    # the homotopy's rows do not interact: linearized and solved 7 at a
    # time, the Newton step and the tangent at n = 4's 24 starts change no
    # bit, nor do the paths' ends, and the Toda evaluation never sees more
    # than a block of rows
    n, lam = 4, [5.0, 2.0, 0.0, -4.0]
    starts = -np.array(list(permutations(np.exp(2j * np.pi * np.arange(n) / n))))[:, 1:]
    homotopy = potential._Homotopy(np.exp(np.diff(lam)), np.exp(0.7j))
    rows, sizes, toda = np.arange(len(starts)), [], potential._Homotopy._toda

    def spy(self, Z):
        sizes.append(len(Z))
        return toda(self, Z)

    def solved():
        ends = toda_solutions(lam, np.exp(-1.0))
        for t in (0.5, 0.0):
            for tangent in (False, True):
                yield from potential._solve_blocks(homotopy, starts, rows, np.full(len(starts), t), tangent)
        yield ends

    whole = list(solved())
    monkeypatch.setattr(potential, "ROW_BLOCK", 7)
    monkeypatch.setattr(potential._Homotopy, "_toda", spy)
    for a, b in zip(whole, solved(), strict=True):
        assert np.array_equal(a, b)
    assert max(sizes) == 7


def test_homotopy_gives_up_after_its_gammas(monkeypatch):
    monkeypatch.setattr(potential, "TRACK_MIN_STEP", 1.0)  # every path is lost at once
    with pytest.raises(RuntimeError, match="homotopy lost a path, or two paths met, at each of 3 gammas"):
        toda_solutions((2, 0, -2), np.exp(-1.0))


@pytest.mark.parametrize("fault", ["lost", "met"])
def test_homotopy_tracks_again_with_the_next_gamma(monkeypatch, fault):
    # a lost path, or two paths that end at one point, send every path
    # round again with the next gamma of random.Random(seed)
    lam, T = (5, 2, 0, -4), np.exp(-1.0)
    want = toda_solutions(lam, T)
    track, gammas = potential._track, []

    def faulty(homotopy, *args):
        gammas.append(homotopy.gamma)
        ends = track(homotopy, *args)
        if len(gammas) == 1:
            if fault == "lost":
                raise RuntimeError("continuation lost the branch")
            ends[0, 1] = ends[0, 0]
        return ends

    monkeypatch.setattr(potential, "_track", faulty)
    got = toda_solutions(lam, T)
    assert len(gammas) == 2 and gammas[0] != gammas[1]
    assert within(got, want).all() and len(got) == len(want) == 24


def test_level_set_check_runs_on_the_grid_points(monkeypatch):
    # points taken from D = 0 would pass the check by construction
    monkeypatch.setattr(potential, "critical_points", None)
    assert len(level_set_check(full_pot((5, 2, 0, -4)))) == 24


def refused(*args, **kwargs):
    raise AssertionError("grid_critical_points called on a full flag")


def test_full_flag_goes_round_when_the_homotopy_fails_at_T(monkeypatch):
    # the homotopy fails at T only: critical_points solves at the balanced
    # T0 = exp(-1/4) and carries the torus points round the real axis to T
    pot, T = full_pot((5, 2, 0, -4)), np.exp(-1.0)
    want = critical_points(pot, T)
    solve = potential.toda_solutions

    def fails_at_T(lam, at, **kwargs):
        if at == T:
            raise RuntimeError("homotopy lost a path, or two paths met, at each of 3 gammas")
        return solve(lam, at, **kwargs)

    monkeypatch.setattr(potential, "toda_solutions", fails_at_T)
    monkeypatch.setattr(potential, "grid_critical_points", refused)
    stats = {}
    got = critical_points(pot, T, stats=stats)
    assert len(got) == len(want) == 24
    assert np.diag(_same(np.array([p.y for p in got]), np.array([p.y for p in want]))).all()
    assert stats["outside_torus"] == 0 and stats["carry_steps"] > stats["carry_rejected"] > 0


def test_couplings_far_apart_take_no_grid_at_any_seed(monkeypatch):
    # (7,5,-6,-7) at T = 0.1: couplings 1e-1 to 1e-11.  At seed 2 no gamma
    # finishes at T, and the points are carried from T0 = exp(-1/11).  The
    # points are ill-conditioned here (sigma_min / sigma_max of the Hessian
    # down to 3.4e-6), so the seeds' sets differ by up to 2.2e-8 relative,
    # past DEDUP_TOL, with the homotopy at T alone (seeds 0, 1 and 3)
    monkeypatch.setattr(potential, "grid_critical_points", refused)
    pot, sets = full_pot((7, 5, -6, -7)), []
    for seed in range(4):
        stats = {}
        pts = critical_points(pot, 0.1, seed=seed, stats=stats)
        assert len(pts) == 24 and stats["outside_torus"] == 0
        assert (stats["carry_steps"] > 0) == (seed == 2)
        sets.append(np.array([p.y for p in pts]))
    for Y in sets[1:]:
        # each point's distance to the nearest of seed 0's, relative per coordinate
        far = np.abs(Y[:, None] - sets[0]) / np.maximum(np.abs(Y)[:, None], np.abs(sets[0]))
        assert far.max(axis=2).min(axis=1).max() <= 1e-7


def test_points_outside_the_torus_at_8_3_1_m4_are_four_at_every_seed():
    # palindromic gaps (5, 2, 5): 4 of the 24 solutions of D = 0 lie
    # outside the torus at T = 0.1 too, not lost by the lift
    pot = full_pot((8, 3, 1, -4))
    for seed in range(4):
        stats = {}
        assert len(critical_points(pot, 0.1, seed=seed, stats=stats)) == 20
        assert stats["outside_torus"] == 4


@pytest.mark.parametrize("seed", range(3))
def test_homotopy_whose_ends_all_leave_the_torus_goes_round(monkeypatch, seed):
    # (7,6,5,-8) at T = 0.05: the lift at T puts every end of the homotopy
    # outside the torus, at seeds 0 and 2, though the positive real minimum
    # lies in it.  That homotopy has failed, and the points are carried
    # from T0 as after a lost path
    lam, T = (7, 6, 5, -8), 0.05
    monkeypatch.setattr(potential, "grid_critical_points", refused)
    stats = {}
    assert len(critical_points(full_pot(lam), T, seed=seed, stats=stats)) == 24
    assert stats["outside_torus"] == 0 and stats["carry_steps"] > 0
    if seed != 1:
        assert not toda_lift(toda_solutions(lam, T, seed=seed), lam, T)[1].any()


def test_toda_route_accounts_for_every_end_at_8_6_m5_m6():
    # every end of the homotopy is a point or lies outside the torus; at
    # T = 0.01, seed 0, the ends are carried from T0, and 3 of them would
    # fail the grid's drift check
    stats = {}
    pts = critical_points(full_pot((8, 6, -5, -6)), 0.01, stats=stats)
    assert len(pts) + stats["outside_torus"] == 24
    assert stats["carry_steps"] > 0


@pytest.mark.xfail(strict=True, reason="the lift at T puts 20 ends outside the torus, the lift at T0 none")
def test_lifts_at_T_and_T0_agree_at_5_4_3_2_m9():
    # carried from T0, all 120 ends are critical points in the torus at T =
    # 0.05; the homotopy at T finishes, and its lift drops 20 of them
    lam, T = (5, 4, 3, 2, -9), 0.05
    T0 = np.exp(-1 / 11)
    outside = [(~toda_lift(toda_solutions(lam, at), lam, at)[1]).sum() for at in (T, T0)]
    assert outside[0] == outside[1]
    stats = {}
    assert len(critical_points(full_pot(lam), T, stats=stats)) == 120 and stats["outside_torus"] == 0


@pytest.mark.parametrize("fault,failed", [("copy", 2), ("nan", 1)])
def test_toda_route_refuses_ends_that_are_not_n_distinct_points(monkeypatch, capsys, fault, failed):
    # one torus row a copy of another (both fail), or one row NaN: the
    # route cannot account for every end of the homotopy, so it raises
    # rather than return 23 points and 0 outside the torus
    lift = potential.toda_lift

    def faulty(p, lam, T):
        S, inside = lift(p, lam, T)
        S[1] = S[0] if fault == "copy" else np.nan
        return S, inside

    monkeypatch.setattr(potential, "toda_lift", faulty)
    with pytest.raises(RuntimeError, match="%d of 24 torus points" % failed):
        critical_points(full_pot((5, 2, 0, -4)), np.exp(-1.0))
    assert main(["critical", "--flag", "1,2,3|4", "--lambda", "5,2,0,-4"]) == 1
    assert "internal error: %d of 24 torus points" % failed in capsys.readouterr().err
