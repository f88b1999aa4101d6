import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from exact_oracle import ladder_valuations, lstsq_fit, meet, near_relative_to_max, same_at_once

from gcflag.cli import main
from gcflag.flags import FlagType, anticanonical_lambda
from gcflag.polytopes import GCPolytope, build_polytope, is_reflexive
from gcflag import potential
from gcflag.potential import (
    DEDUP_TOL,
    DRIFT_TOL,
    INTERIOR_TOL,
    MINIMUM_TOL,
    NEWTON_MAXIT,
    NEWTON_TOL,
    STEP_CAP,
    TRACK_FIRST_STEP,
    TRACK_MIN_STEP,
    VALUATION_LADDER,
    VALUATION_TOL,
    _derivatives,
    _newton,
    _order_key,
    _solve_rows,
    _start_grid,
    _track,
    build_potential,
    cohomology_rank,
    critical_points,
    critical_valuation,
    grid_critical_points,
    hessian_nondegenerate,
    positive_real_minimum,
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
    # the same at three rows of _derivatives, which every Newton step,
    # tracker tangent and nondegeneracy test reads: G is the derivative of
    # each row's term sum, and H, a product with the table v v^T, that of G
    for pot in (pot_g24(), pot_f3()):
        S = rng.standard_normal((3, pot.N)) + 1j * rng.standard_normal((3, pot.N))
        _, G, H = _derivatives(pot, S, logT)
        for k in range(pot.N):
            dk = np.zeros(pot.N, dtype=complex)
            dk[k] = h
            (Ep, Gp, _), (Em, Gm, _) = _derivatives(pot, S + dk, logT), _derivatives(pot, S - dk, logT)
            fd = (Ep.sum(axis=1) - Em.sum(axis=1)) / (2 * h)
            assert (np.abs(fd - G[:, k]) < 1e-5 * np.maximum(1.0, np.abs(G[:, k]))).all()
            fd = (Gp - Gm) / (2 * h)
            assert (np.abs(fd - H[:, :, k]).max(axis=1) < 1e-4 * np.maximum(1.0, np.abs(H).max(axis=(1, 2)))).all()


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
    assert len(pts) == 4 < cohomology_rank(G24) == 6


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
    for T in (0.0, 1.0, 2.0, -0.5, -1.0, np.nan):
        for solve in (
            lambda: critical_points(pot, T),
            lambda: positive_real_minimum(pot, T),
            lambda: hessian_nondegenerate(pot, T, np.ones(3)),
        ):
            with pytest.raises(ValueError, match=r"T must lie in \(0, 1\)"):
                solve()


def scalar_newton(pot, s, logT, maxit=80, tol=NEWTON_TOL):
    """Damped Newton from one start, one step at a time: the oracle of the
    row-batched _newton.  Returns ("converged", limit), ("singular", None)
    or ("not_converged", None)."""
    s = np.asarray(s, dtype=complex).copy()
    for _ in range(maxit):
        e = pot.terms_at(s, logT)
        g = pot.gradient(s, logT)
        if np.abs(g).max() <= tol * np.abs(e).sum():
            return "converged", s
        try:
            step = np.linalg.solve(pot.hessian(s, logT), g)
        except np.linalg.LinAlgError:
            return "singular", None
        norm = np.abs(step).max()
        if norm > STEP_CAP:
            step = step * (STEP_CAP / norm)
        s = s - step
    return "not_converged", None


@pytest.mark.parametrize("pot", [pot_f3(), pot_g24()], ids=["f3", "g24"])
def test_batched_newton_matches_scalar_oracle(pot):
    logT = -1.0
    starts = _start_grid(pot, np.exp(logT))
    S, res, converged, singular = _newton(pot, starts, logT)
    assert np.isnan(res[~converged]).all() and (res[converged] <= NEWTON_TOL).all()
    for b, s0 in enumerate(starts):
        status, want = scalar_newton(pot, s0, logT)
        assert (converged[b], singular[b]) == (status == "converged", status == "singular")
        if want is not None:
            assert np.abs(S[b] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
    if pot.N == 4:
        # the g24 grid has rows with a singular Hessian, so the stacked
        # solve raised and the fallback ran
        assert singular.any()


def test_solve_rows_with_a_singular_hessian_matches_rows_alone():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    H[2] = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]  # rank 2
    G = rng.standard_normal((5, 3)) + 0j
    X, ok = _solve_rows(H, G)
    assert ok.tolist() == [True, True, False, True, True]
    for b in np.flatnonzero(ok):
        assert np.array_equal(X[b], np.linalg.solve(H[b], G[b]))


def test_solve_rows_masks_on_the_slogdet_sign():
    # det(1e-170 I) underflows to 0 though the matrix is regular; the ones
    # matrix is singular, so the stacked solve raises
    H = np.array([1e-170 * np.eye(3), np.ones((3, 3)), [[2, 1, 0], [1, 3, 1], [0, 1, 4]]], complex)
    G = np.array([[1, 2, 3], [1, 1, 1], [3, 2, 1]], complex)
    X, ok = _solve_rows(H, G)
    assert ok.tolist() == [True, False, True]
    for b in (0, 2):
        assert np.array_equal(X[b], np.linalg.solve(H[b], G[b]))


def test_start_grid_from_vertices_and_interior_point():
    pot = pot_f3()
    T = np.exp(-1.0)
    starts = _start_grid(pot, T)
    mags = [pot.poly.interior_point()] + [v for v, _ in pot.poly.vertices()]
    # 6^3 phase combinations exceed 64, so each magnitude gets 6 N = 18
    assert starts.shape == (18 * len(mags), 3)
    assert np.allclose(starts[0].real, np.array(mags[0], dtype=float) * np.log(T))
    assert np.array_equal(starts, _start_grid(pot, T))


def test_start_grid_cap_strides_over_every_vertex(monkeypatch):
    pot = pot_f3()
    T = np.exp(-1.0)
    mags = np.array(
        [pot.poly.interior_point()] + [v for v, _ in pot.poly.vertices()], dtype=float
    )
    monkeypatch.setattr(potential, "MAX_STARTS", 4)
    starts = _start_grid(pot, T)
    # more magnitudes than starts: one start each, spread over the whole
    # list, where a cut at the end would keep magnitudes 0-3 only
    assert len(mags) >= 8 and starts.shape == (4, 3)
    picked = [int(np.flatnonzero(np.isclose(mags * np.log(T), s.real).all(axis=1))[0]) for s in starts]
    assert picked == [k * len(mags) // 4 for k in range(4)]
    assert picked[-1] >= len(mags) // 2


@pytest.mark.parametrize(
    "pot",
    [pot_f3(), build_potential(build_polytope(FlagType.grassmannian(1, 3), [2, -1, -1]))],
    ids=["f3-drawn-phases", "gr13-every-phase"],
)
def test_start_grid_stages_cover_every_magnitude(pot):
    # block d of the grid is phase draw d of the interior point and of every vertex
    T = np.exp(-1.0)
    starts = _start_grid(pot, T)
    mags = np.array([pot.poly.interior_point()] + [v for v, _ in pot.poly.vertices()], dtype=float)
    for stage in starts.reshape(-1, len(mags), pot.N):
        assert np.allclose(stage.real, mags * np.log(T))


@pytest.mark.parametrize("seed", range(4))
def test_critical_count_f4_all_seeds(seed):
    pot = build_potential(build_polytope(FlagType.full(4), [5, 2, 0, -4]))
    assert len(critical_points(pot, np.exp(-1.0), seed=seed)) == 24


@pytest.mark.parametrize("lam", [[5, 2, 0, -4], [3, 1, -1, -3]])
def test_critical_stats_account_for_every_start(lam):
    pot = build_potential(build_polytope(FlagType.full(4), lam))
    stats = {}
    pts = grid_critical_points(pot, np.exp(-1.0), stats=stats)
    assert stats["starts"] == len(_start_grid(pot, np.exp(-1.0))) > 0
    assert stats["points"] == len(pts)
    rejected = ("singular", "not_converged", "unfinished", "outside_box", "drifting", "duplicate")
    assert sum(stats[k] for k in rejected) + stats["points"] == stats["starts"]
    assert stats["converged"] == (
        stats["starts"] - stats["singular"] - stats["not_converged"] - stats["unfinished"]
    )
    assert all(v >= 0 for v in stats.values())


def test_critical_points_stop_at_the_cohomology_rank():
    stats = {}
    pot = build_potential(build_polytope(FlagType.full(4), [5, 2, 0, -4]))
    assert len(grid_critical_points(pot, np.exp(-1.0), stats=stats)) == 24
    assert stats["unfinished"] > 0 and stats["not_converged"] == 0
    # fewer points than the rank: every start runs to its end
    stats = {}
    assert len(grid_critical_points(pot_g24(), np.exp(-1.0), stats=stats)) == 4
    assert stats["unfinished"] == 0 and stats["not_converged"] > 0


def test_grid_admits_no_point_past_the_rank():
    # the iteration that reaches the rank here converges more distinct rows
    # than it needs; the rows past the rank count as duplicates
    pot = build_potential(build_polytope(FlagType.full(4), [7, 5, -6, -7]))
    stats = {}
    assert len(grid_critical_points(pot, 0.1, stats=stats)) == 24
    rejected = ("singular", "not_converged", "unfinished", "outside_box", "drifting", "duplicate")
    assert sum(stats[k] for k in rejected) + stats["points"] == stats["starts"]


@pytest.mark.parametrize(
    "flag,lam",
    [(F3, [2, 0, -2]), (FlagType.grassmannian(2, 5), [3, 3, -2, -2, -2]), (FlagType.full(4), [5, 2, 0, -4])],
    ids=["f3", "g25", "f4"],
)
def test_stopped_run_matches_the_full_grid(monkeypatch, flag, lam):
    pot = build_potential(build_polytope(flag, lam))
    T = np.exp(-1.0)
    stopped_stats, full_stats = {}, {}
    stopped = grid_critical_points(pot, T, stats=stopped_stats)
    monkeypatch.setattr(potential, "cohomology_rank", lambda flag: 10**9)
    full = grid_critical_points(pot, T, stats=full_stats)
    assert full_stats["unfinished"] == 0
    assert stopped_stats["converged"] < full_stats["converged"]
    assert len(stopped) == len(full) == cohomology_rank(flag)
    for p, q in zip(stopped, full):
        assert np.abs(p.y - q.y).max() <= 1e-10 * np.abs(q.y).max()
        assert p.nondegenerate == q.nondegenerate


@pytest.mark.parametrize("pot", [pot_f3(), pot_g24()], ids=["f3", "g24"])
def test_staged_rows_match_rows_run_at_once(pot):
    # rows do not interact, and each keeps its own NEWTON_MAXIT budget, so
    # a row ends the same whether it joins late or with all the others
    logT = -1.0
    starts = _start_grid(pot, np.exp(logT))
    at_once, staged = {}, {}
    S, _, converged, singular = _newton(pot, starts, logT, stats=at_once)
    S7, _, converged7, singular7 = _newton(pot, starts, logT, width=7, stats=staged)
    assert np.array_equal(converged, converged7) and np.array_equal(singular, singular7)
    assert converged.any() and staged["widest"] < at_once["widest"] == len(starts)
    assert staged["row_steps"] == at_once["row_steps"]
    assert staged["not_converged"] == at_once["not_converged"]
    assert staged["not_converged"] == (~converged & ~singular).sum()
    for a, b in zip(S[converged], S7[converged]):
        y, y7 = np.exp(a), np.exp(b)
        assert np.abs(y - y7).max() <= DEDUP_TOL * np.abs(y).max()


@pytest.mark.parametrize(
    "flag,lam",
    [(F3, [2, 0, -2]), (G24, [1, 1, -1, -1]), (FlagType.full(4), [3, 1, -1, -3]), (FlagType.full(4), [5, 2, 0, -4])],
    ids=["f3", "g24", "f4-20-points", "f4"],
)
def test_blocked_newton_matches_one_block(monkeypatch, flag, lam):
    # rows do not interact, so evaluating them ROW_BLOCK at a time changes
    # no bit of critical_points' Newton run, rank stop included
    pot = build_potential(build_polytope(flag, lam))
    T = np.exp(-1.0)
    outputs, stats = [], []
    newton = potential._newton

    def recorded(*args, **kwargs):
        outputs.append(newton(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(potential, "_newton", recorded)
    for block in (7, len(_start_grid(pot, T))):
        monkeypatch.setattr(potential, "ROW_BLOCK", block)
        stats.append({})
        grid_critical_points(pot, T, stats=stats[-1])
    assert stats[0] == stats[1] and stats[1]["widest"] > 7
    if lam == [5, 2, 0, -4]:
        assert stats[1]["unfinished"] > 0  # the rank stop fired
    (S, res, converged, singular), whole = outputs
    assert np.array_equal(S, whole[0]) and np.array_equal(res, whole[1], equal_nan=True)
    assert np.array_equal(converged, whole[2]) and np.array_equal(singular, whole[3])


def test_newton_evaluates_at_most_a_block_of_rows(monkeypatch):
    # the whole start grid of 1,2,3,4|5 is in flight at once, yet no
    # evaluation sees more than ROW_BLOCK rows
    pot = build_potential(build_polytope(FlagType.full(5), [4, 2, 0, -2, -4]))
    sizes, inside = [], [False]
    derivatives, newton = potential._derivatives, potential._newton

    def recorded_derivatives(pot, S, logT):
        if inside[0]:
            sizes.append(len(S))
        return derivatives(pot, S, logT)

    def marked_newton(*args, **kwargs):
        inside[0] = True
        try:
            return newton(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(potential, "_derivatives", recorded_derivatives)
    monkeypatch.setattr(potential, "_newton", marked_newton)
    stats = {}
    assert len(grid_critical_points(pot, np.exp(-1.0), stats=stats)) == 120
    assert stats["widest"] > 10 * potential.ROW_BLOCK
    assert max(sizes) == potential.ROW_BLOCK and sum(sizes) == stats["row_steps"]


def in_box(pot, S, logT):
    """The rows of S inside critical_points' magnitude box."""
    verts = np.array([v for v, _ in pot.poly.vertices()], dtype=float)
    slack = 0.5 * abs(logT) + 1.0
    lo, hi = verts.max(axis=0) * logT - slack, verts.min(axis=0) * logT + slack
    return ((S.real >= lo) & (S.real <= hi)).all(axis=1)


def test_stop_sees_each_converged_row_once_with_its_newton_step():
    # the step of the iteration in which a row converged is its drift: at a
    # genuine isolated point, inside the box, it is at rounding level
    pot = pot_f3()
    logT = -1.0
    calls = []

    def stop(S, rows, drift):
        calls.append((rows.copy(), drift[in_box(pot, S[rows], logT)]))
        return False

    _, _, converged, _ = _newton(pot, _start_grid(pot, np.exp(logT)), logT, stop=stop, width=5)
    rows = np.concatenate([r for r, _ in calls])
    assert all((np.diff(r) > 0).all() for r, _ in calls)
    assert np.array_equal(np.sort(rows), np.flatnonzero(converged))
    drift = np.concatenate([d for _, d in calls])
    assert len(drift) > 6 and (drift <= DRIFT_TOL).all()


def all_at_once_points(pot, T, seed):
    """The oracle of the staged critical_points: Newton on the whole start
    grid at once and to the end, then the magnitude box, the drift check
    and the dedup on every converged row."""
    logT = np.log(T)
    S, _, converged, _ = _newton(pot, _start_grid(pot, T, seed=seed), logT)
    S = S[converged & in_box(pot, S, logT)]
    _, G, H = potential._derivatives(pot, S, logT)
    step, ok = _solve_rows(H, G)
    points = []
    for s in S[ok & (np.abs(step).max(axis=1) <= DRIFT_TOL)]:
        y = np.exp(s)
        if all(np.abs(y - q).max() > DEDUP_TOL * np.abs(q).max() for q in points):
            points.append(y)
    return points


# (5,2,0,-4) reaches the rank, (3,1,-1,-3) stops 4 points short of it
DEDUP_CASES = [
    (FlagType.full(4), [5, 2, 0, -4]),
    (FlagType.full(4), [3, 1, -1, -3]),
    (FlagType.grassmannian(2, 5), [3, 3, -2, -2, -2]),
    (G24, [1, 1, -1, -1]),
    (FlagType.parse("1,2,4|5"), [4, 2, -1, -1, -4]),
]
DEDUP_IDS = ["f4", "f4-20-points", "g25", "g24", "f1245"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("flag,lam", DEDUP_CASES, ids=DEDUP_IDS)
def test_staged_critical_points_match_the_all_at_once_oracle(flag, lam, seed):
    pot = build_potential(build_polytope(flag, lam))
    T = np.exp(-1.0)
    stats = {}
    got = grid_critical_points(pot, T, seed=seed, stats=stats)
    want = all_at_once_points(pot, T, seed)
    assert len(got) == len(want) == min(len(want), cohomology_rank(flag))
    for q in want:
        assert min(np.abs(p.y - q).max() for p in got) <= DEDUP_TOL * np.abs(q).max()
    rejected = ("singular", "not_converged", "unfinished", "outside_box", "drifting", "duplicate")
    assert sum(stats[k] for k in rejected) + stats["points"] == stats["starts"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("flag,lam", DEDUP_CASES, ids=DEDUP_IDS)
def test_same_point_rule_dedups_as_the_rule_relative_to_max_y(monkeypatch, flag, lam, seed):
    # the dedup compares each coordinate relative to the larger of the two
    # values there; relative to max|y| instead, it keeps the same points.
    # The homotopy's end test passes its row scales and keeps its rule
    pot = build_potential(build_polytope(flag, lam))
    T = np.exp(-1.0)
    stats, old_stats = {}, {}
    got = critical_points(pot, T, seed=seed, stats=stats)
    same = potential._same
    monkeypatch.setattr(
        potential, "_same", lambda A, Y, *scales: same(A, Y, *scales) if scales else near_relative_to_max(A, Y)
    )
    want = critical_points(pot, T, seed=seed, stats=old_stats)
    assert stats == old_stats and len(got) == len(want) > 0
    for p, q in zip(got, want):
        assert np.array_equal(p.y, q.y) and p.residual == q.residual and p.hessian_det == q.hessian_det


def test_staged_critical_points_skip_starts_the_rank_stop_never_needs():
    # all 1,476 starts at once took 15,169 row evaluations, plus 651 rows
    # of drift checks, in batches of 1,476 rows
    pot = build_potential(build_polytope(FlagType.full(4), [5, 2, 0, -4]))
    stats = {}
    assert len(grid_critical_points(pot, np.exp(-1.0), stats=stats)) == 24
    assert stats["row_steps"] < 15169 / 2 and stats["widest"] < stats["starts"] == 1476


def test_full_flag_points_and_minimum_enumerate_no_vertex(monkeypatch):
    # the Toda route and the positive minimum read no vertex: the minimum
    # starts from the closed-form interior point, so n = 7 stays cheap
    def no_vertices(self):
        raise AssertionError("vertices enumerated")

    monkeypatch.setattr(GCPolytope, "_vertices", property(no_vertices))
    pot = build_potential(build_polytope(FlagType.full(4), [5, 2, 0, -4]))
    assert len(critical_points(pot, np.exp(-1.0))) == 24
    pot = build_potential(build_polytope(FlagType.full(7), [9, 5, 2, 0, -1, -4, -11]))
    p = positive_real_minimum(pot, np.exp(-1.0))
    assert p.residual <= 1e-10 and (p.y.real > 0).all()
    val = critical_valuation(pot, p)
    assert pot.poly.contains_float(val, INTERIOR_TOL)


def test_drift_check_rejects_flat_valley_rows():
    # at T = 0.01 Newton converges onto flat valleys of 3|6 anticanonical,
    # where the step at the point stays order one
    flag = FlagType.grassmannian(3, 6)
    pot = build_potential(build_polytope(flag, anticanonical_lambda(flag)))
    stats = {}
    critical_points(pot, 0.01, stats=stats)
    assert stats["drifting"] > 0


def test_order_key_folds_minus_pi_onto_pi():
    # a negative real coordinate whose imaginary part is rounding noise of
    # either sign sorts the same way
    a = np.array([-1 + 1e-17j, 2 + 0j])
    b = np.array([-1 - 1e-17j, 2 + 0j])
    assert np.round(np.angle(a[0]), 6) == -np.round(np.angle(b[0]), 6)
    assert _order_key(a) == _order_key(b)


# ---------------------------------------------------------------------------
# hessian and valuations


def test_hessian_nondegenerate_and_rejection():
    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0))
    ok, dh = hessian_nondegenerate(pot, np.exp(-1.0), pts[0].y)
    assert ok and abs(dh) > 0
    with pytest.raises(ValueError):
        hessian_nondegenerate(pot, np.exp(-1.0), np.array([5.0, 5.0, 5.0]))
    # a zero, infinite or nan coordinate is not a critical point either
    with np.errstate(divide="ignore", invalid="ignore"):
        for y in ([0, 1, 1], [np.inf, 1, 1], [np.nan, 1, 1]):
            with pytest.raises(ValueError, match="not a critical point"):
                hessian_nondegenerate(pot, np.exp(-1.0), y)


@pytest.mark.parametrize(
    "flag,lam,T,count,nondegenerate",
    [
        (FlagType.full(5), (4, 2, 0, -2, -4), np.exp(-1.0), 120, 120),
        (FlagType.grassmannian(3, 6), (3, 3, 3, -3, -3, -3), np.exp(-1.0), 18, 18),
        (FlagType.grassmannian(3, 6), (3, 3, 3, -3, -3, -3), 0.01, 20, 18),
    ],
    ids=["1,2,3,4|5", "3|6", "3|6-T0.01"],
)
def test_nondegeneracy_reads_the_hessian_alone(flag, lam, T, count, nondegenerate):
    # the terms cancel at a critical point, so a test relative to the term
    # scale refused well-conditioned Hessians; at T = 0.01 two of the 20
    # points of 3|6 are flat-valley points, numerically singular
    pot = build_potential(build_polytope(flag, lam))
    pts = critical_points(pot, T)
    assert len(pts) == count and sum(p.nondegenerate for p in pts) == nondegenerate
    assert positive_real_minimum(pot, T).nondegenerate


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


@pytest.mark.parametrize("pot", [pot_f3(), pot_g24()], ids=["f3", "g24"])
def test_batched_valuations_match_per_point(pot):
    T = np.exp(-1.0)
    one = [critical_valuation(pot, p) for p in critical_points(pot, T)]
    pts = critical_points(pot, T)
    vals = critical_valuation(pot, pts)
    assert vals.shape == (len(pts), pot.N)
    for p, v, want in zip(pts, vals, one):
        assert np.abs(v - want).max() <= 1e-9
        assert np.array_equal(p.valuation, v)
    assert critical_valuation(pot, []).shape == (0, pot.N)


# the six inputs of the benchmark's critical-solve workload, and the one
# where a fixed ladder of 8 steps per unit of log T carried 4 branches
# onto 4 others
VALUATION_CASES = [
    ("1,2|3", (2, 0, -2)),
    ("2|4", (1, 1, -1, -1)),
    ("1,2,3|4", (3, 1, -1, -3)),
    ("1,2,3|4", (5, 2, 0, -4)),
    ("2|5", (3, 3, -2, -2, -2)),
    ("1,2|3", (2, Fraction(1, 2), -2)),
    ("1,2,3,4|5", (7, 3, 0, -2, -8)),
]
JUMP_CASE = VALUATION_CASES[-1]


@lru_cache(maxsize=None)
def continued(flag, lam):
    """The potential, its critical points and positive minimum at T = 1/e
    (seed 0), and their valuations on a fixed ladder of 32 steps per unit
    of log T."""
    pot = build_potential(build_polytope(FlagType.parse(flag), lam))
    T = np.exp(-1.0)
    pts = critical_points(pot, T) + [positive_real_minimum(pot, T)]
    return pot, pts, ladder_valuations(pot, pts)


@pytest.mark.parametrize(
    "flag,lam", VALUATION_CASES, ids=["%s@%s" % case for case in VALUATION_CASES]
)
def test_valuations_match_a_fine_fixed_ladder(flag, lam):
    pot, pts, want = continued(flag, lam)
    assert np.abs(critical_valuation(pot, pts) - want).max() <= 1e-8


@pytest.mark.parametrize(
    "flag,lam", VALUATION_CASES[:6], ids=["%s@%s" % case for case in VALUATION_CASES[:6]]
)
def test_closed_form_fit_matches_lstsq(monkeypatch, flag, lam):
    pot, pts, _ = continued(flag, lam)
    samples = []
    track = potential._track

    def recorded(*args):
        ends = track(*args)
        samples.extend(ends.real.reshape(len(ends), -1))
        return ends

    monkeypatch.setattr(potential, "_track", recorded)
    vals = critical_valuation(pot, pts)
    want, resid = lstsq_fit(samples, len(pts), pot.N)
    assert np.abs(vals - want).max() <= 1e-12
    assert np.abs(np.array([p.valuation_residual for p in pts]) - resid).max() <= 1e-12


def test_gc_critical_does_not_call_lstsq(monkeypatch, tmp_path):
    def refused(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refused)
    out = tmp_path / "critical.json"
    assert main(["critical", "--flag", "1,2|3", "--lambda", "2,0,-2", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 1), (3, 5)])
def test_blocked_same_point_mask_matches_the_one_shot_oracle(blocks, extra):
    # magnitudes over many orders, and near copies of earlier rows, some
    # within DEDUP_TOL and some just outside it in one coordinate, across
    # blocks
    B = blocks * potential.ROW_BLOCK + extra
    rng = np.random.default_rng(B)
    Y = np.exp(rng.normal(scale=5, size=(B, 3)) + 1j * rng.uniform(-np.pi, np.pi, (B, 3)))
    for k in range(1, B, 3):
        j = rng.integers(k)
        Y[k] = Y[j] * (1 + 1e-10 * rng.normal(size=3))
        if k % 2:
            Y[k, rng.integers(3)] *= 1 + 1e-7
    far = ~potential._same(Y, Y)
    assert np.array_equal(far, ~same_at_once(Y, Y))
    if B > 2:
        assert far.any() and (~far[~np.eye(B, dtype=bool)]).any()
    assert np.array_equal(row_scale_meet(Y), meet(Y))


def row_scale_meet(Z):
    """The rows of Z that are one point with another row at the row scale,
    as toda_solutions tests its ends."""
    norm = np.abs(Z).max(axis=1, keepdims=True)
    same = potential._same(Z, Z, norm, norm)
    np.fill_diagonal(same, False)
    return same.any(axis=1)


def test_same_point_rule_matches_its_oracles_on_adversarial_rows():
    # each case a pair of rows, one point per coordinate in the first two
    # cases only, and at the row scale (the max norm relative to the larger
    # norm) also where only a coordinate far below the others differs
    z = np.array([1 + 2j, -3 + 0.5j, 0.25 - 1j])
    pairs = {
        "real conjugates": (z.real, z.real.conj()),
        "gap 0.9e-8": (2 * z, 2 * z * (1 + 0.9e-8)),
        "conjugates": (3 * z, 3 * z.conj()),
        "gap 1.1e-8": (4 * z, 4 * z * (1 + 1.1e-8)),
        "1e-20 and 1e20": (np.array([1e-20, 1, 1e20]), np.array([2e-20, 1, 1e20])),
        "zero": (np.array([0, 1, 2]), np.array([1e-12, 1, 2])),
        "nan": (np.array([np.nan, 1, 2]), np.array([np.nan, 1, 2])),
    }
    Z = np.array([row for pair in pairs.values() for row in pair], dtype=complex)
    same = potential._same(Z, Z)
    assert np.array_equal(same, same_at_once(Z, Z))
    assert np.array_equal(row_scale_meet(Z), meet(Z))
    assert same[::2, 1::2].diagonal().tolist() == [True, True] + [False] * 5
    assert row_scale_meet(Z).tolist() == [True] * 4 + [False] * 4 + [True] * 4 + [False] * 2


def test_tracker_counts_every_step(monkeypatch):
    # a step is one row's corrector run at one log T of its own
    pot, pts, _ = continued(*JUMP_CASE)
    attempts = []
    newton = potential._newton

    def counted(pot, S, logT, *args, **kwargs):
        attempts.extend(logT)
        return newton(pot, S, logT, *args, **kwargs)

    monkeypatch.setattr(potential, "_newton", counted)
    stats = {}
    critical_valuation(pot, pts, stats=stats)
    assert stats["steps"] == len(attempts)
    # each row lands on each T of the ladder once, by an accepted step
    assert stats["steps"] - stats["rejected"] >= len(pts) * len(VALUATION_LADDER)
    assert stats["rejected"] >= 1
    # steps land on every T of the ladder
    assert set(np.log(VALUATION_LADDER)) <= set(attempts)


def real_track(pot, pts):
    """_track from the points' T along the real ladder alone, as
    critical_valuation first tracks them."""
    S = np.log(np.array([p.y for p in pts], dtype=complex))
    logT, ladder = np.log(pts[0].T), np.log(VALUATION_LADDER)
    return _track(pot, S, logT, ladder, VALUATION_TOL, 1, dict(steps=0, rejected=0))


@pytest.mark.parametrize("guard", ["collision", "correction"])
def test_each_guard_alone_keeps_the_branches(monkeypatch, guard):
    # with the corrector's steps and step count uncapped, the first step at
    # (7,3,0,-2,-8) can converge with branches on others.  The correction
    # guard alone keeps every branch; with the collision test alone a
    # branch runs off to overflow on the real axis and is lost there, not
    # carried onto another, and the path round the real axis finishes
    pot, pts, want = continued(*JUMP_CASE)
    monkeypatch.setattr(potential, "TRACK_MAXIT", NEWTON_MAXIT)
    monkeypatch.setattr(potential, "STEP_CAP", 1e9)
    if guard == "collision":
        monkeypatch.setattr(potential, "CORRECTION_RATIO", np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="lost the branch"):
                real_track(pot, pts)
            vals = critical_valuation(pot, pts)
    else:
        monkeypatch.setattr(potential, "_same", lambda A, Y: np.zeros((len(A), len(Y)), bool))
        vals = critical_valuation(pot, pts)
    assert np.abs(vals - want).max() <= 1e-8


def test_tracker_gives_up_below_its_smallest_step(monkeypatch):
    # a corrector that never converges halves every row's h until it is
    # below the floor, on the real axis and then on the path round it; the
    # first row is named at its complex log T.  The points come first: the
    # Toda homotopy runs on the same tracker
    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0))
    monkeypatch.setattr(potential, "TRACK_MAXIT", 0)
    stats = {}
    with pytest.raises(RuntimeError, match=r"continuation lost the branch of row 0 at -1\+0j,"):
        critical_valuation(pot, pts, stats=stats)
    halvings = int(np.floor(np.log2(TRACK_FIRST_STEP / TRACK_MIN_STEP)))
    assert stats["steps"] == stats["rejected"] == 2 * len(pts) * (halvings + 1)


def test_tracker_names_where_it_lost_the_branch():
    # at (6,3,-1,-5) two branches leave the torus at T = 1/4, and the
    # tracker on the real axis stalls just before log T = -ln 4 on a row
    # that, tracked alone, stalls there too
    pot = build_potential(build_polytope(FlagType.full(4), [6, 3, -1, -5]))
    T = np.exp(-1.0)
    pts = critical_points(pot, T) + [positive_real_minimum(pot, T)]
    pattern = r"of row (\d+) at (\S+), step h = (\S+)$"
    with pytest.raises(RuntimeError, match="continuation lost the branch of row ") as lost:
        real_track(pot, pts)
    row, logT, h = re.search(pattern, str(lost.value)).groups()
    row, logT, h = int(row), float(logT), float(h)
    assert abs(logT + np.log(4)) <= 1e-2 and 0 < h < TRACK_MIN_STEP
    with pytest.raises(RuntimeError, match="continuation lost the branch of row 0 ") as alone:
        real_track(pot, pts[row : row + 1])
    assert abs(float(re.search(pattern, str(alone.value)).group(2)) - logT) <= 1e-4


def test_detours_either_side_of_the_real_axis_agree(monkeypatch):
    # the pole at T = 1/4 of (6,3,-1,-5) has no monodromy: going round it
    # above or below gives one valuation per branch
    pot = build_potential(build_polytope(FlagType.full(4), [6, 3, -1, -5]))
    T = np.exp(-1.0)
    pts = critical_points(pot, T) + [positive_real_minimum(pot, T)]
    stats = {}
    above = critical_valuation(pot, pts, stats=stats)
    monkeypatch.setattr(potential, "DETOUR", -1.0)
    below = critical_valuation(pot, pts)
    assert np.abs(above - below).max() <= 1e-8
    assert pot.poly.contains_float(above[-1], tol=INTERIOR_TOL)
    # both paths count: 356 row steps on the real axis, to the lost
    # branch, and 216 round it
    assert stats["steps"] == 572


def test_valuation_refuses_branches_that_meet(monkeypatch):
    # a faulty tracker that carries branch 1 onto branch 0
    pot, pts, _ = continued(*VALUATION_CASES[3])
    track = potential._track

    def faulty(*args):
        ends = track(*args)
        ends[-1, 1] = ends[-1, 0]
        return ends

    monkeypatch.setattr(potential, "_track", faulty)
    with pytest.raises(RuntimeError, match="two branches met at T = 0.0001"):
        critical_valuation(pot, pts)


@pytest.mark.parametrize("case", [VALUATION_CASES[3], JUMP_CASE], ids=["f4", "jump"])
def test_tracker_moves_each_row_on_its_own(case):
    # each row tracked alone ends where it ends among all the rows, to
    # rounding (a batch of another size rounds differently in BLAS), and
    # its steps and rejections add up to the joint run's
    pot, pts, _ = continued(*case)
    S = np.log(np.array([p.y for p in pts]))
    args = np.log(pts[0].T), np.log(VALUATION_LADDER), potential.VALUATION_TOL, 1
    joint = dict(steps=0, rejected=0)
    want = potential._track(pot, S, *args, joint)
    alone = dict(steps=0, rejected=0)
    for b in range(len(S)):
        got = potential._track(pot, S[b : b + 1], *args, alone)
        assert np.abs(got[:, 0] - want[:, b]).max() <= 1e-13
    assert alone == joint


@pytest.mark.parametrize(
    "case,steps,rejected", [(VALUATION_CASES[3], 184, 20), (JUMP_CASE, 936, 134)], ids=["f4", "jump"]
)
def test_tracker_step_counts_are_pinned(case, steps, rejected):
    # steps and rejections summed over the rows, 25 and 121 of them; the
    # corrector tests a row after each of its TRACK_MAXIT steps, the last
    # one included
    pot, pts, _ = continued(*case)
    stats = {}
    critical_valuation(pot, pts, stats=stats)
    assert (stats["steps"], stats["rejected"]) == (steps, rejected)


def test_blocked_tracker_matches_one_block(monkeypatch):
    # the 25 rows at (5,2,0,-4) in four blocks of 7: the tangent and the
    # corrector change no bit, and the tracker takes the same steps
    pot, pts, _ = continued(*VALUATION_CASES[3])
    assert len(pts) == 25
    whole, blocked = {}, {}
    want = critical_valuation(pot, pts, stats=whole)
    monkeypatch.setattr(potential, "ROW_BLOCK", 7)
    assert np.array_equal(critical_valuation(pot, pts, stats=blocked), want)
    assert blocked == whole


def test_valuations_continue_every_branch_at_n6_anticanonical():
    # a fixed ladder of 8 steps per unit of log T lost branches here; the
    # positive minimum tends to the polytope's one interior lattice point
    poly = build_polytope(FlagType.full(6), [5, 3, 1, -1, -3, -5])
    pot = build_potential(poly)
    T = np.exp(-1.0)
    vals = critical_valuation(pot, critical_points(pot, T) + [positive_real_minimum(pot, T)])
    reflexive, centre = is_reflexive(poly)
    assert reflexive and np.abs(vals[-1] - np.array(centre, dtype=float)).max() <= 1e-9


@pytest.mark.parametrize("T", [VALUATION_LADDER[0], 0.005, 1e-5])
def test_valuations_from_T_at_or_below_the_ladder(T):
    # a row that starts on a T of the ladder lands there without a step,
    # and one that starts below a T of the ladder is tracked up to it
    pot = build_potential(build_polytope(FlagType.full(4), [5, 2, 0, -4]))
    pts = critical_points(pot, T) + [positive_real_minimum(pot, T)]
    assert np.abs(critical_valuation(pot, pts) - ladder_valuations(pot, pts)).max() <= 1e-8


def test_valuation_refuses_mixed_T():
    pot = pot_f3()
    pts = critical_points(pot, np.exp(-1.0)) + critical_points(pot, 0.1)
    with pytest.raises(ValueError):
        critical_valuation(pot, pts)


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
    critical_valuation(pot, cp)
    assert np.abs(cp.y.imag).max() < 1e-12
    assert (cp.y.real > 0).all()
    assert cp.residual < 1e-10
    assert cp.nondegenerate
    # valuation lies strictly inside the polytope
    assert poly.contains_float(cp.valuation, tol=-1e-6)


def test_positive_real_minimum_converges_below_minimum_tol():
    # terms of very different sizes cancel here, so the residual relative
    # to the term scale is the test that MINIMUM_TOL is reached
    pot = build_potential(build_polytope(FlagType.full(4), [5, 2, 0, -4]))
    cp = positive_real_minimum(pot, np.exp(-1.0))
    assert cp.residual <= MINIMUM_TOL


@pytest.mark.parametrize(
    "flag,lam",
    [
        (F3, (2, 0, -2)),
        (G24, (1, 1, -1, -1)),
        (FlagType.full(4), (5, 2, 0, -4)),
        (FlagType.grassmannian(2, 5), (3, 3, -2, -2, -2)),
        (F3, (2, Fraction(1, 2), -2)),
    ],
    ids=["f3", "g24", "f4", "g25", "f3-rational"],
)
def test_positive_real_minimum_across_T(flag, lam):
    pot = build_potential(build_polytope(flag, lam))
    for T in (1e-4, 1e-2, 0.5, 0.9):
        cp = positive_real_minimum(pot, T)
        assert cp.residual <= MINIMUM_TOL
        assert (cp.y.imag == 0).all() and (cp.y.real > 0).all()
        assert cp.valuation is None
        # W is convex in log coordinates on the positive orthant
        H = pot.hessian(np.log(cp.y.real), np.log(T))
        assert np.linalg.eigvalsh(H).min() > 0


def test_positive_real_minimum_refuses_an_unconverged_row(monkeypatch):
    monkeypatch.setattr(potential, "NEWTON_MAXIT", 1)
    with pytest.raises(RuntimeError):
        positive_real_minimum(pot_f3(), np.exp(-1.0))


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



def test_potential_report_layout(capsys):
    # the JSON report of `gc critical`: one entry per Laurent term and per
    # critical point, with the field layout it has always had
    import json

    from gcflag.cli import main

    assert main(["critical", "--flag", "1,2|3", "--lambda", "2,0,-2", "--T", "e-1"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert len(back["terms"]) == 6
    assert back["terms"][0]["v"] == [-1, 0, 0]
    assert back["terms"][0]["tau"] == "-2"
    assert len(back["critical"]) == 6
    for p in back["critical"]:
        assert sorted(p) == ["nondegenerate", "valuation", "y_im", "y_re"]
        assert len(p["y_re"]) == len(p["y_im"]) == len(p["valuation"]) == 3
