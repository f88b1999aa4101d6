"""Landau-Ginzburg potential functions of Gelfand-Cetlin fibers.

The potential attached to a polytope has one Laurent term per facet:
in the variables y_k = e^{x_k} T^{u_k} and Q_j = T^{lambda_{n_j}} the
facet with normal v and offset tau contributes prod_k y_k^{v_k} times
prod_j Q_j^{-c_j}, where tau = sum_j c_j lambda_{n_j}.  Critical points
are found at a fixed numeric Novikov parameter T in (0, 1) by damped
Newton iteration in logarithmic coordinates.  On a full flag its starts
are the n! points of the Toda level set D = 0 (the Hamiltonians of
gcflag.toda), from one homotopy (toda_solutions) with one gamma, lifted
to the GC chart (toda_lift); if that homotopy fails at T, the one
fallback runs it at balanced couplings and carries the points to T.  On
a partial flag the starts are a deterministic grid (vertices and
interior point of the polytope, sixth-root phases from
random.Random(seed) when the grid is large) that joins one phase draw
per iteration.  Valuations are estimated by
continuing every branch to small T on _track, the one adaptive
predictor-corrector (it also carries the Toda homotopy), and fitting the
slope of log|y_k| against log T.  A real path that fails (a branch
meets a pole, the homotopy at T fails) goes round in complex log T.
"""

import random
from collections import namedtuple
from functools import cached_property
from itertools import permutations
from math import factorial

from ._lazy import lazy

np = lazy("numpy")


class LaurentPotential(namedtuple("LaurentPotential", "flag lam coords terms poly")):
    """One term (v: int tuple, tau_blocks: int tuple, tau: Fraction) per
    facet of the GCPolytope poly.  No __slots__: the cached properties
    need __dict__."""

    @property
    def N(self):
        return len(self.coords)

    def q_labels(self):
        """Subscripts for the Q symbols: first index of each lambda block."""
        d = self.flag.dims
        return [d[l - 1] + 1 for l in range(1, self.flag.r + 2)]

    def render(self):
        """Textual Laurent form, e.g. "Q1/y1 + y1/Q2 + ..."."""
        labels = self.q_labels()
        parts = []
        for v, cb, _ in self.terms:
            num, den = [], []
            for k, e in enumerate(v):
                if e > 0:
                    num.append(_pow("y%d" % (k + 1), e))
                elif e < 0:
                    den.append(_pow("y%d" % (k + 1), -e))
            for l, c in enumerate(cb):
                if c < 0:
                    num.append(_pow("Q%d" % labels[l], -c))
                elif c > 0:
                    den.append(_pow("Q%d" % labels[l], c))
            topn = "*".join(num) if num else "1"
            if den:
                parts.append(topn + "/" + "*".join(den))
            else:
                parts.append(topn)
        return " + ".join(parts)

    # numeric evaluation at fixed T, in log coordinates s = log y; the term
    # exponents and offsets are the polytope's read-only float facet arrays

    @property
    def _vm(self):
        return self.poly.halfspace_arrays[0]

    @property
    def _taus(self):
        return self.poly.halfspace_arrays[1]

    @cached_property
    def _vv(self):
        """The outer products v v^T of the term exponents, one row per term."""
        vm = self._vm
        vv = (vm[:, :, None] * vm[:, None, :]).reshape(len(vm), -1)
        vv.flags.writeable = False
        return vv

    def terms_at(self, s, logT):
        return np.exp(self._vm @ s - self._taus * logT)

    def value(self, s, logT):
        return self.terms_at(s, logT).sum()

    def gradient(self, s, logT):
        """y d/dy derivatives, i.e. d/ds."""
        return self._vm.T @ self.terms_at(s, logT)

    def hessian(self, s, logT):
        vm = self._vm
        e = self.terms_at(s, logT)
        return (vm * e[:, None]).T @ vm

    def linearize(self, S, logT, tangent=False):
        """dW/ds = 0 at a block of rows S, each at its own log T (a column),
        for _solve_blocks: the Hessian, dW/ds or, with tangent, (E tau) @ V,
        whose solution is dS/dlog T, sum|terms| and max|dW/ds|."""
        E, G, H = _derivatives(self, S, logT)
        return H, (E * self._taus) @ self._vm if tangent else G, np.abs(E).sum(axis=1), np.abs(G).max(axis=1)


def _pow(sym, e):
    return sym if e == 1 else "%s^%d" % (sym, e)


def build_potential(poly):
    """One Laurent term per irredundant facet of the polytope."""
    terms = tuple(
        (f.v, f.tau_blocks, f.tau) for f in poly.facets
    )
    return LaurentPotential(
        flag=poly.flag, lam=poly.lam, coords=poly.coords, terms=terms, poly=poly
    )


class CriticalPoint:
    """A critical point y (complex array) at the fixed T; critical_valuation
    sets its valuation (float array) and valuation_residual."""

    def __init__(
        self, y, T, residual, hessian_det, nondegenerate, valuation=None, valuation_residual=None
    ):
        self.y, self.T, self.residual = y, T, residual
        self.hessian_det, self.nondegenerate = hessian_det, nondegenerate
        self.valuation, self.valuation_residual = valuation, valuation_residual


# ---------------------------------------------------------------------------
# Tolerances of the numeric solvers.  Residuals are measured relative to
# the term scale sum_m |term_m|, because terms of very different sizes
# cancel at a critical point.

NEWTON_TOL = 1e-12  # Newton has converged when max|dW/ds| <= NEWTON_TOL * scale
VALUATION_TOL = 1e-11  # the same test on each step of the continuation in T
VALUATION_LADDER = (1e-2, 1e-3, 1e-4)  # the continuation fits log|y| at these T, in this order
TRACK_FIRST_STEP = 0.5  # _track's first step at every row: in log T for the valuations, in t for the Toda homotopy
TRACK_MIN_STEP = 1e-9  # a row whose step _track cuts below this has lost its branch
TRACK_MAXIT = 3  # a _track step whose corrector needs more Newton steps at a row is rejected there
TRACK_EASY = 0.0625  # after a step corrected by at most this times its predicted move, the row's next step is twice as long
CORRECTION_RATIO = 1.0  # _track's corrector may move a row at most this times its predicted move
NEWTON_MAXIT = 80  # a start that has not converged after this many steps fails
STEP_CAP = 2.0  # a Newton step moves at most this far in log space (max norm)
DRIFT_TOL = 1e-6  # a longer Newton step at a converged point marks a flat valley
DEDUP_TOL = 1e-8  # points this close in every coordinate, relative to the larger value there, are one
MAX_STARTS = 4000  # _start_grid subsamples a grid of more starts than this
NONDEGENERATE_TOL = 1e-8  # nondegenerate when sigma_min(Hess) > NONDEGENERATE_TOL * sigma_max(Hess)
CRITICAL_TOL = 1e-8  # hessian_nondegenerate takes y as critical below this
MINIMUM_TOL = 1e-13  # the Newton tolerance of positive_real_minimum
INTERIOR_TOL = -1e-6  # contains_float's tol for a strictly interior valuation: 1e-6 inside every facet
ROW_BLOCK = 256  # _solve_blocks and _same work on at most this many rows at once
DETOUR = 1.0  # a path that goes round the real axis from log T = a to b passes (a + b) / 2 + i DETOUR
HOMOTOPY_TOL = 1e-6  # the Toda homotopy's corrector stops for t > 0 at a Newton step this small relative to the point
TORUS_TOL = 1e-11  # toda_lift: an entry whose defining sum cancels to this fraction of its terms is zero


def _log_T(T):
    """log T for a Novikov parameter T in (0, 1); any other T is refused."""
    if not 0 < T < 1:
        raise ValueError("T must lie in (0, 1)")
    return np.log(T)


def _nondegenerate(H):
    """The singular-value test of a stack H of logarithmic Hessians, one
    flag per Hessian.  It reads H alone: at a critical point the terms
    cancel, so a test relative to the term scale grows stricter with N."""
    sv = np.linalg.svd(H, compute_uv=False)
    return sv[..., -1] > NONDEGENERATE_TOL * sv[..., 0]


# ---------------------------------------------------------------------------
# Newton solving, one row per start


def _derivatives(pot, S, logT):
    """Terms (B, M), gradients (B, N) and Hessians (B, N, N) at the rows of S;
    the Hessians are one product with the outer products v v^T of the term
    exponents, with no (B, M, N) intermediate."""
    E = np.exp(S @ pot._vm.T - pot._taus * logT)
    return E, E @ pot._vm, (E @ pot._vv).reshape(len(S), pot.N, pot.N)


def _points(pot, S, T, logT, residuals):
    """One CriticalPoint per row of S, with its Hessian determinant and
    nondegeneracy from one _derivatives call, sorted by _order_key; no
    valuation."""
    _, _, H = _derivatives(pot, S, logT)
    points = [
        CriticalPoint(y=np.exp(s), T=T, residual=r, hessian_det=dh, nondegenerate=bool(nd))
        for s, r, dh, nd in zip(S, residuals, np.linalg.det(H), _nondegenerate(H))
    ]
    return sorted(points, key=lambda p: _order_key(p.y))


def _solve_rows(H, G):
    """Solve H[b] x = G[b] for every row b.  Returns (X, ok).

    One stacked solve.  If it raises (some H[b] is singular), the rows
    whose slogdet sign is nonzero are solved in a second stacked call and
    the others fail.  The sign is 0 exactly where LU finds a zero pivot,
    which is where solve raises, since both factor H[b] the same way; a
    nonsingular H[b] whose determinant underflows keeps its sign.
    """
    try:
        return np.linalg.solve(H, G[..., None])[..., 0], np.ones(len(G), bool)
    except np.linalg.LinAlgError:
        pass
    X = np.zeros_like(G)
    ok = np.linalg.slogdet(H)[0] != 0
    X[ok] = np.linalg.solve(H[ok], G[ok][..., None])[..., 0]
    return X, ok


def _solve_blocks(system, S, rows, at, tangent=False):
    """Linearize system at the given rows of S, each at its own parameter
    (at holds one per row of S), and solve, ROW_BLOCK rows at a time so the
    working set does not grow with the number of rows: the Newton step or,
    with tangent, the tangent dS/dat.  Returns (X, ok, scale, r): the
    solutions and _solve_rows' mask, and the scale and residual of each row
    from system.linearize, or where it gives no residual the max norm of
    the step (inf where it cannot be solved).  Runaway rows overflow
    quietly; _newton and _track reject them."""
    X, ok = np.empty((len(rows), S.shape[1]), complex), np.empty(len(rows), bool)
    scale, r = np.empty(len(rows)), np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(0, len(rows), ROW_BLOCK):
            block = slice(b, b + ROW_BLOCK)
            J, rhs, scale[block], res = system.linearize(S[rows[block]], at[rows[block], None], tangent)
            X[block], ok[block] = _solve_rows(J, rhs)
            r[block] = np.where(ok[block], np.abs(X[block]).max(axis=1), np.inf) if res is None else res
    return X, ok, scale, r


def _newton(system, S, at, tol=NEWTON_TOL, stop=None, width=None, stats=None, maxit=None, min_steps=0):
    """Damped Newton on every row of S, a (B, N) stack: the one Newton loop
    of the multi-start, the positive minimum, _track's corrector and the
    polish of the Toda homotopy's ends and of their lifts.  system is the
    system it solves, a LaurentPotential (dW/ds = 0 in log coordinates at
    log T = at) or a _Homotopy (in t = at): anything with a linearize for
    _solve_blocks.  at is one value, or one per row of S.

    Rows join width at a time, in row order, one stage per iteration (all
    at once when width is None).  Each iteration linearizes and solves the
    active rows with _solve_blocks.  Each row runs the iteration it
    would run alone: it stops once r <= tol * scale (for a potential,
    max|dW/ds| <= tol * sum|terms|) after at least min_steps steps of its
    own, it fails when its Jacobian (the Hessian) is singular or
    after maxit steps of its own (NEWTON_MAXIT when None; the last step is
    not tested), and each step is shortened to STEP_CAP in the max norm.
    Returns (S, res, converged, singular): the final rows, the relative
    residuals (nan where not converged) and two boolean masks.

    stop, if given, is called as stop(S, rows, drift) with the rows that
    converged in an iteration, in row order, and the max norm of the Newton
    step at each (inf where it cannot be solved); when it returns True no
    row takes another step.  stats, if a dict, receives row_steps (rows
    evaluated, summed over iterations), widest (the most rows active in
    one iteration, evaluated ROW_BLOCK at a time), longest (the most steps
    one row took) and not_converged (rows that ran out of steps).
    """
    maxit = NEWTON_MAXIT if maxit is None else maxit
    S = np.array(S, dtype=complex)
    at = np.broadcast_to(at, len(S))
    res = np.full(len(S), np.nan)
    converged = np.zeros(len(S), bool)
    singular = np.zeros(len(S), bool)
    age = np.zeros(len(S), int)  # steps taken by each row
    width = width or len(S)
    active, joined, row_steps, widest = np.arange(0), 0, 0, 0
    while joined < len(S) or active.size:
        active = np.concatenate([active, np.arange(joined, min(joined + width, len(S)))])
        joined += width
        row_steps, widest = row_steps + len(active), max(widest, len(active))
        # one solve for every row: at a converged row the step is its drift
        step, ok, scale, r = _solve_blocks(system, S, active, at)
        done = (r <= tol * scale) & (age[active] >= min_steps)
        converged[active[done]] = True
        res[active[done]] = r[done] / scale[done]
        if stop is not None and done.any():
            drift = np.where(ok[done], np.abs(step[done]).max(axis=1), np.inf)
            if stop(S, active[done], drift):
                break
        active, step, ok = active[~done], step[~done], ok[~done]
        singular[active[~ok]] = True
        active, step = active[ok], step[ok]
        norm = np.abs(step).max(axis=1)
        S[active] -= step * (STEP_CAP / np.maximum(norm, STEP_CAP))[:, None]
        age[active] += 1
        active = active[age[active] < maxit]
    if stats is not None:
        stats.update(row_steps=row_steps, widest=widest, not_converged=int((age == maxit).sum()))
        stats["longest"] = int(age.max(initial=0))
    return S, res, converged, singular


def _start_grid(pot, T, seed=0):
    """Deterministic starts, a (B, N) array: magnitudes T^u over the
    interior point and the vertices of the polytope, sixth-root phases.
    Subsampled reproducibly when the full grid is too large: fewer phases
    per magnitude, drawn from random.Random(seed), and past MAX_STARTS
    magnitudes one start each at an even stride over the whole list.
    The rows are ordered by phase draw: rows d M .. (d + 1) M - 1 are draw
    d of each of the M magnitudes, so every block of M covers the whole
    polytope."""
    poly = pot.poly
    mags = np.array(
        [poly.interior_point()] + [v for v, _ in poly.vertices()], dtype=float
    )
    N = pot.N
    if len(mags) > MAX_STARTS:
        mags = mags[np.arange(MAX_STARTS) * len(mags) // MAX_STARTS]
    if len(mags) * min(6**N, 6 * N) > MAX_STARTS:
        draws = MAX_STARTS // len(mags)
    elif 6**N <= 64:
        draws = None  # every phase combination
    else:
        draws = 6 * N
    if draws is None:
        picks = (np.arange(6**N)[:, None] // 6 ** np.arange(N) % 6)[None]
    else:
        picks = random.Random(seed).choices(range(6), k=len(mags) * draws * N)
        picks = np.reshape(picks, (len(mags), draws, N))
    phases = 2j * np.pi * np.arange(6) / 6
    return (mags * np.log(T) + phases[picks.swapaxes(0, 1)]).reshape(-1, N)


def _order_key(y):
    """Sort key of a point: |y_k|, then arg y_k, rounded to 6 places.  An
    argument that rounds to -pi counts as pi, so a negative real coordinate
    does not sort by the sign of a rounding-level imaginary part."""
    arg = np.round(np.angle(y), 6)
    arg[arg == -round(np.pi, 6)] = round(np.pi, 6)
    return tuple(np.round(np.abs(y), 6)) + tuple(arg)


def _same(A, Y, SA=None, SY=None):
    """(len(A), len(Y)) mask of the pairs of a row of A and a row of Y that
    are one point: within DEDUP_TOL of each other in every coordinate,
    relative to the larger of their scales SA and SY there.  The scales
    are |A| and |Y| by default, since at small T the sizes of the
    coordinates differ by many orders of magnitude; a column of row max
    norms compares at the row scale.  Filled ROW_BLOCK rows of A at a
    time, so the complex and float temporaries are (ROW_BLOCK, len(Y))."""
    SA = np.abs(A) if SA is None else np.broadcast_to(SA, A.shape)
    SY = np.abs(Y) if SY is None else np.broadcast_to(SY, Y.shape)
    same = np.ones((len(A), len(Y)), bool)
    for a, y, sa, sy in zip(A.T, Y.T, SA.T, SY.T):
        for b in range(0, len(A), ROW_BLOCK):
            block = slice(b, b + ROW_BLOCK)
            same[block] &= np.abs(a[block, None] - y) <= DEDUP_TOL * np.maximum(sa[block, None], sy)
    return same


# ---------------------------------------------------------------------------
# the level set D = 0 by homotopy, and its lift to the GC chart; A and
# D_i are the Lax matrix and Hamiltonians of gcflag.toda


class _Homotopy:
    """H = t gamma G + (1 - t) F in z = (p_1, ..., p_{n-1}), where
    p_0 = -(p_1 + ... + p_{n-1}) makes D_1 = 0.  F = (D_2, ..., D_n) at the
    couplings q, and G is the same at q = 0 with det(A + xI) = x^n - 1:
    G = (e_2, ..., e_{n-1}, e_n + 1) of p, whose n! roots are the orderings
    of minus the n-th roots of unity.  G has the degrees 2..n of F and the
    same leading forms, so no path meets infinity at any t."""

    def __init__(self, q, gamma):
        n = len(q) + 1
        k = np.arange(n + 1)
        self.gamma = gamma
        # one recurrence for four determinants det(A + xI): of A and of A
        # in reverse order (its trailing minors), at q and at q = 0
        self.q = np.zeros((4, n - 1, 1, 1))
        self.q[:2, :, 0, 0] = q, q[::-1]
        self.roots = np.exp(2j * np.pi * k / (n + 1))
        self.dft = np.exp(-2j * np.pi * np.outer(k, k) / (n + 1)) / (n + 1)

    def _toda(self, Z):
        """(F, G) (2, B, n-1) and their z-Jacobians (2, B, n-1, n-1) at the
        rows of Z.

        det(A + xI) is evaluated at the n + 1 roots of unity by the
        recurrence of toda.toda_hamiltonians, and the inverse DFT (dft, the
        conjugate over n + 1) reads off its coefficients.  d/dp_j of it
        is the leading minor of size j times the trailing minor below row
        j."""
        n = Z.shape[1] + 1
        p = np.concatenate([-Z.sum(axis=1, keepdims=True), Z], axis=1)
        d = np.stack([p, p[:, ::-1]] * 2)[..., None] + self.roots  # (4, B, n, n + 1)
        lead = np.ones((n + 1,) + d[:, :, 0].shape, complex)  # lead[k]: the first k rows
        lead[1] = d[:, :, 0]
        for k in range(2, n + 1):
            lead[k] = d[:, :, k - 1] * lead[k - 1] + self.q[:, k - 2] * lead[k - 2]
        c = (lead[n, ::2] @ self.dft)[..., n - 2 :: -1]  # D_2..D_n: D_i is the coefficient of x^{n-i}
        c[1, :, -1] += 1  # e_n + 1
        dp = (lead[:n, ::2] * lead[n - 1 :: -1, 1::2]) @ self.dft  # (n, 2, B, n + 1): d/dp_j
        return c, (dp[1:] - dp[0])[..., n - 2 :: -1].transpose(1, 2, 3, 0)

    def linearize(self, Z, t, tangent=False):
        """H = 0 at a block of rows Z, each at its own t (a column), for
        _solve_blocks: J, the z-Jacobian of H, H or, with tangent, F - gamma
        G, whose solution is dz/dt, and the max norm of each row.  No
        residual, so _solve_blocks tests the step: the terms of H cancel too
        deeply near clustered points for a test on |H| to place a point."""
        (F, G), (dF, dG) = self._toda(Z)
        J = (1 - t)[..., None] * dF + (t * self.gamma)[..., None] * dG
        return J, F - self.gamma * G if tangent else t * self.gamma * G + (1 - t) * F, np.abs(Z).max(axis=1), None


def toda_solutions(lam, T, seed=0, stats=None):
    """The momenta p (n!, n) of the n! points of the Toda level set
    D_1 = ... = D_n = 0 at the couplings q_i = exp(l_{i+1} - l_i), where
    l = -log T lam: the potential at (T, lam) is the potential at
    (e^-1, l) in the same log coordinates.

    The level set has exactly n! points and none at infinity, so the
    homotopy _Homotopy, whose start system has n! roots and the leading
    forms of F, reaches each one (Sommese & Wampler, 2005); gamma, a unit
    complex, keeps the paths apart for t in (0, 1].  _track carries the
    paths from t = 1 to 0, its corrector stopping at HOMOTOPY_TOL, and
    _newton polishes their ends at t = 0 to NEWTON_TOL.  The paths are
    tracked once, with the first gamma that random.Random(seed) draws.
    If a path is lost, or two paths end at one point (_same at the row
    scale: one jumped onto another), RuntimeError says which, and
    critical_points goes round the real axis to T from balanced
    couplings.  stats, if a dict, receives paths, and the steps and
    rejections summed over the paths."""
    n = len(lam)
    l = -_log_T(T) * np.asarray(lam, dtype=float)
    # D_i is homogeneous of degree i when p has weight 1 and q weight 2, so
    # the homotopy solves for p / sigma at q / sigma^2, whose points are of
    # the size of G's roots: with q small they would crowd together near 0
    sigma = np.exp((l[-1] - l[0]) / (2 * (n - 1)))
    starts = -np.array(list(permutations(np.exp(2j * np.pi * np.arange(n) / n))))[:, 1:]
    homotopy = _Homotopy(np.exp(np.diff(l)) / sigma**2, np.exp(2j * np.pi * random.Random(seed).random()))
    track = dict(steps=0, rejected=0)
    try:
        # no forced corrector step: at n = 2 the path is constant, and a
        # step of rounding size would exceed its zero predicted move
        Z = _track(homotopy, starts, 1.0, (0.0,), HOMOTOPY_TOL, 0, track)[0]
    except RuntimeError as exc:
        raise RuntimeError("the Toda homotopy at T = %g lost a path in t: %s" % (T, exc)) from None
    Z = _newton(homotopy, Z, 0.0, NEWTON_TOL)[0]
    # at the row scale: a coordinate near 0 would part two copies
    norm = np.abs(Z).max(axis=1, keepdims=True)
    meet = _same(Z, Z, norm, norm)
    np.fill_diagonal(meet, False)
    if meet.any():
        raise RuntimeError("two paths of the Toda homotopy at T = %g met" % T)
    if stats is not None:
        stats.update(paths=len(Z), homotopy_steps=track["steps"], homotopy_rejected=track["rejected"])
    return sigma * np.concatenate([-Z.sum(axis=1, keepdims=True), Z], axis=1)


def toda_lift(p, lam, T):
    """The points of the GC chart of the full flag whose boundary gradients
    are the rows of p, solutions of D = 0 from toda_solutions.  Returns
    (S, inside): log coordinates s = log y in free_positions order, and
    the rows that lie in the torus.

    With E_ij = exp(T_ij), l = -log T lam on the boundary E_{i,n-i+1},
    X(i, j) = E_ij / E_{i,j+1} and Y(i, j) = E_{i+1,j} / E_ij, the boundary
    gradients g_m = p_{m-1}, m = 1..n-1, give X(m, n-m) = Y(m-1, n-m+1) -
    p_{m-1}; then, anti-diagonal by anti-diagonal inwards, the critical
    equation at (i, j), j >= 2, gives X(i, j-1) = X(i, j) + Y(i-1, j) -
    Y(i, j).  Y(0, .) is absent.  A row lies outside the torus when one of
    these sums cancels to TORUS_TOL of its terms: that entry is zero.
    s_a = -log E_ij at a = (i+j-1, i), the order of toda.gc_to_toda."""
    from .flags import FlagType
    from .polytopes import free_positions

    n, l = len(lam), -_log_T(T) * np.asarray(lam, dtype=float)
    E = {(i, n - i + 1): np.full(len(p), np.exp(l[i - 1]), complex) for i in range(1, n + 1)}
    zero = np.zeros(len(p), bool)

    def Y(i, j):
        return E[i + 1, j] / E[i, j] if i else 0.0

    def put(i, j, terms):
        """E_ij = E_{i,j+1} X(i, j), where X(i, j) is the sum of terms."""
        nonlocal zero
        x = sum(terms)
        zero |= ~(np.abs(x) > TORUS_TOL * sum(np.abs(term) for term in terms))
        E[i, j] = E[i, j + 1] * x

    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, n):
            put(m, n - m, (Y(m - 1, n - m + 1), -p[:, m - 1]))
        for s in range(n - 1, 1, -1):
            for i in range(1, s):
                j = s - i + 1
                put(i, j - 1, (E[i, j] / E[i, j + 1], Y(i - 1, j), -Y(i, j)))
        S = -np.log(np.array([E[i, k - i + 1] for k, i in free_positions(FlagType.full(n))]).T)
    return S, ~zero & np.isfinite(S).all(axis=1)


def critical_points(pot, T, seed=0, stats=None):
    """All isolated critical points at fixed T in the torus, sorted by
    _order_key, by one of two routes.

    On a full flag they are the n! points of the Toda level set D = 0
    (toda_solutions, one homotopy whose gamma random.Random(seed)
    picks), lifted to the GC chart (toda_lift).  A point of D = 0
    whose lift has no zero entry is a critical point, and every critical
    point in the torus is one; the others lie outside the torus and are
    dropped.  If the homotopy fails at T (RuntimeError: a lost path, or
    two ends that meet), or none of its ends lifts into the torus, where
    the positive real minimum always lies, one more homotopy runs at
    T0 = exp(-1 / max gap of lam), where every coupling lies in
    [1/e, 1), and _track carries the torus points to T round the real
    axis; if that one fails too, its RuntimeError names T0.  One _newton
    call polishes the torus points.  The homotopy's ends are distinct, so
    every row must converge and no two may be one point (_same): points +
    outside_torus = n! is checked, and RuntimeError says how many rows
    fail it.  On a partial flag the points are those of
    grid_critical_points.

    If stats is a dict it receives, on a partial flag, what
    grid_critical_points reports.  On a full flag it receives starts and
    paths, both n!; outside_torus, the paths whose lift has a zero entry;
    points, the number returned; _newton's row_steps, widest, longest and
    not_converged; homotopy_steps and homotopy_rejected, the homotopy's
    steps and rejections summed over the paths; and carry_steps and
    carry_rejected those of the carry from T0, both 0 when the homotopy
    ran at T.
    """
    if not pot.flag.is_full():
        return grid_critical_points(pot, T, seed=seed, stats=stats)

    logT = _log_T(T)
    lam = [float(x) for x in pot.lam]
    homotopy, carry, T0 = {}, dict(steps=0, rejected=0), T
    try:
        S, inside = toda_lift(toda_solutions(lam, T0, seed=seed, stats=homotopy), lam, T0)
        if not inside.any():
            # the positive real minimum always lies in the torus
            raise RuntimeError("no end of the homotopy lifts into the torus")
    except RuntimeError:
        # couplings many orders apart, whose clustered paths the
        # homotopy loses or merges, or whose ends the lift cannot place
        T0 = np.exp(-1 / max(-np.diff(lam)))
        S, inside = toda_lift(toda_solutions(lam, T0, seed=seed, stats=homotopy), lam, T0)
    S = S[inside]
    if T0 != T:
        a = np.log(T0)
        S = _track(pot, S, a, [(a + logT) / 2 + 1j * DETOUR, logT], VALUATION_TOL, 1, carry)[-1]
    newton = {}
    S, res, converged, _ = _newton(pot, S, logT, stats=newton)
    Y = np.exp(S)
    same = _same(Y, Y)
    np.fill_diagonal(same, False)
    failed = int((~converged | same.any(axis=1)).sum())
    if failed:
        raise RuntimeError("%d of %d torus points did not converge or are one point with another" % (failed, len(S)))
    if stats is not None:
        stats.update(starts=len(inside), outside_torus=int((~inside).sum()), points=len(S), **newton, **homotopy)
        stats.update(carry_steps=carry["steps"], carry_rejected=carry["rejected"])
    return _points(pot, S, T, logT, res)


def grid_critical_points(pot, T, seed=0, stats=None):
    """The critical points found by multi-start Newton from _start_grid at
    fixed T, sorted by _order_key: the route of critical_points on partial
    flags, and on full flags the oracle of the Toda route, since it never
    reads D = 0.

    The starts join _newton one phase draw per iteration: draw d of the
    interior point and of every vertex, so each block covers the whole
    polytope.  The starts that converge in an iteration are filtered right
    away, in row order: the magnitude box, the drift check and the dedup.
    Newton stops as soon as it holds cohomology_rank(pot.flag) distinct
    points, the rank of H*(flag) and the count mirror symmetry predicts;
    short of that rank every start runs to convergence or NEWTON_MAXIT
    steps.

    If stats is a dict it receives the number of starts, how many
    converged, and why the others gave no point: singular (a singular
    Hessian stopped Newton), not_converged (no convergence in
    NEWTON_MAXIT steps), unfinished (still running, or not yet joined,
    when the rank was reached), outside_box, drifting (the Newton step at
    the limit exceeds DRIFT_TOL, or cannot be solved) and duplicate (a
    point found, or one past the rank); points is the number returned.  Those seven counts add up to starts.
    It also receives the Newton work: row_steps, the rows evaluated
    summed over iterations, widest, the most rows active in one
    iteration, and longest, the most steps one row took.
    """
    logT = _log_T(T)
    rank = cohomology_rank(pot.flag)
    # magnitude box: genuine critical points have valuations in the
    # polytope, so log|y_k| stays within the coordinate range of the
    # polytope; Newton runaways along collapse loci (where subsets of
    # terms cancel and the residual test passes relative to a huge term
    # scale) drift outside it
    verts = np.array([v for v, _ in pot.poly.vertices()], dtype=float)
    slack = 0.5 * abs(logT) + 1.0
    lo, hi = verts.max(axis=0) * logT - slack, verts.min(axis=0) * logT + slack  # logT < 0 flips the range
    starts = _start_grid(pot, T, seed=seed)
    found, Y = [], np.zeros((0, pot.N), complex)  # rows and values of the distinct points
    rejected = dict(outside_box=0, drifting=0)

    def admit(S, rows, drift):
        """Filter the rows that just converged; True once rank points are found."""
        nonlocal Y
        inbox = ~((S[rows].real < lo).any(axis=1) | (S[rows].real > hi).any(axis=1))
        rejected["outside_box"] += int((~inbox).sum())
        rows, drift = rows[inbox], drift[inbox]
        # drift check: at a genuine isolated point the Newton step is at
        # rounding level; in a flat valley it stays order one
        steady = ~(drift > DRIFT_TOL)
        rejected["drifting"] += int((~steady).sum())
        rows = rows[steady]
        # one comparison with the points already found, then the dedup of
        # the rest one by one, up to the rank
        for row in rows[~_same(np.exp(S[rows]), Y).any(axis=1)]:
            y = np.exp(S[row])
            if len(found) < rank and not _same(y[None], Y).any():
                found.append(row)
                Y = np.vstack([Y, y])
        return len(found) >= rank

    # one block per phase draw: as many rows as magnitudes, which are the
    # interior point and the vertices, or one row each past MAX_STARTS
    newton = {}
    S, res, converged, singular = _newton(pot, starts, logT, stop=admit, width=min(len(verts) + 1, len(starts)), stats=newton)
    if stats is not None:
        n_conv, n_sing = int(converged.sum()), int(singular.sum())
        stats.update(
            starts=len(S),
            converged=n_conv,
            singular=n_sing,
            unfinished=len(S) - n_conv - n_sing - newton["not_converged"],
            **rejected,
            duplicate=n_conv - sum(rejected.values()) - len(found),
            points=len(found),
            **newton,  # not_converged, row_steps, widest and longest
        )
    return _points(pot, S[found], T, logT, res[found])


def hessian_nondegenerate(pot, T, y):
    """Singular-value test of the logarithmic Hessian at a critical point
    (_nondegenerate).  Returns (nondegenerate, det).  Raises ValueError unless
    max|dW/ds| <= CRITICAL_TOL * sum|terms| at y, so a y with a zero,
    infinite or nan coordinate is refused."""
    logT = _log_T(T)
    E, G, H = _derivatives(pot, np.log(np.asarray(y, dtype=complex))[None, :], logT)
    scale = np.abs(E).sum()
    if not np.abs(G).max() <= CRITICAL_TOL * scale:
        raise ValueError("input is not a critical point")
    return bool(_nondegenerate(H)[0]), np.linalg.det(H[0])


def _track(system, S, at, targets, tol, min_steps, stats):
    """The one path tracker: continue the rows of S, solutions of system
    at the parameter at, through each of targets in turn, and return the
    rows at each, a (len(targets), B, N) array.  The valuations track a
    LaurentPotential in log T, the Toda homotopy its paths in t.  The
    tangent dS/dat and the corrector's Newton steps both come from
    _solve_blocks, which reads system.linearize at one parameter per row.

    Each row keeps its own parameter and step h.  The predictor is the
    cubic Hermite through the row's last two accepted points and their
    tangents (the tangent alone at first), exact on a line such as
    log y = u log T + c.  The corrector is _newton to tol, with at least
    min_steps and at most TRACK_MAXIT steps.  A step is rejected, and h
    halved, where the corrector fails, moves the row more than
    CORRECTION_RATIO times its predicted move, or leaves no tangent; h
    doubles after a correction of at most TRACK_EASY times that move.
    Steps of h run straight toward each target, real or complex, landing
    on it from within h; a row already on one lands without a step.
    stats["steps"] and stats["rejected"] count the row steps tried and
    rejected.  A row whose h falls below TRACK_MIN_STEP has lost its
    branch: RuntimeError names the row, its last accepted parameter and h.
    """
    S = np.array(S, dtype=complex)
    targets = np.asarray(targets)
    at, h = np.full(len(S), at, targets.dtype), np.full(len(S), TRACK_FIRST_STEP)
    goal = np.zeros(len(S), int)  # the index of each row's next target
    ends = np.empty((len(targets),) + S.shape, complex)
    dS, ok = _solve_blocks(system, S, np.arange(len(S)), at, tangent=True)[:2]
    h[~ok] = 0.0  # a row without a tangent cannot move
    # each row's accepted point before its current one, for the cubic
    at0, S0, dS0 = np.full(len(S), np.nan, targets.dtype), S.copy(), dS.copy()
    active = np.arange(len(S))
    while True:
        landed = active[at[active] == targets[goal[active]]]
        ends[goal[landed], landed] = S[landed]
        goal[landed] += 1
        active = active[goal[active] < len(targets)]
        if not active.size:
            return ends
        lost = active[h[active] < TRACK_MIN_STEP]
        if lost.size:
            row = lost[0]
            raise RuntimeError("continuation lost the branch of row %d at %s, step h = %.3g" % (row, format(at[row], ".6g"), h[row]))
        t = targets[goal[active]]
        gap = t - at[active]
        far = np.abs(gap) > h[active]
        t[far] = at[active[far]] + h[active[far]] * (gap[far] / np.abs(gap[far]))
        predicted = S[active] + (t - at[active])[:, None] * dS[active]
        cubic = ~np.isnan(at0[active])
        two = active[cubic]
        u = (at[two] - at0[two])[:, None]
        x = (t[cubic, None] - at0[two, None]) / u
        predicted[cubic] = (
            (2 * x**3 - 3 * x**2 + 1) * S0[two] + (x**3 - 2 * x**2 + x) * u * dS0[two]
            + (3 * x**2 - 2 * x**3) * S[two] + (x**3 - x**2) * u * dS[two]
        )
        # _newton does not test a row after its last step, so the corrector
        # gets one step more than TRACK_MAXIT for the TRACK_MAXIT-th to count
        C, _, converged, _ = _newton(system, predicted, t, tol, maxit=TRACK_MAXIT + 1, min_steps=min_steps)
        moved, corrected = np.abs(predicted - S[active]).max(axis=1), np.abs(C - predicted).max(axis=1)
        good = converged & (corrected <= CORRECTION_RATIO * moved)
        X, ok = _solve_blocks(system, C, np.flatnonzero(good), t, tangent=True)[:2]
        good[good] = ok
        stats["steps"] += len(active)
        stats["rejected"] += int((~good).sum())
        h[active[~good]] /= 2
        h[active[good & (corrected <= TRACK_EASY * moved)]] *= 2
        done = active[good]
        at0[done], S0[done], dS0[done] = at[done], S[done], dS[done]
        S[done], at[done], dS[done] = C[good], t[good], X[ok]


def critical_valuation(pot, points, stats=None):
    """Estimate v(y_k) by continuation of branches to small T.

    points is one CriticalPoint or a sequence of points that share their
    T.  _track continues each branch on its own steps from T through
    VALUATION_LADDER on the real axis or, if that loses a branch, round
    it, and log|y_k| is fit against log T.  The valuation
    and the fit residual are stored on each point.  Returns the valuation
    vector of a single point, or a (len(points), N) array.  Raises
    RuntimeError if a branch is lost (the error names its row, its last
    log T and its step h) or if two branches distinct at T are one point
    (_same) at a T of the ladder: one jumped onto the other.

    If stats is a dict it receives the tracker's steps and rejected,
    summed over the branches and both paths.
    """
    single = isinstance(points, CriticalPoint)
    pts = [points] if single else list(points)
    if not pts:
        return np.zeros((0, pot.N))
    T = pts[0].T
    if any(p.T != T for p in pts):
        raise ValueError("points must share their T")
    stats = {} if stats is None else stats
    stats.update(steps=0, rejected=0)
    Y = np.array([p.y for p in pts], dtype=complex)
    # at least one corrector step at every row: a predicted point that
    # already passed the residual test moved valuations at anticanonical
    # n = 6 by 8e-8, and carried (6,3,-1,-5) past its pole at log T = -ln 4
    ladder = np.log(VALUATION_LADDER)
    try:
        ends = _track(pot, np.log(Y), np.log(T), ladder, VALUATION_TOL, 1, stats)
    except RuntimeError:
        # a branch met a pole on the real axis: go round it to the ladder
        detour = [(np.log(T) + ladder[0]) / 2 + 1j * DETOUR, *ladder]
        ends = _track(pot, np.log(Y), np.log(T), detour, VALUATION_TOL, 1, stats)[1:]
    distinct = ~_same(Y, Y)
    for ladder_T, end in zip(VALUATION_LADDER, np.exp(ends)):
        if (distinct & _same(end, end)).any():
            raise RuntimeError("two branches met at T = %g" % ladder_T)
    samples = ends.real.reshape(len(VALUATION_LADDER), -1)
    # least squares of log|y| = slope log T + c over the ladder, in closed
    # form on the mean-centred log T and samples
    x = ladder - ladder.mean()
    centred = samples - samples.mean(axis=0)
    slope = x @ centred / (x @ x)
    vals = slope.reshape(len(pts), pot.N)
    sq = ((centred - np.outer(x, slope)) ** 2).sum(axis=0)
    resid = np.sqrt(sq.reshape(len(pts), pot.N).sum(axis=1))
    for p, val, r in zip(pts, vals, resid):
        p.valuation = val
        p.valuation_residual = float(r)
    return vals[0] if single else vals


def positive_real_minimum(pot, T):
    """The critical point in the positive orthant, where W is convex in log
    coordinates: one real row of _newton from the interior point, to MINIMUM_TOL.
    Raises RuntimeError if it does not converge.  Like critical_points it
    sets no valuation; critical_valuation does."""
    logT = _log_T(T)
    center = np.array([float(x) for x in pot.poly.interior_point()])
    S, res, converged, _ = _newton(pot, center[None, :] * logT, logT, tol=MINIMUM_TOL)
    if not converged[0]:
        raise RuntimeError("Newton did not reach the positive real minimum")
    return _points(pot, S, T, logT, res)[0]


def cohomology_rank(flag):
    """n! / (k_1! ... k_{r+1}!), the rank of the cohomology of the flag."""
    rank = factorial(flag.n)
    for k in flag.block_sizes:
        rank //= factorial(k)
    return rank

