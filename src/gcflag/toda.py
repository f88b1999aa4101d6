"""Classical Toda-lattice side of the mirror correspondence.

The tridiagonal Lax matrix A (diagonal p_0..p_{n-1}, superdiagonal
q_1..q_{n-1}, subdiagonal -1) has commuting Hamiltonians D_i read off
from det(A + xI) = x^n + sum_i D_i x^{n-i}.  The phase function
f_q = sum (X_ij + Y_ij) on the torus Y_q coincides with the potential
function at T = e^{-1} under a linear change of variables on the
triangular T-coordinates, and at critical points the momenta
p_i = df/dt_i land on the level set D_2 = ... = D_n = 0.

On a full flag the converse gives the critical points of the potential:
toda_solutions finds all n! points of the level set by one total-degree
homotopy, and toda_lift rebuilds from each the point of the GC chart
whose boundary gradients it is, or finds that it lies outside the torus.
"""

import itertools
import math
import random
from collections import namedtuple

from ._lazy import lazy

np = lazy("numpy")


class TodaState(namedtuple("TodaState", "p q")):
    """Momenta p = (p_0, ..., p_{n-1}) and couplings q = (q_1, ..., q_{n-1})."""

    __slots__ = ()

    def __new__(cls, p, q):
        if len(q) != len(p) - 1:
            raise ValueError("need len(q) = len(p) - 1")
        return super().__new__(cls, p, q)


def toda_hamiltonians(state):
    """Coefficients (D_1, ..., D_n) of det(A + xI) = x^n + sum D_i x^{n-i}.

    Computed by the leading-principal-minor recurrence
    M_m = (p_{m-1} + x) M_{m-1} + q_{m-1} M_{m-2} in the arithmetic of the
    inputs: exact for ints and Fractions, floating for floats and complex.
    """
    p, q = state.p, state.q
    # M_{m-1} and M_m, constant term first; M_{-1} = 0, so q_0 is never read
    prev, cur = [], [1]
    for m, c in enumerate(p):
        nxt = [c * a for a in cur] + [0]
        for k, a in enumerate(cur):
            nxt[k + 1] += a
        for k, a in enumerate(prev):
            nxt[k] += q[m - 1] * a
        prev, cur = cur, nxt
    # cur[k] multiplies x^k; D_i is the coefficient of x^{n-i}
    return tuple(cur[-2::-1])


# ---------------------------------------------------------------------------
# phase coordinates


class PhaseCoordinates(namedtuple("PhaseCoordinates", "n T")):
    """Triangular array T_{ij}, rows i = 1..n, with T_{i,n-i+1} = lambda_i;
    T maps (i, j) to the value, j = 1..n-i+1."""

    __slots__ = ()

    def __new__(cls, n, T):
        want = {(i, j) for i in range(1, n + 1) for j in range(1, n - i + 2)}
        if set(T) != want:
            raise ValueError("T must be defined exactly on the triangle")
        return super().__new__(cls, n, T)

    @property
    def lam(self):
        return tuple(self.T[(i, self.n - i + 1)] for i in range(1, self.n + 1))

    def X(self, i, j):
        return np.exp(self.T[(i, j)] - self.T[(i, j + 1)])

    def Y(self, i, j):
        return np.exp(self.T[(i + 1, j)] - self.T[(i, j)])

    def q(self):
        lam = self.lam
        return tuple(np.exp(lam[i] - lam[i - 1]) for i in range(1, self.n))


def phase_function(pc):
    """f_q = sum of all X_{ij} and Y_{ij}; n(n-1) terms in total."""
    total = 0.0
    for i in range(1, pc.n):
        for j in range(1, pc.n - i + 1):
            total += pc.X(i, j) + pc.Y(i, j)
    return total


def gc_to_toda(x, u, lam):
    """Triangular T-coordinates with T_{ij} = u^{(i+j-1)}_i - x^{(i+j-1)}_i.

    x and u are real or complex coordinate vectors of the full flag of
    n = len(lam), in free_positions order; the change of variables needs
    every pattern entry free.  The boundary entries are T_{i,n-i+1} = lambda_i.
    """
    from .flags import FlagType
    from .polytopes import free_positions

    n = len(lam)
    coords = free_positions(FlagType.full(n))
    x = np.asarray(x)
    u = np.asarray(u)
    pos = {p: a for a, p in enumerate(coords)}
    T = {}
    for i in range(1, n + 1):
        for j in range(1, n - i + 2):
            if j == n - i + 1:
                T[(i, j)] = float(lam[i - 1])
            else:
                a = pos[(i + j - 1, i)]
                T[(i, j)] = u[a] - x[a]
    return PhaseCoordinates(n=n, T=T)


# ---------------------------------------------------------------------------
# level-set diagnostics


def boundary_gradients(pc):
    """g_m = df/dlambda_m with the interior T fixed.

    lambda_m appears in Y_{m-1, n-m+1} (positively) and X_{m, n-m}
    (negatively); the ends only carry one of the two terms.
    """
    n = pc.n
    out = []
    for m in range(1, n + 1):
        g = 0.0
        if m >= 2:
            g += pc.Y(m - 1, n - m + 1)
        if m <= n - 1:
            g -= pc.X(m, n - m)
        out.append(g)
    return np.array(out)


def level_set_check(pot, seed=0):
    """The Toda Hamiltonians at every critical point of the potential at T = e^{-1}.

    The Lax diagonal holds the momenta of Givental-Kim's quantum Toda
    lattice (Comm. Math. Phys. 168, 1995), p_i = df/dt_i = g_{i+1}, the
    symbol of hbar d/dt_i: q_i = e^{t_i - t_{i-1}} pins t_i to
    lambda_{i+1}, and D_1 = sum g = 0 holds identically.  The report lists
    per point the residual max_i |D_i|, i >= 2, and all of D.
    """
    from .potential import grid_critical_points

    if not pot.flag.is_full():
        raise ValueError("the Toda correspondence needs a full flag")
    report = []
    # the grid's points: points taken from D = 0 would land on it by construction
    for cp in grid_critical_points(pot, math.exp(-1), seed=seed):
        s = np.log(cp.y.astype(complex))
        # T_{ij} = u_{ij} - x_{ij} = -log y_{ij} at T = e^{-1}
        pc = gc_to_toda(s, np.zeros_like(s), pot.lam)
        D = toda_hamiltonians(TodaState(p=tuple(boundary_gradients(pc)), q=pc.q()))
        report.append(
            {
                "y": cp.y,
                "residual": float(max(abs(d) for d in D[1:])),
                "D": [complex(d) for d in D],
            }
        )
    return report


# ---------------------------------------------------------------------------
# the level set D = 0 by homotopy, and its lift to the GC chart


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
        recurrence of toda_hamiltonians, and the inverse DFT (dft, the
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

    def _solve(self, Z, rows, t, tangent=False):
        """At the given rows of Z, each at its own t: the Newton step J^-1 H
        or, with tangent, the tangent dz/dt = J^-1 (F - gamma G), J the
        z-Jacobian of H; and where it was solved (_solve_rows)."""
        from .potential import _solve_rows

        t = t[rows, None]
        (F, G), (dF, dG) = self._toda(Z[rows])
        J = (1 - t)[..., None] * dF + (t * self.gamma)[..., None] * dG
        return _solve_rows(J, F - self.gamma * G if tangent else t * self.gamma * G + (1 - t) * F)

    def newton_rows(self, Z, rows, t):
        """The Newton step at the given rows of Z, for _newton.  Returns
        (X, ok, scale, r) as _solve_blocks does, but r is the max norm of
        the step and scale that of the row: the terms of H cancel too
        deeply near clustered points for a test on |H| to place a point."""
        X, ok = self._solve(Z, rows, t)
        return X, ok, np.abs(Z[rows]).max(axis=1), np.where(ok, np.abs(X).max(axis=1), np.inf)

    def tangent_rows(self, Z, rows, t):
        """The tangent dz/dt at the given rows of Z, and where it was
        solved, for _track."""
        return self._solve(Z, rows, t, tangent=True)


def toda_solutions(lam, T, seed=0, stats=None):
    """The momenta p (n!, n) of the n! points of the Toda level set
    D_1 = ... = D_n = 0 at the couplings q_i = exp(l_{i+1} - l_i), where
    l = -log T lam: the potential at (T, lam) is the potential at
    (e^-1, l) in the same log coordinates.

    The level set has exactly n! points and none at infinity, so the
    homotopy _Homotopy, whose start system has n! roots and the leading
    forms of F, reaches each one (Sommese & Wampler, 2005); gamma, a unit
    complex, keeps the paths apart for t in (0, 1].  potential._track
    carries the paths from t = 1 to 0, its corrector stopping at
    HOMOTOPY_TOL, and _newton polishes their ends at t = 0 to NEWTON_TOL.
    If a path is lost, or two paths end at one point (_same at the row
    scale: one jumped onto another), every path is tracked again with the
    next gamma that random.Random(seed) draws, up to HOMOTOPY_GAMMAS
    draws; then RuntimeError, and critical_points goes round the real
    axis to T from balanced couplings.  stats, if a dict, receives paths,
    and the steps and rejections summed over every path tracked."""
    from .potential import HOMOTOPY_GAMMAS, HOMOTOPY_TOL, NEWTON_TOL, _log_T, _newton, _same, _track

    n = len(lam)
    l = -_log_T(T) * np.asarray(lam, dtype=float)
    # D_i is homogeneous of degree i when p has weight 1 and q weight 2, so
    # the homotopy solves for p / sigma at q / sigma^2, whose points are of
    # the size of G's roots: with q small they would crowd together near 0
    sigma = np.exp((l[-1] - l[0]) / (2 * (n - 1)))
    starts = -np.array(list(itertools.permutations(np.exp(2j * np.pi * np.arange(n) / n))))[:, 1:]
    track = dict(steps=0, rejected=0)
    draw = random.Random(seed).random
    for _ in range(HOMOTOPY_GAMMAS):
        homotopy = _Homotopy(np.exp(np.diff(l)) / sigma**2, np.exp(2j * np.pi * draw()))
        try:
            # no forced corrector step: at n = 2 the path is constant, and
            # a step of rounding size would exceed its zero predicted move
            Z = _track(homotopy, starts, 1.0, (0.0,), HOMOTOPY_TOL, 0, track)[0]
        except RuntimeError:
            continue  # a path was lost
        Z = _newton(homotopy, Z, 0.0, NEWTON_TOL)[0]
        # at the row scale: a coordinate near 0 would part two copies
        norm = np.abs(Z).max(axis=1, keepdims=True)
        meet = _same(Z, Z, norm, norm)
        np.fill_diagonal(meet, False)
        if not meet.any():
            break
    else:
        raise RuntimeError("homotopy lost a path, or two paths met, at each of %d gammas" % HOMOTOPY_GAMMAS)
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
    s_a = -log E_ij at a = (i+j-1, i), the order of gc_to_toda."""
    from .flags import FlagType
    from .polytopes import free_positions
    from .potential import TORUS_TOL, _log_T

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
