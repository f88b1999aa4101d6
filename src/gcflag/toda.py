"""Classical Toda-lattice side of the mirror correspondence.

The tridiagonal Lax matrix A (diagonal p_0..p_{n-1}, superdiagonal
q_1..q_{n-1}, subdiagonal -1) has commuting Hamiltonians D_i read off
from det(A + xI) = x^n + sum_i D_i x^{n-i}.  The phase function
f_q = sum (X_ij + Y_ij) on the torus Y_q coincides with the potential
function at T = e^{-1} under a linear change of variables on the
triangular T-coordinates, and at critical points the momenta
p_i = df/dt_i land on the level set D_2 = ... = D_n = 0, which
level_set_check tests on the grid's points.  The converse, the critical
points of a full flag from the level set by homotopy, is the full-flag
route of gcflag.potential.critical_points.
"""

import math
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
