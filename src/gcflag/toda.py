"""Classical Toda-lattice side of the mirror correspondence.

The tridiagonal Lax matrix A (diagonal p_0..p_{n-1}, superdiagonal
q_1..q_{n-1}, subdiagonal -1) has commuting Hamiltonians D_i read off
from det(A + xI) = x^n + sum_i D_i x^{n-i}.  The phase function
f_q = sum (X_ij + Y_ij) on the torus Y_q coincides with the potential
function at T = e^{-1} under a linear change of variables on the
triangular T-coordinates, and at critical points the momenta
p_i = df/dt_i land on the level set D_2 = ... = D_n = 0.
"""

import math
from collections import namedtuple
from fractions import Fraction

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
    M_m = (p_{m-1} + x) M_{m-1} + q_{m-1} M_{m-2}, exactly when the inputs
    are exact (Fractions or ints), in floating point otherwise.
    """
    p, q = state.p, state.q
    n = len(p)
    one = Fraction(1) if _exact(p) and _exact(q) else 1.0
    # polynomials in x as coefficient lists, constant term first
    prev2 = [one]  # M_0 = 1
    prev1 = [p[0] * one, one]  # M_1 = p_0 + x
    for m in range(2, n + 1):
        cur = _poly_add(
            _poly_mul_linear(prev1, p[m - 1] * one),
            _poly_scale(prev2, q[m - 2] * one),
        )
        prev2, prev1 = prev1, cur
    coeffs = prev1 if n >= 1 else prev2
    # coeffs[k] multiplies x^k; D_i is the coefficient of x^{n-i}
    return tuple(coeffs[n - i] for i in range(1, n + 1))


def _exact(vals):
    return all(isinstance(v, (int, Fraction)) for v in vals)


def _poly_mul_linear(poly, c):
    """(x + c) * poly."""
    out = [c * a for a in poly] + [0 * poly[0]]
    for k, a in enumerate(poly):
        out[k + 1] += a
    return out


def _poly_scale(poly, c):
    return [c * a for a in poly]


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, x in enumerate(b):
        out[k] += x
    return out


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


def phase_term_count(n):
    return n * (n - 1)


def gc_to_toda(x, u, lam, flag=None):
    """Triangular T-coordinates with T_{ij} = u^{(i+j-1)}_i - x^{(i+j-1)}_i.

    x and u are coordinate vectors in the standard order (pattern rows top
    down), real or complex; the boundary entries are T_{i,n-i+1} = lambda_i.
    Full flags only: the change of variables needs every pattern entry free.
    """
    from .flags import FlagType
    from .polytopes import free_positions

    n = len(lam)
    if flag is None:
        flag = FlagType.full(n)
    if not flag.is_full():
        raise ValueError("the Toda correspondence needs a full flag")
    coords = free_positions(flag)
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


def momenta(pc):
    """P_i = q_i df/dq_i recovered from the lambda-gradients.

    log q_i = lambda_{i+1} - lambda_i gives g_m = P_{m-1} - P_m, so the
    partial sums telescope: P_m = -(g_1 + ... + g_m).
    """
    g = boundary_gradients(pc)
    return -np.cumsum(g)[:-1]


def level_set_check(pot, T=math.exp(-1), seed=0):
    """Evaluate the Toda Hamiltonians at every critical point of the potential.

    The Lax diagonal holds the momenta of Givental-Kim's quantum Toda
    lattice (Comm. Math. Phys. 168, 1995), p_i = df/dt_i = g_{i+1}, the
    symbol of hbar d/dt_i: q_i = e^{t_i - t_{i-1}} pins t_i to
    lambda_{i+1}, and D_1 = sum g = 0 holds identically.  The report lists
    per point the residual max_i |D_i|, i >= 2, and all of D.
    """
    from .potential import critical_points

    if not pot.flag.is_full():
        raise ValueError("the Toda correspondence needs a full flag")
    if abs(T - np.exp(-1)) > 1e-12:
        raise ValueError("the change of variables is stated at T = e^{-1}")
    lam = [float(x) for x in pot.lam]
    q = tuple(np.exp(lam[i] - lam[i - 1]) for i in range(1, len(lam)))
    report = []
    for cp in critical_points(pot, T, seed=seed):
        s = np.log(cp.y.astype(complex))
        # T_{ij} = u_{ij} - x_{ij} = -log y_{ij} at T = e^{-1}
        pc = gc_to_toda(s, np.zeros_like(s), lam)
        D = toda_hamiltonians(TodaState(p=tuple(boundary_gradients(pc)), q=q))
        report.append(
            {
                "y": cp.y,
                "residual": float(max(abs(d) for d in D[1:])),
                "D": [complex(d) for d in D],
            }
        )
    return report
