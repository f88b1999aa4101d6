"""Toric degeneration combinatorics for flag manifolds.

Deformed Pluecker coordinates q_I(z, t) degenerate det z_I to its diagonal
monomial as t goes to 0; the integer weights 3^(i-j-1) below the diagonal
make the diagonal term the unique lowest-weight term.  One permutation
expansion serves q_I and its stagewise version in t_2..t_n, and refuses an
index outside 1..n or a repeated one.  The module also carries the limit
torus, its binomial relations, and the moment maps whose images fill the
Gelfand-Cetlin polytope; they refuse a lambda without n entries.
"""

import re
from collections import Counter, namedtuple
from functools import cache
from itertools import combinations, permutations

from ._lazy import lazy
from .flags import meet_join, normalize_index_set
from .polytopes import free_positions, is_pinned

np = lazy("numpy")


# ---------------------------------------------------------------------------
# weights


def _weight(i, j):
    """3^(i-j-1) below the diagonal, 0 on and above it and in row or column 0."""
    return 3 ** (i - j - 1) if 0 < j < i else 0


@cache
def _tables(n, stages):
    """Integer weight tables [i][j], 1-based: (w,) alone, or with `stages` one
    table per stage k = 2..n, whose rows i >= k hold w[k][j] - w[k-1][j] and
    whose other rows are 0, so that the stage tables telescope to w."""
    r = range(n + 1)
    if not stages:
        return (tuple(tuple(_weight(i, j) for j in r) for i in r),)
    return tuple(
        tuple(tuple(_weight(k, j) - _weight(k - 1, j) if i >= k else 0 for j in r) for i in r)
        for k in range(2, n + 1)
    )


def weight_matrix(n):
    """w[i][j] = 3^(i-j-1) below the diagonal, 0 elsewhere (1-based access)."""
    return _tables(n, False)[0]


def multi_weight(n):
    """wm[k][i][j]: the exponent of t_k in the (i, j) entry, k = 2..n; rows
    i < k are untouched by stage k, and the exponents sum to w[i][j]."""
    return dict(zip(range(2, n + 1), _tables(n, True)))


def _check_index_set(I, n):
    if len(I) != len(set(I)) or any(not 1 <= i <= n for i in I):
        raise ValueError("invalid index set %r" % (I,))


# ---------------------------------------------------------------------------
# deformed Pluecker coordinates


def deformed_plucker(z, I, t):
    """q_I(z, t) = t^(-tr w_I) det(t^(w_ij) z_ij) over rows I, columns 1..|I|.

    Expanded over permutations with the diagonal weight subtracted, so every
    t-exponent is a non-negative integer and q_I(z, 0) is the diagonal
    monomial.
    """
    return _expand(z, I, (t,), _tables(len(z), False))


def multi_deformed_plucker(z, I, ts):
    """q~_I(z, t_2, ..., t_n) using the stagewise multi-weights."""
    if len(ts) != len(z) - 1:
        raise ValueError("need n-1 parameters t_2..t_n")
    return _expand(z, I, ts, _tables(len(z), True))


def _expand(z, I, ts, tables):
    """Sum over permutations p of sgn(p) prod_l z[I_p(l), l] prod_k ts[k]^e_k,
    e_k the weight of p in tables[k] minus that of the diagonal.  An unsorted
    I is sorted first and the sum taken times the sign of the sort, so that
    q_{sigma I} = sgn(sigma) q_I, as PluckerPoint.get assumes."""
    z = np.asarray(z, dtype=complex)
    I = tuple(I)
    _check_index_set(I, len(z))
    I, sign = normalize_index_set(I)
    k = len(I)
    base = [sum(w[I[l]][l + 1] for l in range(k)) for w in tables]
    total = 0.0 + 0.0j
    for perm in permutations(range(k)):
        term = normalize_index_set(perm)[1] + 0.0j
        for l in range(k):
            term = term * z[I[perm[l]] - 1, l]
        for t, w, b in zip(ts, tables, base):
            expo = sum(w[I[perm[l]]][l + 1] for l in range(k)) - b
            if expo:
                term = term * t ** expo
        total += term
    return sign * total


# ---------------------------------------------------------------------------
# relation parsing and verification


_TERM_RE = re.compile(
    r"([+-])\s*(?:t(?:\^(\d+))?\s*)?((?:Z\[[0-9,\s]+\])+)\s*"
)
_ZFACT_RE = re.compile(r"Z\[([0-9,\s]+)\]")


def parse_relation(text):
    """Parse "+Z[1]Z[2,3] -Z[2]Z[1,3] +t Z[3]Z[1,2]" into term triples.

    Returns a list of (sign, t-exponent, tuple of index tuples).
    """
    terms = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            raise ValueError("malformed relation near %r" % text[pos:])
        sign = 1 if m.group(1) == "+" else -1
        texp = int(m.group(2)) if m.group(2) else (1 if "t" in m.group(0).split("Z")[0] else 0)
        factors = tuple(
            tuple(int(x) for x in f.split(","))
            for f in _ZFACT_RE.findall(m.group(3))
        )
        terms.append((sign, texp, factors))
        pos = m.end()
    if not terms:
        raise ValueError("empty relation")
    return terms


def verify_family_equation(flag, relation, samples=100, seed=0, t=None):
    """Evaluate a signed monomial relation at Z_I = q_I(z, t) on random data.

    Returns the maximum relative residual over the sampled (z, t) pairs;
    t may be pinned to a constant (e.g. 1 for the classical Pluecker
    relation), otherwise it is sampled too.
    """
    if isinstance(relation, str):
        relation = parse_relation(relation)
    n = flag.n
    for _, _, factors in relation:
        for I in factors:
            _check_index_set(I, n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tv = t if t is not None else rng.standard_normal() + 1j * rng.standard_normal()
        total = 0.0 + 0.0j
        scale = 0.0
        for sign, texp, factors in relation:
            term = sign * tv ** texp
            for I in factors:
                term = term * deformed_plucker(z, I, tv)
            total += term
            scale += abs(term)
        worst = max(worst, abs(total) / max(scale, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# the limit torus and its monomial embedding


class TorusPoint(namedtuple("TorusPoint", "flag tau")):
    """Values tau^{(k)}_i on the ladder boxes; pinned positions are 1.
    tau maps (k, i) to a complex value, on the free positions only."""

    __slots__ = ()

    def __new__(cls, flag, tau):
        if set(tau) != set(free_positions(flag)):
            raise ValueError("tau must be given exactly on the free positions")
        if any(v == 0 for v in tau.values()):
            raise ValueError("tau values must be nonzero")
        return super().__new__(cls, flag, tau)

    def value(self, k, i):
        if is_pinned(self.flag, k, i):
            return 1.0
        return self.tau[(k, i)]


def random_torus_point(flag, seed):
    rng = np.random.default_rng(seed)
    tau = {}
    for pos in free_positions(flag):
        r = rng.uniform(0.3, 2.0)
        phi = rng.uniform(0, 2 * np.pi)
        tau[pos] = r * np.exp(1j * phi)
    return TorusPoint(flag=flag, tau=tau)


def diagonal_monomial_exponents(flag, I):
    """d_I(tau) as a multiset of free boxes (symbolic, exact): matrix entry
    (i, l) carries the tau values of the free boxes (k, l), i <= k < n."""
    return Counter(
        (k, l)
        for l, i in enumerate(I, start=1)
        for k in range(i, flag.n)
        if not is_pinned(flag, k, l)
    )


def binomial_relation_holds(flag, I, J):
    """d_I d_J = d_meet d_join, checked on exponent multisets."""
    d = [diagonal_monomial_exponents(flag, K) for K in (I, J, *meet_join(I, J))]
    return d[0] + d[1] == d[2] + d[3]


class PluckerPoint(namedtuple("PluckerPoint", "flag values")):
    """Normalized homogeneous coordinates, one table per step size:
    values maps a sorted index tuple to a complex coordinate."""

    __slots__ = ()

    def get(self, I):
        """Coordinate with the sign convention Z_{sigma I} = sgn(sigma) Z_I,
        0 when an index repeats."""
        srt, sgn = normalize_index_set(I)
        return sgn * self.values.get(srt, 0.0 + 0.0j)


def make_plucker_point(flag, values):
    """Normalize a raw coordinate table so each size class has unit norm."""
    vals = {}
    for I, v in values.items():
        srt, sgn = normalize_index_set(I)
        if sgn == 0:
            raise ValueError("repeated index in %r" % (I,))
        vals[srt] = sgn * complex(v)
    for nk in flag.steps:
        keys = [I for I in vals if len(I) == nk]
        norm = np.sqrt(sum(abs(vals[I]) ** 2 for I in keys))
        if norm == 0:
            raise ValueError("size class %d is identically zero" % nk)
        for I in keys:
            vals[I] = vals[I] / norm
    return PluckerPoint(flag=flag, values=vals)


def monomial_embedding(tau):
    """Z_I = d_I(tau), the diagonal monomial, per-size normalized."""
    flag = tau.flag
    values = {}
    for nk in flag.steps:
        for I in combinations(range(1, flag.n + 1), nk):
            v = 1.0 + 0.0j
            for box in diagonal_monomial_exponents(flag, I):
                v = v * tau.tau[box]
            values[I] = v
    return make_plucker_point(flag, values)


# ---------------------------------------------------------------------------
# moment maps


def _size_classes(Z, lam):
    """(block gap of lambda, step n_k, sum of |Z_I|^2 over |I| = n_k) per step."""
    n = Z.flag.n
    if len(lam) != n:
        raise ValueError("lambda needs n = %d entries" % n)
    steps = Z.flag.steps
    block_vals = [float(lam[s - 1]) for s in steps] + [float(lam[n - 1])]
    for k, nk in enumerate(steps):
        norm = sum(
            abs(Z.values.get(I, 0.0)) ** 2
            for I in combinations(range(1, n + 1), nk)
        )
        yield block_vals[k] - block_vals[k + 1], nk, norm


def moment_mu(Z, m, lam):
    """The m x m upper-left block of the orbit point attached to Z, 1 <= m <= n."""
    n = Z.flag.n
    if not 1 <= m <= n:
        raise ValueError("block size out of range")
    out = np.full((m, m), 0.0 + 0.0j)
    for coeff, nk, norm in _size_classes(Z, lam):
        gram = np.zeros((m, m), dtype=complex)
        for Ip in combinations(range(1, n + 1), nk - 1):
            zi = np.array([Z.get((i,) + Ip) for i in range(1, m + 1)])
            gram += np.outer(zi, zi.conj())
        out += coeff / norm * gram
    out += float(lam[n - 1]) * np.eye(m)
    return (out + out.conj().T) / 2


def moment_nu(Z, box, lam):
    """Torus moment coordinate for ladder box (m, j), 1 <= j <= m <= n.

    Sums |Z_I|^2 over the index sets whose intersection with {1..m} has at
    least j elements, weighted by the block gaps of lambda.
    """
    m, j = box
    n = Z.flag.n
    if not 1 <= j <= m <= n:
        raise ValueError("box out of range")
    total = 0.0
    for coeff, nk, norm in _size_classes(Z, lam):
        acc = sum(
            abs(Z.values.get(I, 0.0)) ** 2
            for I in combinations(range(1, n + 1), nk)
            if len([i for i in I if i <= m]) >= j
        )
        total += coeff * acc / norm
    return total + float(lam[n - 1])
