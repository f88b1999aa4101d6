"""Gelfand-Cetlin combinatorics restated from the definitions.

Nothing here imports gcflag: the benchmark checks the program's outputs
against these formulas, so they must not share code with what they check.

A flag type is written as in the CLI, "n1,...,nr|n".  A pattern has rows
k = 1..n, row n is lambda, and entry (k, i) lies between the entries
(k+1, i) and (k+1, i+1) of the row above.  Entry (k, i) is squeezed
between lambda_i and lambda_{i+n-k}, so it is a constant when those two are
equal; the other entries are the polytope's coordinates.
"""

from fractions import Fraction


def parse_flag(text):
    """"1,2|3" -> ((1, 2), 3)."""
    steps, n = text.split("|")
    return tuple(int(s) for s in steps.split(",")), int(n)


def anticanonical(flag):
    """Block l of lambda carries n - n_{l-1} - n_l."""
    steps, n = parse_flag(flag)
    dims = (0,) + steps + (n,)
    lam = []
    for lo, hi in zip(dims, dims[1:]):
        lam.extend([n - lo - hi] * (hi - lo))
    return tuple(lam)


def is_full(flag):
    steps, n = parse_flag(flag)
    return steps == tuple(range(1, n))


def parse_lambda(values):
    return tuple(Fraction(str(x)) for x in values)


def free_positions(lam):
    """Non-constant entries (k, i), rows top-down, i increasing."""
    n = len(lam)
    return [
        (k, i)
        for k in range(n - 1, 0, -1)
        for i in range(1, k + 1)
        if lam[i - 1] != lam[i + n - k - 1]
    ]


def interlacing_inequalities(lam, coords):
    """Every non-constant interlacing inequality as (v, tau), <v, u> >= tau.

    coords orders the free positions; identical inequalities appear once.
    """
    n, N = len(lam), len(coords)
    index = {pos: a for a, pos in enumerate(coords)}

    def entry(k, i):
        v = [0] * N
        if (k, i) in index:
            v[index[(k, i)]] = 1
            return v, Fraction(0)
        return v, lam[i - 1]

    out = []
    for k in range(1, n):
        for i in range(1, k + 1):
            for upper, lower in (((k + 1, i), (k, i)), ((k, i), (k + 1, i + 1))):
                (va, ca), (vb, cb) = entry(*upper), entry(*lower)
                v = tuple(a - b for a, b in zip(va, vb))
                ineq = (v, cb - ca)
                if any(v) and ineq not in out:
                    out.append(ineq)
    return out


def random_interior_point(lam, coords, rng):
    """A pattern drawn row by row, each free entry uniform strictly between
    its two upper neighbours; returns its coordinates in coords order."""
    n = len(lam)
    free = set(coords)
    rows = {n: [float(x) for x in lam]}
    for k in range(n - 1, 0, -1):
        up = rows[k + 1]
        rows[k] = [
            rng.uniform(up[i], up[i - 1]) if (k, i) in free else float(lam[i - 1])
            for i in range(1, k + 1)
        ]
    return [rows[k][i - 1] for k, i in coords]


def weyl_dimension(lam):
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i)."""
    n = len(lam)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            out *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return out


def volume_formula(lam):
    """prod (lam_i - lam_j) / (j - i) over pairs with lam_i != lam_j."""
    n = len(lam)
    out = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            if lam[i] != lam[j]:
                out *= Fraction(lam[i] - lam[j]) / (j - i)
    return out
