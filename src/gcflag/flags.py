"""Combinatorics of partial flag manifolds.

A flag type is the step sequence 0 < n_1 < ... < n_r < n of nested subspace
dimensions.  This module provides the ladder diagram, positive paths and
their index sets, meet/join of index sets, and the anti-canonical weight
vector.
"""

from collections import namedtuple
from itertools import combinations
from math import comb


class FlagType(namedtuple("FlagType", "n steps")):
    """Step sequence (n_1, ..., n_r) inside an n-dimensional space."""

    __slots__ = ()

    def __new__(cls, n, steps):
        if n < 1:
            raise ValueError("n must be positive")
        if not isinstance(steps, tuple):
            raise ValueError("steps must be a tuple, got %r" % (steps,))
        if any(not (0 < s < n) for s in steps):
            raise ValueError("steps must lie strictly between 0 and n")
        if any(a >= b for a, b in zip(steps, steps[1:])):
            raise ValueError("steps must be strictly increasing")
        return super().__new__(cls, n, steps)

    @property
    def r(self):
        return len(self.steps)

    @property
    def dims(self):
        """The full sequence 0 = n_0 < n_1 < ... < n_r < n_{r+1} = n."""
        return (0,) + self.steps + (self.n,)

    @property
    def block_sizes(self):
        """Sizes k_l = n_l - n_{l-1}, l = 1, ..., r+1."""
        d = self.dims
        return tuple(d[l] - d[l - 1] for l in range(1, len(d)))

    def block_of(self, i):
        """1-based block index l with n_{l-1} < i <= n_l."""
        if not 1 <= i <= self.n:
            raise ValueError("index out of range")
        for l, nl in enumerate(self.dims[1:], start=1):
            if i <= nl:
                return l
        raise AssertionError

    def is_full(self):
        return self.steps == tuple(range(1, self.n))

    @classmethod
    def full(cls, n):
        return cls(n, tuple(range(1, n)))

    @classmethod
    def grassmannian(cls, k, n):
        return cls(n, (k,))

    @classmethod
    def parse(cls, text):
        """Parse the compact form "n1,...,nr|n", e.g. "2|4" for Gr(2,4)."""
        try:
            left, right = text.split("|")
            steps = tuple(int(s) for s in left.split(",") if s != "")
            return cls(int(right), steps)
        except ValueError as e:
            raise ValueError("bad flag spec %r (expected 'n1,...,nr|n')" % text) from e

    def __str__(self):
        return ",".join(str(s) for s in self.steps) + "|" + str(self.n)


class LadderDiagram(namedtuple("LadderDiagram", "flag boxes corners")):
    """Boxes below the diagonal squares of the n x n grid, plus corners:
    boxes holds grid cells (row a, col j), matrix indexing from the top,
    and corners are O_0, ..., O_r."""

    __slots__ = ()


def dimension(flag):
    """Complex dimension of the flag manifold: sum (n_i - n_{i-1})(n - n_i)."""
    d = flag.dims
    return sum((d[i] - d[i - 1]) * (flag.n - d[i]) for i in range(1, flag.r + 1))


def ladder_diagram(flag):
    """Boxes are the grid cells strictly below the diagonal block of their column."""
    n = flag.n
    boxes = frozenset(
        (a, j)
        for j in range(1, n + 1)
        for a in range(flag.dims[flag.block_of(j)] + 1, n + 1)
    )
    corners = ((flag.n, 0),) + tuple((nl, nl) for nl in flag.steps)
    return LadderDiagram(flag=flag, boxes=boxes, corners=corners)


def positive_paths(flag, k):
    """Index sets of all monotone paths from O_0 to O_k, in lexicographic order.

    A path is horizontal exactly in the steps listed by its index set, so the
    paths ending at O_k biject with the n_k-element subsets of {1, ..., n}.
    """
    if not 1 <= k <= flag.r:
        raise ValueError("step index out of range")
    nk = flag.steps[k - 1]
    return [tuple(c) for c in combinations(range(1, flag.n + 1), nk)]


def path_count(flag, k):
    return comb(flag.n, flag.steps[k - 1])


def normalize_index_set(indices):
    """Sort an index list, returning (sorted tuple, permutation sign).

    Sign 0 if an index repeats (the corresponding coordinate vanishes).
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def meet_join(I, J):
    """Meet and join of two index sets.

    meet = elementwise minima padded with the tail of the longer set,
    join = elementwise maxima over the common prefix.
    """
    I, J = tuple(I), tuple(J)
    if len(I) > len(J):
        I, J = J, I
    k = len(I)
    meet = tuple(min(a, b) for a, b in zip(I, J)) + J[k:]
    join = tuple(max(a, b) for a, b in zip(I, J))
    if any(a >= b for a, b in zip(meet, meet[1:])):
        raise AssertionError("meet is not strictly increasing: %r" % (meet,))
    if any(a >= b for a, b in zip(join, join[1:])):
        raise AssertionError("join is not strictly increasing: %r" % (join,))
    return meet, join


def anticanonical_lambda(flag):
    """The weight vector of the anti-canonical class.

    Block l carries the value n - n_{l-1} - n_l (so the full flag gives
    (n-1, n-3, ..., -n+1) and Gr(r,n) gives (n-r, ..., -r, ...)).
    """
    d = flag.dims
    out = []
    for l in range(1, flag.r + 2):
        val = flag.n - d[l - 1] - d[l]
        out.extend([val] * (d[l] - d[l - 1]))
    return tuple(out)
