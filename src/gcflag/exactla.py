"""Exact rationals (fractions.Fraction): coercion and a small determinant.

Ranks, dimensions and solves on facet normals are decided combinatorially
in polytopes (a union-find over pattern entries); det is left for the
unimodularity check of simplicial cones.
"""

from fractions import Fraction


def to_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not float(x).is_integer():
            raise TypeError("refusing to coerce non-integral float %r exactly" % x)
        return Fraction(int(x))
    raise TypeError("cannot coerce %r to Fraction" % (x,))


def det(rows):
    """Exact determinant of a square matrix (list of rows of Fractions)."""
    n = len(rows)
    a = [[to_fraction(x) for x in row] for row in rows]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    result = Fraction(sign)
    for i in range(n):
        result *= a[i][i]
    return result
