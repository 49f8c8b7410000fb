"""Exact linear algebra for small dense integer and rational systems."""

from fractions import Fraction
from math import gcd


def _eliminate(rows, ncols):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows on
    their first ncols columns, skipping columns without a pivot; every
    division is exact.  Returns (rows, pivot columns, d): pivot row k holds
    d on column pivots[k] and 0 on the other pivot columns."""
    rows = [list(row) for row in rows]
    pivots = []
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        pivot = next((r for r in range(k, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p_row = rows[k]
        p = p_row[col]
        for r in range(len(rows)):
            if r != k:
                f = rows[r][col]
                rows[r] = [(p * x - f * y) // prev for x, y in zip(rows[r], p_row)]
        pivots.append(col)
        prev = p
    return rows, pivots, prev


def solve_scaled(a, b):
    """Integer x and d != 0 with a x = d b, for a square integer matrix a
    and an integer matrix b.  Raises ValueError on a singular matrix."""
    n = len(a)
    rows, pivots, d = _eliminate([list(ra) + list(rb) for ra, rb in zip(a, b)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    return [row[n:] for row in rows], d


def invert(a):
    """Exact inverse of a square integer matrix; raises ValueError on a
    singular matrix."""
    n = len(a)
    x, d = solve_scaled(a, [[int(i == j) for j in range(n)] for i in range(n)])
    return [[Fraction(v, d) for v in row] for row in x]


def nullspace_line(a):
    """Return a basis vector of the nullspace if it is one-dimensional, else None.

    The vector is scaled to primitive integer entries with positive sum.
    """
    n = len(a)
    rows, pivots, d = _eliminate(a, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    # a v = 0 for v[free] = d and v[pc] = -(pivot row of pc)[free]
    vec = [d if c == free[0] else 0 for c in range(n)]
    for row, pc in zip(rows, pivots):
        vec[pc] = -row[free[0]]
    g = gcd(*vec)
    vec = [x // g for x in vec]
    if sum(vec) < 0:
        vec = [-x for x in vec]
    return vec
