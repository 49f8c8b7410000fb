"""Exact linear algebra on one fraction-free elimination loop; the engine uses row_rank."""

from fractions import Fraction


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


def row_rank(rows):
    """Rank of a list of integer rows."""
    return len(_eliminate(rows, max(map(len, rows), default=0))[1])


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
