"""Exact linear algebra for small dense integer and rational systems."""

from fractions import Fraction
from math import gcd, lcm


def mat_mul(a, b):
    """Matrix product; integer matrices give an integer product."""
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def solve_scaled(a, b):
    """Integer x and d != 0 with a x = d b, for a square integer matrix a
    and an integer matrix b, by fraction-free (Bareiss) Gauss-Jordan
    elimination; every division is exact.  Raises ValueError on a
    singular matrix."""
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p_row = aug[col]
        p = p_row[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(aug[r], p_row)]
        prev = p
    return [row[n:] for row in aug], prev


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
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv_p = Fraction(1) / m[row][col]
        m[row] = [x * inv_p for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * n
    vec[fc] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -m[r][fc]
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if sum(ints) < 0:
        ints = [-x for x in ints]
    return ints
