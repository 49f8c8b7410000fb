"""Exact integer elimination: fraction-free solves and Kac null vectors."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from test_kac import AFFINE_MARKS

from wonderful.kac import affine_diagram
from wonderful.linalg import nullspace_line, solve_scaled


def _fraction_nullspace_line(a):
    """Reference: Gauss-Jordan over Fraction, the free column set to 1."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for col in range(n):
        row = len(pivots)
        pivot = next((r for r in range(row, n) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        m[row] = [x / m[row][col] for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for r, pc in enumerate(pivots):
        vec[pc] = -m[r][free[0]]
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    return ints if sum(ints) >= 0 else [-x for x in ints]


def test_nullspace_line_none_unless_corank_one():
    assert nullspace_line([[2, -1], [-1, 2]]) is None
    two_affine_a1 = [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    assert nullspace_line(two_affine_a1) is None
    assert _fraction_nullspace_line(two_affine_a1) is None


@pytest.mark.parametrize("key", sorted(AFFINE_MARKS))
def test_nullspace_line_matches_fraction_reference(key):
    cartan = affine_diagram(*key).cartan()
    marks = nullspace_line(cartan)
    assert marks == _fraction_nullspace_line(cartan)
    assert tuple(marks) == AFFINE_MARKS[key]


@pytest.mark.parametrize("a, b", [
    ([[2, -1], [-1, 2]], [[1, 0], [0, 1]]),
    ([[0, 3, 1], [2, 0, -1], [1, 1, 1]], [[4], [-2], [7]]),
    ([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
     [[1, 0], [0, 1], [5, -3], [0, 2]]),
])
def test_solve_scaled_solves_scaled_system(a, b):
    x, d = solve_scaled(a, b)
    assert d != 0
    ax = [[sum(a[i][k] * x[k][j] for k in range(len(a))) for j in range(len(b[0]))]
          for i in range(len(a))]
    assert ax == [[d * v for v in row] for row in b]


def test_solve_scaled_rejects_singular_matrix():
    with pytest.raises(ValueError, match="singular matrix"):
        solve_scaled([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [[1], [0], [0]])
