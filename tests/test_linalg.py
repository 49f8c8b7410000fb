"""Exact integer elimination: fraction-free solves and the row rank; and the
Kac null vector, read without elimination, against the Fraction elimination."""

import pytest
from test_kac import AFFINE_MARKS, _fraction_nullspace_line

from wonderful.kac import KacDiagram, affine_diagram, diagram_marks
from wonderful.linalg import row_rank, solve_scaled


def test_nullspace_line_none_unless_corank_one():
    two_affine_a1 = KacDiagram(("w",) * 4, ((0, 1, -2, -2), (2, 3, -2, -2)))
    assert _fraction_nullspace_line(two_affine_a1.cartan()) is None
    assert _fraction_nullspace_line([[2, -1], [-1, 2]]) is None
    for kd in (two_affine_a1, KacDiagram(("w", "b"), ((0, 1, -1, -1),))):
        with pytest.raises(ValueError, match="^diagram is not affine$"):
            diagram_marks(kd)


@pytest.mark.parametrize("key", sorted(AFFINE_MARKS))
def test_nullspace_line_matches_fraction_reference(key):
    kd = affine_diagram(*key)
    marks = diagram_marks(kd)
    assert list(marks) == _fraction_nullspace_line(kd.cartan())
    assert marks == AFFINE_MARKS[key]


@pytest.mark.parametrize("rows, rank", [
    ([], 0),
    ([[0, 0, 0]], 0),
    ([[1, 2, 3], [2, 4, 6]], 1),
    ([[1, 0, 1], [0, 1, 1], [1, 1, 2]], 2),
    ([[2, -1, 0], [0, 2, -2], [4, 0, -2], [0, 0, 1]], 3),
    ([[1, 1, 0, 0], [0, 0, 1, 1]], 2),
])
def test_row_rank_counts_independent_rows(rows, rank):
    assert row_rank(rows) == rank


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
