"""Involutions from Satake data: completion, validation, case analysis."""

import pytest

from wonderful.involution import (
    NONREDUCED,
    ORTHOGONAL,
    REAL,
    SatakeError,
    build_involution,
    classify_simple,
    is_inner,
    make_satake,
    moved_root_count,
    sigma_bar_of,
    sigma_root,
)
from wonderful.rootsystem import build_root_system, root_set


def _involution(components, black=(), arrows=()):
    rs = build_root_system(components)
    return build_involution(make_satake(rs, black, arrows))


def test_split_a2():
    inv = _involution((("A", 2),))
    assert sigma_root(inv, (1, 0)) == (-1, 0)
    assert classify_simple(inv, 0) == REAL
    assert sigma_bar_of(inv, 0) == 0
    assert not is_inner(inv)


def test_quadric_b2():
    # black alpha_2: sigma(alpha_1) = -(alpha_1 + 2 alpha_2)
    inv = _involution((("B", 2),), black=[1])
    assert sigma_root(inv, (1, 0)) == (-1, -2)
    assert sigma_root(inv, (0, 1)) == (0, 1)
    assert classify_simple(inv, 0) == ORTHOGONAL
    assert sigma_bar_of(inv, 0) == 0
    assert is_inner(inv)


def test_a3_black_middle_with_arrows():
    # black alpha_2, arrows (1,3): sigma(alpha_1) = -(alpha_2 + alpha_3)
    inv = _involution((("A", 3),), black=[1], arrows=[(0, 2)])
    assert sigma_root(inv, (1, 0, 0)) == (0, -1, -1)
    assert classify_simple(inv, 0) == NONREDUCED
    assert sigma_bar_of(inv, 0) == 2
    assert is_inner(inv)


def test_a3_black_ends():
    # black {alpha_1, alpha_3}: sigma(alpha_2) = -(alpha_1 + alpha_2 + alpha_3)
    inv = _involution((("A", 3),), black=[0, 2])
    assert sigma_root(inv, (0, 1, 0)) == (-1, -1, -1)
    assert classify_simple(inv, 1) == ORTHOGONAL
    assert not is_inner(inv)


def test_a4_quasi_split_arrows_only():
    # arrows (1,4),(2,3): nonreduced restriction in rank 2
    inv = _involution((("A", 4),), arrows=[(0, 3), (1, 2)])
    assert sigma_root(inv, (1, 0, 0, 0)) == (0, 0, 0, -1)
    assert classify_simple(inv, 0) == ORTHOGONAL
    assert classify_simple(inv, 1) == NONREDUCED
    assert sigma_bar_of(inv, 0) == 3
    assert is_inner(inv)


def test_group_type_swap():
    rs = build_root_system((("A", 2), ("A", 2)))
    inv = build_involution(make_satake(rs, arrows=[(0, 2), (1, 3)]))
    assert sigma_root(inv, (1, 0, 0, 0)) == (0, 0, -1, 0)
    assert classify_simple(inv, 0) == ORTHOGONAL
    assert sigma_bar_of(inv, 0) == 2
    assert not is_inner(inv)
    assert moved_root_count(inv) == 12


def test_black_component_opposition():
    # AIII(5,1): black {alpha_2, alpha_3} of A_4, arrows (1,4); the black
    # component is of type A_2, so tau must swap the two black nodes.
    inv = _involution((("A", 4),), black=[1, 2], arrows=[(0, 3)])
    assert inv.tau[1] == 2 and inv.tau[2] == 1
    assert sigma_root(inv, (0, 1, 0, 0)) == (0, 1, 0, 0)
    assert sigma_root(inv, (0, 0, 1, 0)) == (0, 0, 1, 0)
    assert classify_simple(inv, 0) == NONREDUCED


def test_sigma_preserves_roots_and_squares_to_identity():
    inv = _involution((("E", 6),), black=[2, 3, 4], arrows=[(0, 5)])
    rs = inv.root_system
    roots = root_set(rs)
    for beta in roots:
        img = sigma_root(inv, beta)
        assert img in roots
        assert sigma_root(inv, img) == beta


def test_inconsistent_black_arrow_overlap():
    rs = build_root_system((("A", 3),))
    with pytest.raises(SatakeError):
        build_involution(make_satake(rs, black=[0], arrows=[(0, 2)]))


def test_inconsistent_arrows_break_symmetry():
    rs = build_root_system((("A", 3),))
    # (1,2) is not a diagram symmetry of A_3
    with pytest.raises(SatakeError):
        build_involution(make_satake(rs, black=[], arrows=[(0, 1)]))


@pytest.mark.parametrize("components", [(("A", 2),), (("A", 3),)])
def test_first_node_black_does_not_commute_with_w0(components):
    rs = build_root_system(components)
    with pytest.raises(SatakeError, match="does not commute with w_0"):
        build_involution(make_satake(rs, black=[0]))


def test_all_black_rejected():
    rs = build_root_system((("A", 2),))
    with pytest.raises(SatakeError):
        build_involution(make_satake(rs, black=[0, 1]))


def test_sigma_fixes_black_pointwise_eiv():
    inv = _involution((("E", 6),), black=[1, 2, 3, 4])
    for i in (1, 2, 3, 4):
        e = tuple(1 if k == i else 0 for k in range(6))
        assert sigma_root(inv, e) == e
    assert classify_simple(inv, 0) == ORTHOGONAL
    assert not is_inner(inv)
