"""Colors, curve classes and cocharacter curves."""

from functools import lru_cache

import pytest

from wonderful.catalog import enumerate_records, load_catalog
from wonderful.curves import (
    build_colors,
    degree_functional,
    lambda_weight,
    minimal_covering_classes,
    pushforward_class,
)
from wonderful.involution import build_involution, make_satake
from wonderful.restricted import build_restricted
from wonderful.linalg import invert
from wonderful.rootsystem import (
    build_root_system,
    coroot,
    minus_w0_permutation,
    unit_vector,
)
from coweights import boundary_pairing, cocharacter_curve, color_coroot, pair_coweight, psi
from picard_rules import merged_colors
from test_invariants import rule_systems
from test_restricted import restrict_root
from weyl_words import longest_subsystem_word, word_matrix


def _setup(components, black=(), arrows=()):
    rs = build_root_system(components)
    inv = build_involution(make_satake(rs, black, arrows))
    rrs = build_restricted(inv)
    return inv, rrs, build_colors(inv)


def test_bdii_single_color():
    inv, rrs, colors = _setup((("B", 2),), black=[1])
    assert colors == ((0,),)
    assert lambda_weight(inv, (0,)) == (1, 0)
    assert boundary_pairing(rrs, colors) == ((2,),)
    assert minimal_covering_classes(rrs) == ((1,),)
    assert pushforward_class(rrs) == (2,)


def test_aiii_exceptional_two_colors():
    inv, rrs, colors = _setup((("A", 3),), black=[1], arrows=[(0, 2)])
    assert colors == ((0,), (2,))
    assert lambda_weight(inv, (0,)) == (1, 0, 0)
    classes = minimal_covering_classes(rrs)
    assert classes == ((1, 0), (0, 1))
    assert psi(rrs, colors, classes[0]) == coroot(rrs.root_system, rrs.theta_bar)
    assert pushforward_class(rrs) == (1, 1)


def test_group_a1_merged_color():
    inv, rrs, colors = _setup((("A", 1), ("A", 1)), arrows=[(0, 1)])
    assert colors == ((0, 1),)
    assert lambda_weight(inv, (0, 1)) == (1, 1)
    assert minimal_covering_classes(rrs) == ((1,),)
    assert pushforward_class(rrs) == (2,)


def test_split_a1_real_color():
    inv, rrs, colors = _setup((("A", 1),))
    assert colors == ((0,),)
    assert lambda_weight(inv, (0,)) == (2,)
    assert pushforward_class(rrs) == (2,)


def test_quasi_split_a4_no_merge_on_adjacent():
    # arrows (0,3),(1,2): sigma(alpha_1) = -alpha_2 but they are adjacent,
    # so they are separate colors and the class splits there
    inv, rrs, colors = _setup((("A", 4),), arrows=[(0, 3), (1, 2)])
    assert colors == ((0, 3), (1,), (2,))
    classes = minimal_covering_classes(rrs)
    assert classes == ((1, 1, 0), (1, 0, 1))


def test_colors_read_off_the_cases_match_the_merge_test():
    records, raw = rule_systems()
    for rrs in records + raw:
        assert build_colors(rrs.involution) == merged_colors(rrs.involution), rrs.type_label


def test_minus_w0_compatible_with_restriction():
    inv, rrs, colors = _setup((("E", 6),), black=[2, 3, 4], arrows=[(0, 5)])
    rs = rrs.root_system
    perm = minus_w0_permutation(rs)
    for i in inv.satake.white_nodes:
        e = tuple(1 if k == i else 0 for k in range(rs.rank))
        ei = tuple(1 if k == perm[i] else 0 for k in range(rs.rank))
        lhs = restrict_root(inv, ei)
        rhs = restrict_root(inv, e)
        assert lhs == rhs or sum(x != y for x, y in zip(lhs, rhs)) > 0


def test_cocharacter_curve_data():
    inv, rrs, colors = _setup((("B", 2),), black=[1])
    data = cocharacter_curve(rrs, coroot(rrs.root_system, rrs.theta_bar))
    assert data["orbit_at_zero"] == (0,)
    assert data["orbit_at_infinity"] == (0,)
    assert not data["is_embedding"]
    assert data["degree"](lambda_weight(inv, (0,))) == 2
    # eta pairing to 1 with the restricted simple root embeds
    data2 = cocharacter_curve(rrs, (1, 0))
    assert not data2["is_embedding"]
    from fractions import Fraction
    data3 = cocharacter_curve(rrs, (Fraction(1, 2), Fraction(1, 2)))
    assert data3["is_embedding"]


def test_boundary_pairing_integral():
    for spec in [((("A", 5),), [0, 2, 4], ()),
                 ((("E", 6),), [2, 3, 4], [(0, 5)]),
                 ((("F", 4),), [0, 1, 2], ()),
                 ((("C", 4),), (), ())]:
        inv, rrs, colors = _setup(*spec)
        mat = boundary_pairing(rrs, colors)
        assert all(isinstance(x, int) for row in mat for x in row)
        classes = minimal_covering_classes(rrs)
        for gamma in classes:
            assert all(c >= 0 for c in gamma)


@lru_cache(maxsize=None)
def _w0_matrix(rs):
    return word_matrix(rs, longest_subsystem_word(rs, range(rs.rank)))


def _w0_apply(rs, v):
    """w_0 v through the full matrix of the longest Weyl element."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in _w0_matrix(rs))


@lru_cache(maxsize=None)
def _cartan_inverse(rs):
    """Columns are the fundamental weights in simple-root coordinates."""
    return invert([list(row) for row in rs.cartan])


def _reference_degree(rs, eta, lam):
    """<eta, lam> - <eta, w_0 lam>, with lam moved to root coordinates."""
    inv = _cartan_inverse(rs)
    mu = tuple(sum(c * inv[k][j] for j, c in enumerate(lam)) for k in range(rs.rank))
    return pair_coweight(rs, eta, mu) - pair_coweight(rs, eta, _w0_apply(rs, mu))


def _reference_orbit_at_infinity(rrs, eta):
    rs = rrs.root_system
    return tuple(idx for idx, v in enumerate(rrs.restricted_simple)
                 if pair_coweight(rs, eta, _w0_apply(rs, v)) != 0)


def _assert_permutation_forms_match(rrs, etas, lams):
    rs = rrs.root_system
    for eta in etas:
        degree = degree_functional(rs, eta)
        for lam in lams:
            assert degree(lam) == _reference_degree(rs, eta, lam)
        assert cocharacter_curve(rrs, eta)["orbit_at_infinity"] \
            == _reference_orbit_at_infinity(rrs, eta)


def test_permutation_forms_match_w0_matrix_on_catalog():
    for record in enumerate_records(load_catalog(), 8):
        inv, rrs = record.involution, record.restricted
        colors = build_colors(inv)
        lams = [lambda_weight(inv, c) for c in colors]
        _assert_permutation_forms_match(rrs, [coroot(rrs.root_system, rrs.theta_bar)], lams)
        _assert_permutation_forms_match(rrs, [color_coroot(rrs, c)[1] for c in colors], [])


@pytest.mark.parametrize("components", [(("E", 6),), (("A", 5),), (("D", 5),)])
def test_permutation_forms_match_w0_matrix_where_iota_moves(components):
    inv, rrs, _ = _setup(components)
    rs = rrs.root_system
    assert minus_w0_permutation(rs) != tuple(range(rs.rank))
    units = [unit_vector(rs.rank, i) for i in range(rs.rank)]
    ramp = tuple(range(1, rs.rank + 1))
    _assert_permutation_forms_match(rrs, units + [ramp, coroot(rs, rrs.theta_bar)],
                                    units + [ramp])
