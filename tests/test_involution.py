"""Involutions from Satake data: completion, validation, case analysis."""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonderful.catalog import enumerate_records, instantiate, load_catalog
from wonderful.invariants import dimensions, kappa_and_sigma, nilpotent_orbit_dimension
from wonderful.involution import (
    NONREDUCED,
    ORTHOGONAL,
    REAL,
    SatakeError,
    apply_matrix,
    build_involution,
    is_inner,
    make_satake,
    moved_root_count,
    sigma_root,
)
from wonderful.restricted import build_restricted
from wonderful.rootsystem import (
    _form6,
    build_root_system,
    coroot,
    highest_roots,
    longest_element,
    minus_w0_permutation,
    opposition,
    pack,
    positive_roots,
    root_codes,
    root_steps,
    unit_vector,
    unpack,
)
from coweights import pair_coweight
from satake_data import TYPES, automorphisms, raw_data, satake
from weyl_words import sigma_matrix

SCAN_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "satake-scan.json"
# SHA-256 of the outcome of every satake-scan datum: 88 accepted, 617
# SatakeError
SCAN_DIGEST = "8985ac7fa51d6ec917c61170e60852b8ef73b1ddd3f28dc8a344ac1a40663136"
# the ordered pairs of these types make the two-component raw data
PAIR_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2), ("B", 3), ("C", 3))
# SHA-256 of the outcome of every _raw_data datum: 244 accepted, 4,030
# rejected
RAW_DIGEST = "6d61288e6086fff134f518abf847fea702a6fac52c9b3275f6fc7a5bbc7dc501"


def _roots(rs):
    """The roots in the order of root_codes, as coordinate tuples."""
    return [unpack(c, rs.rank) for c in root_codes(rs)[0]]


def _scan_data():
    with open(SCAN_DATA, encoding="utf-8") as f:
        for op in json.load(f)["ops"]:
            rs = build_root_system(((op["type"], op["rank"]),))
            yield make_satake(rs, op["black"], [tuple(a) for a in op["arrows"]])


def _raw_data():
    """satake_data's raw data but E7 and E8: the distinct raw data of the
    classical types of rank <= 8, E6, F4 and G2 with each black set and
    involutive diagram automorphism; then each ordered pair of PAIR_TYPES
    with every black set, and with and without the swap of two equal
    components as arrows between white nodes."""
    for datum in raw_data():
        if datum[:2] not in (("E", 7), ("E", 8)):
            yield satake(datum)
    for x, y in itertools.product(PAIR_TYPES, repeat=2):
        rs = build_root_system((x, y))
        for bits in itertools.product((False, True), repeat=rs.rank):
            black = [i for i, b in enumerate(bits) if b]
            yield make_satake(rs, black)
            if x == y:
                n = x[1]
                yield make_satake(rs, black, [(i, i + n) for i in range(n)
                                              if not bits[i] and not bits[i + n]])


def _involution(components, black=(), arrows=()):
    rs = build_root_system(components)
    return build_involution(make_satake(rs, black, arrows))


def test_split_a2():
    inv = _involution((("A", 2),))
    assert sigma_root(inv, (1, 0)) == (-1, 0)
    assert inv.cases[0] == REAL
    assert inv.tau[0] == 0
    assert not is_inner(inv)


def test_quadric_b2():
    # black alpha_2: sigma(alpha_1) = -(alpha_1 + 2 alpha_2)
    inv = _involution((("B", 2),), black=[1])
    assert sigma_root(inv, (1, 0)) == (-1, -2)
    assert sigma_root(inv, (0, 1)) == (0, 1)
    assert inv.cases[0] == ORTHOGONAL
    assert inv.tau[0] == 0
    assert is_inner(inv)


def test_a3_black_middle_with_arrows():
    # black alpha_2, arrows (1,3): sigma(alpha_1) = -(alpha_2 + alpha_3)
    inv = _involution((("A", 3),), black=[1], arrows=[(0, 2)])
    assert sigma_root(inv, (1, 0, 0)) == (0, -1, -1)
    assert inv.cases[0] == NONREDUCED
    assert inv.tau[0] == 2
    assert is_inner(inv)


def test_a3_black_ends():
    # black {alpha_1, alpha_3}: sigma(alpha_2) = -(alpha_1 + alpha_2 + alpha_3)
    inv = _involution((("A", 3),), black=[0, 2])
    assert sigma_root(inv, (0, 1, 0)) == (-1, -1, -1)
    assert inv.cases[1] == ORTHOGONAL
    assert not is_inner(inv)


def test_a4_quasi_split_arrows_only():
    # arrows (1,4),(2,3): nonreduced restriction in rank 2
    inv = _involution((("A", 4),), arrows=[(0, 3), (1, 2)])
    assert sigma_root(inv, (1, 0, 0, 0)) == (0, 0, 0, -1)
    assert inv.cases[0] == ORTHOGONAL
    assert inv.cases[1] == NONREDUCED
    assert inv.tau[0] == 3
    assert is_inner(inv)


def test_group_type_swap():
    rs = build_root_system((("A", 2), ("A", 2)))
    inv = build_involution(make_satake(rs, arrows=[(0, 2), (1, 3)]))
    assert sigma_root(inv, (1, 0, 0, 0)) == (0, 0, -1, 0)
    assert inv.cases[0] == ORTHOGONAL
    assert inv.tau[0] == 2
    assert not is_inner(inv)
    assert moved_root_count(inv) == 12


def test_black_component_opposition():
    # AIII(5,1): black {alpha_2, alpha_3} of A_4, arrows (1,4); the black
    # component is of type A_2, so tau must swap the two black nodes.
    inv = _involution((("A", 4),), black=[1, 2], arrows=[(0, 3)])
    assert inv.tau[1] == 2 and inv.tau[2] == 1
    assert sigma_root(inv, (0, 1, 0, 0)) == (0, 1, 0, 0)
    assert sigma_root(inv, (0, 0, 1, 0)) == (0, 0, 1, 0)
    assert inv.cases[0] == NONREDUCED


def test_sigma_preserves_roots_and_squares_to_identity():
    inv = _involution((("E", 6),), black=[2, 3, 4], arrows=[(0, 5)])
    rs = inv.root_system
    roots = _roots(rs)
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


def test_sigma_sending_a_root_off_the_root_system_is_rejected(monkeypatch):
    # w_L patched to the packed columns (0, -2), (-2, 0) on A2: sigma(alpha_1) = 2 alpha_2
    # and sigma(alpha_2) = 2 alpha_1 commute with w_0 and pair to -2, but
    # sigma(alpha_1 + alpha_2) = 2 alpha_1 + 2 alpha_2 is no root
    monkeypatch.setattr("wonderful.involution.longest_element",
                        lambda rs, iota: [pack((0, -2)), pack((-2, 0))])
    rs = build_root_system((("A", 2),))
    with pytest.raises(SatakeError, match="does not preserve the root system"):
        build_involution(make_satake(rs))


def test_sigma_permuting_the_roots_but_not_an_involution_is_rejected(monkeypatch):
    # w_L patched to the rotation with packed columns (0, -1), (1, 0) on A1 x A1, of
    # order 4: sigma = -w_L permutes the roots, commutes with w_0 = -1 and
    # pairs each simple root to 0, but sigma^2 sends alpha_1 to -alpha_1
    monkeypatch.setattr("wonderful.involution.longest_element",
                        lambda rs, iota: [pack((0, -1)), pack((1, 0))])
    rs = build_root_system((("A", 1), ("A", 1)))
    with pytest.raises(SatakeError, match="sigma is not an involution"):
        build_involution(make_satake(rs))


def test_build_involution_applies_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("apply_matrix called")

    monkeypatch.setattr("wonderful.involution.apply_matrix", refuse)
    built = 0
    for sd in _scan_data():
        try:
            build_involution(sd)
            built += 1
        except SatakeError:
            pass
    assert built == 88


def test_rejected_data_never_extend_sigma(monkeypatch):
    # root_steps is read only to extend sigma past the simple roots, which
    # runs after every check on the simple images
    extended = []

    def counted_steps(rs):
        extended.append(rs)
        return root_steps(rs)

    monkeypatch.setattr("wonderful.involution.root_steps", counted_steps)
    built = 0
    for sd in _scan_data():
        try:
            build_involution(sd)
            built += 1
        except SatakeError:
            pass
    assert built == len(extended) == 88


def test_sigma_stays_packed_from_w_l_to_its_extension(monkeypatch):
    # longest_element returns codes, and build_involution extends sigma from
    # them without packing an image again
    def refuse(*args):
        raise AssertionError("vector round trip")

    monkeypatch.setattr("wonderful.involution.pack", refuse)
    monkeypatch.setattr("wonderful.rootsystem.unpack", refuse)
    built = 0
    for sd in _scan_data():
        try:
            build_involution(sd)
            built += 1
        except SatakeError:
            pass
    assert built == 88


@st.composite
def _fuzzed_satake(draw):
    """A raw datum of an irreducible type of rank <= 6: a random black set and
    either the arrows of a diagram automorphism between white nodes or a
    random arrow list, whose pairs may overlap or leave the diagram."""
    typ, n = draw(st.sampled_from([t for t in TYPES if t[1] <= 6]))
    black = draw(st.sets(st.integers(0, n - 1), max_size=n)
                 | st.sets(st.integers(-1, n), max_size=n))
    g = draw(st.sampled_from(automorphisms(typ, n)))
    arrows = draw(st.just([(i, j) for i, j in enumerate(g) if i < j and not {i, j} & black])
                  | st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=3))
    return build_root_system(((typ, n),)), black, arrows


@settings(max_examples=200, deadline=None)
@given(_fuzzed_satake())
def test_a_fuzzed_datum_builds_or_raises_satake_error(datum):
    rs, black, arrows = datum
    try:
        inv = build_involution(make_satake(rs, black, arrows))
    except SatakeError:
        return
    s, dim_family, dim_orbit, dim_hc = dimensions(build_restricted(inv))
    assert dim_family == dim_hc + s - 1
    assert dim_orbit == 2 * (dim_hc + 1)


def test_all_black_rejected():
    rs = build_root_system((("A", 2),))
    with pytest.raises(SatakeError):
        build_involution(make_satake(rs, black=[0, 1]))


def test_sigma_fixes_black_pointwise_eiv():
    inv = _involution((("E", 6),), black=[1, 2, 3, 4])
    for i in (1, 2, 3, 4):
        e = tuple(1 if k == i else 0 for k in range(6))
        assert sigma_root(inv, e) == e
    assert inv.cases[0] == ORTHOGONAL
    assert not is_inner(inv)


def _catalog_records():
    """Every catalog record of ambient rank <= 8 plus GroupE6/E7/E8."""
    cat = load_catalog()
    return tuple(enumerate_records(cat, 8)) + tuple(
        instantiate(cat, label, {}) for label in ("GroupE6", "GroupE7", "GroupE8"))


def _reference_nilpotent_orbit_dimension(inv):
    """The count of roots with <h, beta> in {1, 2}, h paired in Fractions,
    for sigma(theta) != -theta outside the group case; else None."""
    rs = inv.root_system
    theta = highest_roots(rs, 0)[0]
    img = apply_matrix(sigma_matrix(inv), theta)
    if len(rs.components) == 2 or img == tuple(-x for x in theta):
        return None
    h = tuple(a - b for a, b in zip(coroot(rs, theta), coroot(rs, img)))
    values = [pair_coweight(rs, h, beta) for beta in _roots(rs)]
    return values.count(Fraction(1)) + 2 * values.count(Fraction(2))


def test_sigma_perm_is_the_matrix_on_indexed_roots():
    records = _catalog_records()
    assert len(records) == 150
    counted = 0
    for record in records:
        inv, rrs = record.involution, record.restricted
        rs = inv.root_system
        roots = _roots(rs)
        npos = len(roots) // 2
        perm = inv.sigma_perm
        assert len(perm) == 2 * npos, record.label
        for k in range(npos):
            assert perm[perm[k]] == k and perm[perm[k + npos]] == k + npos
            assert perm[k + npos] == (perm[k] + npos) % (2 * npos), record.label
        sigma = sigma_matrix(inv)
        for beta in roots:
            assert sigma_root(inv, beta) == apply_matrix(sigma, beta)

        moved = sum(1 for beta in roots if apply_matrix(sigma, beta) != beta)
        assert moved_root_count(inv) == moved, record.label
        kappa = [0] * rs.rank
        for beta in positive_roots(rs):
            if all(x <= 0 for x in apply_matrix(sigma, beta)):
                kappa = [a + b for a, b in zip(kappa, beta)]
        assert kappa_and_sigma(rrs)[0] == tuple(kappa), record.label
        want = _reference_nilpotent_orbit_dimension(inv)
        if want is not None:
            counted += 1
            assert nilpotent_orbit_dimension(inv) == want, record.label
    assert counted > 0


@pytest.mark.parametrize("v", [(0, 0, 0, 0), (1, 0, 1, 0), (2, 0, 0, 0), (1, 1, 1)])
def test_sigma_root_rejects_a_non_root(v):
    inv = _involution((("A", 4),), arrows=[(0, 3), (1, 2)])
    with pytest.raises(ValueError, match="is not a root"):
        sigma_root(inv, v)


def test_satake_scan_outcomes_are_unchanged():
    rows = []
    for sd in _scan_data():
        try:
            rrs = build_restricted(build_involution(sd))
            rows.append(["accepted", None, None, rrs.type_label])
        except ValueError as exc:
            rows.append(["rejected", type(exc).__name__, str(exc), None])
    assert sum(r[0] == "accepted" for r in rows) == 88
    assert sum(r[1] == "SatakeError" for r in rows) == 617
    assert sum(r[1] == "ValueError" for r in rows) == 0
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SCAN_DIGEST


def test_raw_data_outcomes_are_unchanged():
    rows = []
    for sd in _raw_data():
        try:
            rows.append(build_restricted(build_involution(sd)).type_label)
        except ValueError as exc:
            rows.append(f"{type(exc).__name__}: {exc}")
    assert len(rows) == 2586 + 1688
    assert sum(":" not in r for r in rows) == 244
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == RAW_DIGEST


def test_sigma_bar_is_tau_and_the_construction_holds_on_every_accepted_datum():
    """sigma = -w_L tau (Araki 1962) guarantees what build_involution and
    build_restricted do not check: read through sigma_root alone, over the
    catalog records and every raw datum that builds."""
    systems = [record.restricted for record in _catalog_records()]
    for sd in _raw_data():
        try:
            systems.append(build_restricted(build_involution(sd)))
        except ValueError:
            pass
    assert len(systems) == 150 + 244
    case_den = {REAL: 4, ORTHOGONAL: 2, NONREDUCED: 1}
    for rrs in systems:
        inv = rrs.involution
        rs, tau, white = inv.root_system, inv.tau, inv.satake.white_nodes
        n, where = rs.rank, inv.satake
        simple = [sigma_root(inv, unit_vector(n, i)) for i in range(n)]
        assert all(tau[tau[i]] == i for i in range(n)), where
        # an isometry: 6(sigma alpha_i, sigma alpha_j) = gram6[i][j]
        assert all(_form6(rs, simple[i], simple[j]) == rs.gram6[i][j]
                   for i in range(n) for j in range(n)), where
        for i in range(n):
            e = unit_vector(n, i)
            if i not in white:
                assert simple[i] == e, where
                continue
            # -sigma(alpha_i) is alpha_tau(i) plus black roots: sigma_bar = tau
            neg = tuple(-x for x in simple[i])
            assert min(neg) >= 0, where
            assert {k: neg[k] for k in white if neg[k]} == {tau[i]: 1}, where
            if inv.cases[i] == REAL:
                assert neg == e, where
            # the fibers are the tau-orbits, and the case formula's coroot
            # is the metric one on every member of a fiber
            k = rrs.node_fiber[i]
            v = rrs.restricted_simple[k]
            assert v == tuple(a + b for a, b in zip(e, neg)), where
            assert [j for j in white if rrs.node_fiber[j] == k] == sorted({i, tau[i]}), where
            assert case_den[inv.cases[i]] * rs.gram6[i][i] == _form6(rs, v, v), where
        # theta_bar is the restriction of theta
        theta = highest_roots(rs, 0)[0]
        assert rrs.theta_bar == tuple(a - b for a, b in zip(theta, sigma_root(inv, theta))), where
        top = _form6(rs, rrs.theta_bar, rrs.theta_bar)

        def fiber_sums(beta):
            coeffs = [0] * rrs.rank
            for i in white:
                coeffs[rrs.node_fiber[i]] += beta[i]
            return coeffs

        # each restriction is its fiber sums over the restricted simple roots,
        # and theta's dominate
        theta_sums = fiber_sums(theta)
        for beta in positive_roots(rs):
            coeffs = fiber_sums(beta)
            span = tuple(sum(c * v[j] for c, v in zip(coeffs, rrs.restricted_simple))
                         for j in range(n))
            assert span == tuple(a - b for a, b in zip(beta, sigma_root(inv, beta))), where
            assert all(a <= b for a, b in zip(coeffs, theta_sums)), where
        # the restricted Cartan matrix is integral
        sq6 = [_form6(rs, v, v) for v in rrs.restricted_simple]
        assert all(2 * _form6(rs, v, w) % s == 0 for v, s in zip(rrs.restricted_simple, sq6)
                   for w in rrs.restricted_simple), where
        # sum_k c_k ahat_vee_k = theta_bar_covector: over S, sum_k c_k top v_k /
        # (m_k 6(v_k, v_k)) = theta_bar
        mults = [2 if k == rrs.doubled_index else 1 for k in range(rrs.rank)]
        assert tuple(sum(Fraction(c * top * v[j], m * s) for c, v, m, s in
                         zip(rrs.theta_bar_expansion, rrs.restricted_simple, mults, sq6))
                     for j in range(n)) == rrs.theta_bar, where


# <alpha_j, rho_X^vee> for the white node j without an arrow, worked by hand:
# -3/2, -3/2, -1/2, -1/2 and -1/2; none is the diagram of a real form
@pytest.mark.parametrize("components, black", [
    ((("B", 3),), [0, 2]),
    ((("D", 4),), [0, 2, 3]),
    ((("G", 2),), [1]),
    ((("B", 2),), [0]),
    ((("C", 3),), [2]),
], ids=["B3", "D4", "G2", "B2", "C3"])
def test_araki_condition_rejects_a_half_integer_pairing(components, black):
    with pytest.raises(SatakeError, match="half-integer with rho\\^vee of the black "
                                          "nodes \\(Araki's condition\\)$"):
        _involution(components, black=black)


def test_one_black_longest_word_per_datum(monkeypatch):
    data = list(_scan_data())
    for sd in data:
        minus_w0_permutation(sd.root_system)
    calls = []

    def counted_iota(rs, nodes):
        calls.append(("iota", tuple(nodes)))
        return opposition(rs, nodes)

    def counted_wl(rs, iota):
        calls.append(("w_L", tuple(sorted(iota))))
        return longest_element(rs, iota)

    monkeypatch.setattr("wonderful.involution.opposition", counted_iota)
    monkeypatch.setattr("wonderful.involution.longest_element", counted_wl)
    built = 0
    for sd in data:
        calls.clear()
        try:
            build_involution(sd)
            built += 1
        except SatakeError:
            pass
        # none when _check_satake rejects the datum first, and no w_L when
        # the completed diagram involution is rejected
        black = sd.black_nodes
        assert calls in ([], [("iota", black)], [("iota", black), ("w_L", black)]), sd
    assert built == 88
