"""Restricted root systems: simple restrictions, coroots, types."""

from fractions import Fraction

import pytest

from test_involution import _scan_data
from test_invariants import rule_systems

from wonderful.catalog import build_report, enumerate_records, instantiate, load_catalog, validate
from wonderful.curves import build_colors
from wonderful.invariants import is_hermitian
from wonderful.involution import (
    NONREDUCED,
    ORTHOGONAL,
    REAL,
    _fail,
    build_involution,
    make_satake,
    sigma_root,
)
from wonderful.restricted import _left_inverse, build_restricted, expand
from wonderful.rootsystem import (
    _form6,
    build_root_system,
    coroot,
    highest_roots,
    inner_product,
    pairing,
    positive_roots,
    unit_vector,
)
from coweights import coroots, pair_coweight, restricted_coroot
from invariant_scans import hermitian_by_scan, restricted_positive
from satake_data import raw_data, satake


def restrict_root(inv, v):
    """The restriction v - sigma(v), read from sigma_root: the reference the
    fibers and theta_bar of build_restricted are checked against."""
    return tuple(a - b for a, b in zip(v, sigma_root(inv, v)))


def _restricted(components, black=(), arrows=()):
    rs = build_root_system(components)
    return build_restricted(build_involution(make_satake(rs, black, arrows)))


def test_bdii_rank_5():
    rrs = _restricted((("B", 2),), black=[1])
    assert rrs.restricted_simple == ((2, 2),)
    assert rrs.type_label == "A1"
    assert rrs.doubled_index is None
    assert rrs.theta_bar == (2, 2)
    assert coroot(rrs.root_system, rrs.theta_bar) == (1, Fraction(1, 2))
    abar, ahat = restricted_coroot(rrs, 0)
    assert abar == (1, Fraction(1, 2)) and ahat == abar
    assert rrs.theta_bar_expansion == (1,)
    assert rrs.exceptional_pair is None


def test_aiii_n4_r1():
    rrs = _restricted((("A", 3),), black=[1], arrows=[(0, 2)])
    assert rrs.restricted_simple == ((1, 1, 1),)
    assert rrs.type_label == "BC1"
    assert rrs.doubled_index == 0
    assert rrs.theta_bar == (2, 2, 2)
    assert coroot(rrs.root_system, rrs.theta_bar) == (Fraction(1, 2),) * 3
    abar, ahat = restricted_coroot(rrs, 0)
    assert abar == (1, 1, 1)
    assert ahat == (Fraction(1, 2),) * 3
    assert rrs.theta_bar_expansion == (1,)
    assert rrs.exceptional_pair == (0, 2)
    assert rrs.node_fiber[0] == rrs.node_fiber[2] == 0


def test_group_a1():
    rrs = _restricted((("A", 1), ("A", 1)), arrows=[(0, 1)])
    assert rrs.restricted_simple == ((1, 1),)
    assert rrs.type_label == "A1"
    assert coroot(rrs.root_system, rrs.theta_bar) == (Fraction(1, 2), Fraction(1, 2))
    assert rrs.theta_bar_expansion == (1,)


def test_split_a1():
    rrs = _restricted((("A", 1),))
    assert rrs.restricted_simple == ((2,),)
    assert rrs.doubled_index is None
    assert restricted_coroot(rrs, 0)[0] == (Fraction(1, 2),)
    assert rrs.theta_bar_expansion == (1,)


def test_aii_rank2():
    rrs = _restricted((("A", 5),), black=[0, 2, 4])
    assert rrs.rank == 2 and rrs.type_label == "A2"
    assert rrs.restricted_simple[0] == (1, 2, 1, 0, 0)
    assert rrs.restricted_simple[1] == (0, 0, 1, 2, 1)
    assert rrs.theta_bar == restrict_root(
        rrs.involution, (1, 1, 1, 1, 1))


def test_split_types_restrict_to_themselves():
    for comps in ((("C", 3),), (("F", 4),), (("G", 2),), (("E", 6),)):
        rrs = _restricted(comps)
        typ, rank = comps[0]
        assert rrs.type_label == f"{typ}{rank}"
        assert rrs.restricted_simple == tuple(
            tuple(2 if k == i else 0 for k in range(rank)) for i in range(rank))


def test_quasi_split_a4_is_bc2():
    rrs = _restricted((("A", 4),), arrows=[(0, 3), (1, 2)])
    assert rrs.type_label == "BC2"
    assert rrs.doubled_index == 1
    assert rrs.exceptional_pair == (1, 2)


def test_cartan_pairing_two():
    for spec in [((("B", 3),), [2], ()),
                 ((("D", 4),), [], ()),
                 ((("A", 5),), [0, 2, 4], ()),
                 ((("E", 6),), [2, 3, 4], [(0, 5)])]:
        rrs = _restricted(*spec)
        rs = rrs.root_system
        for idx, v in enumerate(rrs.restricted_simple):
            abar = coroots(rrs)[idx][0]
            assert pair_coweight(rs, abar, v) == 2


def test_eiii_is_bc2():
    rrs = _restricted((("E", 6),), black=[2, 3, 4], arrows=[(0, 5)])
    assert rrs.type_label == "BC2"
    assert rrs.exceptional_pair is not None


def test_eiv_is_a2():
    rrs = _restricted((("E", 6),), black=[1, 2, 3, 4])
    assert rrs.type_label == "A2"
    assert rrs.exceptional_pair is None


def test_fii_is_bc1():
    rrs = _restricted((("F", 4),), black=[0, 1, 2])
    assert rrs.type_label == "BC1"
    assert rrs.exceptional_pair is None


def test_eii_is_f4():
    rrs = _restricted((("E", 6),), arrows=[(0, 5), (2, 4)])
    assert rrs.type_label == "F4"


def test_bdi_is_b():
    rrs = _restricted((("B", 4),), black=[3])
    assert rrs.type_label == "B3"
    rrs = _restricted((("D", 5),), black=[3, 4])
    assert rrs.type_label == "B3"


def test_dominance_lemma():
    # black nodes in the support of a restriction pair to zero with it
    rrs = _restricted((("E", 6),), black=[2, 3, 4], arrows=[(0, 5)])
    rs = rrs.root_system
    black = set(rrs.involution.satake.black_nodes)
    for v in rrs.restricted_simple:
        for b in black:
            assert pairing(rs, b, v) == 0


def test_exceptional_iff_simply_laced_and_nonreduced():
    specs = [
        ((("A", 3),), [1], [(0, 2)], True),
        ((("A", 4),), [], [(0, 3), (1, 2)], True),
        ((("E", 6),), [2, 3, 4], [(0, 5)], True),
        ((("D", 7),), [0, 2, 4], [(5, 6)], True),
        ((("F", 4),), [0, 1, 2], False, False),
        ((("C", 4),), [0, 2], False, False),
        ((("B", 2),), [1], False, False),
    ]
    for comps, black, arrows, expect in specs:
        rrs = _restricted(comps, black, arrows or ())
        rs = rrs.root_system
        simply_laced = all(rs.gram6[i][i] == 12 for i in range(rs.rank))
        assert (rrs.exceptional_pair is not None) == expect
        assert expect == (simply_laced and rrs.doubled_index is not None)


def test_multiplicities_align_with_the_restricted_positive_roots():
    # so(4,1): one restricted root of multiplicity 3
    rrs = _restricted((("B", 2),), black=[1])
    assert rrs.multiplicities == (3,)
    # su(3,1): BC1, alpha of multiplicity 4 and 2 alpha of multiplicity 1
    rrs = _restricted((("A", 3),), black=[1], arrows=[(0, 2)])
    mult = dict(zip(restricted_positive(rrs), rrs.multiplicities))
    alpha = rrs.restricted_simple[0]
    assert mult == {alpha: 4, tuple(2 * x for x in alpha): 1}


# The per-node facts as computed before build_involution and build_restricted
# stored them: each white node classified and its fiber found again on every
# call, sigma looked up on the simple root by vector.

def _reference_fibers(inv):
    """{restriction of alpha_i: the white nodes i with it}, ordered by
    least node."""
    rs = inv.root_system
    fibers = {}
    for i in inv.satake.white_nodes:
        fibers.setdefault(restrict_root(inv, unit_vector(rs.rank, i)), []).append(i)
    return fibers


def _classify_simple(inv, i):
    """Case of a white simple root: REAL, ORTHOGONAL or NONREDUCED."""
    rs = inv.root_system
    if i not in inv.satake.white_nodes:
        raise ValueError(f"node {i} is not white")
    e = unit_vector(rs.rank, i)
    img = sigma_root(inv, e)
    p = pairing(rs, i, img)
    if p == -2:
        if img != tuple(-x for x in e):
            _fail("pairing -2 with sigma(alpha) != -alpha")
        return REAL
    if p == 0:
        return ORTHOGONAL
    if p == 1:
        return NONREDUCED
    _fail(f"<alpha^vee, sigma(alpha)> = {p} is not in {{-2, 0, 1}}")


def _fiber_index(fibers, i):
    for idx, fiber in enumerate(fibers):
        if i in fiber:
            return idx
    raise ValueError(f"node {i} is not white")


def _is_exceptional(inv):
    """Exceptional means some white node is nonreduced and not fixed by
    sigma_bar, the white node in the support of -sigma(alpha_i); returns
    (flag, witness pair or None)."""
    rs = inv.root_system
    white = inv.satake.white_nodes
    for i in white:
        img = sigma_root(inv, unit_vector(rs.rank, i))
        (j,) = (k for k in white if img[k])
        if j != i and _classify_simple(inv, i) == NONREDUCED:
            return True, (i, j)
    return False, None


def _theta_bar_expansion(rrs, fibers):
    """Nonnegative integer coefficients of theta_bar_covector over the
    primitive coroots {ahat_vee}."""
    rs = rrs.root_system
    theta = highest_roots(rs)[0]
    top = _form6(rs, rrs.theta_bar, rrs.theta_bar)
    coeffs = []
    for k, (v, fiber) in enumerate(zip(rrs.restricted_simple, fibers)):
        m = 2 if k == rrs.doubled_index else 1
        q, r = divmod(sum(theta[i] for i in fiber) * m * _form6(rs, v, v), top)
        if r or q < 0:
            raise ValueError("theta_bar covector is not a nonnegative integer "
                             "combination of the primitive coroots")
        coeffs.append(q)
    return tuple(coeffs)


def _fraction_reference(inv):
    """(restricted_positive, multiplicities, cartan, coroots, theta_bar
    expansion) by the Fraction formulas: restrictions through sigma_root,
    coefficients by solving over the restricted simple roots, the Cartan
    matrix from inner_product, the coroots from the case formulas and the
    theta_bar expansion by solving over the primitive coroots."""
    rs = inv.root_system
    mult = {}
    for beta in positive_roots(rs):
        v = restrict_root(inv, beta)
        if any(v):
            mult[v] = mult.get(v, 0) + 1
    fibers = _reference_fibers(inv)
    dbar = list(fibers)
    for v in mult:
        coeffs = expand(dbar, v)
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)
    cartan = tuple(tuple(2 * inner_product(rs, v, w) / inner_product(rs, v, v)
                         for w in dbar) for v in dbar)
    coroots = []
    for v in dbar:
        case = _classify_simple(inv, fibers[v][0])
        e = unit_vector(rs.rank, fibers[v][0])
        den = {REAL: 4, ORTHOGONAL: 2, NONREDUCED: 1}[case]
        abar = tuple((a - b) / den
                     for a, b in zip(coroot(rs, e), coroot(rs, sigma_root(inv, e))))
        ahat = tuple(x / 2 for x in abar) if case == NONREDUCED else abar
        coroots.append((abar, ahat))
    theta_bar = restrict_root(inv, highest_roots(rs)[0])
    top = expand([ahat for _, ahat in coroots], coroot(rs, theta_bar))
    return tuple(mult), tuple(mult.values()), cartan, tuple(coroots), tuple(top)


def _restricted_systems():
    """The restricted root systems of the 147 records of rank <= 8,
    GroupE6-E8 and every satake-scan datum that builds."""
    catalog = load_catalog()
    records = enumerate_records(catalog, 8)
    assert len(records) == 147
    records += [instantiate(catalog, f"GroupE{n}") for n in (6, 7, 8)]
    systems = [record.restricted for record in records]
    for sd in _scan_data():
        try:
            systems.append(build_restricted(build_involution(sd)))
        except ValueError:
            pass
    assert len(systems) == 150 + 88
    return systems


def test_moore_criterion_matches_the_scan_of_every_restricted_root():
    # is_hermitian reads one multiplicity, multiplicities[k] for the longest
    # restricted simple root k, so the codes must open with restricted_simple
    raw = []
    for datum in raw_data(10):
        try:
            raw.append(build_restricted(build_involution(satake(datum))))
        except ValueError:
            pass
    assert len(raw) == 211
    hermitian = 0
    for rrs in _restricted_systems() + raw:
        assert restricted_positive(rrs)[:rrs.rank] == rrs.restricted_simple
        assert is_hermitian(rrs) == hermitian_by_scan(rrs), rrs.involution.satake
        hermitian += is_hermitian(rrs)
    assert hermitian == 150


def test_integer_restricted_layer_matches_fraction_reference():
    for rrs in _restricted_systems():
        *ref, top = _fraction_reference(rrs.involution)
        got = [restricted_positive(rrs), rrs.multiplicities, rrs.cartan, coroots(rrs)]
        assert got == ref, rrs.involution.satake
        assert all(c.denominator == 1 and c >= 0 for c in top), rrs.involution.satake
        assert rrs.theta_bar_expansion == top
        assert all(type(c) is int for c in rrs.theta_bar_expansion)


def test_stored_node_facts_match_the_reference():
    for rrs in _restricted_systems():
        inv = rrs.involution
        n, white = inv.root_system.rank, inv.satake.white_nodes
        fibers = tuple(_reference_fibers(inv).values())
        assert inv.cases == tuple(_classify_simple(inv, i) if i in white else None
                                  for i in range(n)), inv.satake
        assert rrs.exceptional_pair == _is_exceptional(inv)[1], inv.satake
        assert rrs.node_fiber == tuple(_fiber_index(fibers, i) if i in white else None
                                       for i in range(n)), inv.satake
        assert rrs.theta_bar_expansion == _theta_bar_expansion(rrs, fibers), inv.satake


def test_build_restricted_rejects_a_fractional_theta_bar_expansion(monkeypatch):
    # G2 with black node 2 fails Araki's condition; let it through, and
    # theta_bar_covector = 2/3 ahat_vee
    def lenient(detail):
        if not detail.endswith("(Araki's condition)"):
            _fail(detail)

    monkeypatch.setattr("wonderful.involution._fail", lenient)
    inv = build_involution(make_satake(build_root_system((("G", 2),)), black=[1]))
    assert inv.cases == (NONREDUCED, None)
    with pytest.raises(ValueError, match="^theta_bar covector is not a nonnegative "
                                         "integer combination of the primitive coroots$"):
        build_restricted(inv)


def test_build_restricted_rejects_a_doubled_root_on_a_non_nonreduced_fiber():
    # AIII n=4 r=1 restricts to BC1; its fiber read as ORTHOGONAL has the
    # doubled restricted root but not the nonreduced case
    inv = instantiate(load_catalog(), "AIII", {"n": 4, "r": 1}).involution
    assert inv.cases == (NONREDUCED, None, NONREDUCED)
    forged = inv._replace(cases=(ORTHOGONAL, None, ORTHOGONAL))
    with pytest.raises(ValueError, match="^primitive coroot disagrees with the "
                                         "longest multiple$"):
        build_restricted(forged)


def test_build_restricted_rejects_a_nonreduced_c_shape(monkeypatch):
    # AIII n=6 r=2 restricts to BC2; report its B2 Cartan matrix as C2
    inv = instantiate(load_catalog(), "AIII", {"n": 6, "r": 2}).involution
    assert build_restricted(inv).type_label == "BC2"
    monkeypatch.setattr("wonderful.restricted.identify_cartan",
                        lambda mat: ("C", len(mat), list(range(len(mat)))))
    with pytest.raises(ValueError, match="^nonreduced restriction without B/BC shape$"):
        build_restricted(inv)


def test_curves_and_restricted_look_up_no_simple_root(monkeypatch):
    def guarded(inv, v):
        if sorted(v) == [0] * (len(v) - 1) + [1]:
            raise AssertionError(f"sigma looked up on the simple root {v}")
        return sigma_root(inv, v)

    for module in ("curves", "restricted"):
        monkeypatch.setattr(f"wonderful.{module}.sigma_root", guarded, raising=False)
    records = enumerate_records(load_catalog(), 8)
    assert len(records) == 147
    for record in records:
        build_restricted(record.involution)
        build_colors(record.involution)
        assert validate(record) == []
        build_report(record)


def test_build_restricted_solves_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("solved for coefficients")

    monkeypatch.setattr("wonderful.restricted._coefficients", refuse)
    monkeypatch.setattr("wonderful.restricted.expand", refuse)
    catalog = load_catalog()
    for label, params in (("AI", {"r": 4}), ("EVII", {})):
        record = instantiate(catalog, label, params)
        assert validate(record) == []
        assert build_report(record).restricted_type == record.restricted.type_label


def test_restricted_oracles_left_inverse_and_form_cartan():
    """The oracles build_restricted no longer runs: the left inverse of the
    restricted simple roots exists, and the Cartan matrix read off the
    pairings is 2(v, w)/(v, v) from the full form, over the 497 records of
    rank <= 16 with GroupE6-E8 and every accepted raw datum of rank <= 8."""
    records, raw = rule_systems()
    for rrs in records + raw:
        rs, dbar = rrs.root_system, rrs.restricted_simple
        m, d = _left_inverse(dbar)
        assert d != 0 and len(m) == rrs.rank, rrs.involution.satake
        assert rrs.cartan == tuple(tuple(2 * _form6(rs, v, w) // _form6(rs, v, v)
                                         for w in dbar) for v in dbar), rrs.involution.satake


def test_dependent_restricted_simple_roots_are_rejected(monkeypatch):
    inv = instantiate(load_catalog(), "AI", {"r": 3}).involution
    monkeypatch.setattr("wonderful.restricted.row_rank", lambda rows: len(rows) - 1)
    with pytest.raises(ValueError, match="^restricted simple roots are linearly dependent$"):
        build_restricted(inv)
