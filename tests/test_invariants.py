"""Dimension formulas, orbit types and the report invariants."""

import dataclasses
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest

from wonderful.catalog import enumerate_records, instantiate, load_catalog
from wonderful.invariants import (
    O_MIN,
    O_SUM,
    check_strong_orthogonality,
    dim_isotropy_complement,
    dim_minimal_orbit,
    dimensions,
    is_fano,
    is_hermitian,
    kappa_and_sigma,
    nilpotent_orbit_dimension,
    orbit_type,
    sigma_theta_is_minus_theta,
    type_a_vmrt,
    vmrt_report,
)
from wonderful.involution import build_involution, make_satake
from wonderful.restricted import build_restricted
from wonderful.rootsystem import (
    VALID_RANKS,
    _form6,
    build_root_system,
    coroot,
    highest_roots,
    pack,
    pairing,
    root_codes,
    two_rho,
)
from coweights import pair_coweight
from invariant_scans import strong_orthogonality_by_scan
from picard_rules import split_rule_fano
from satake_data import raw_data, satake


def _setup(components, black=(), arrows=()):
    rs = build_root_system(components)
    inv = build_involution(make_satake(rs, black, arrows))
    return inv, build_restricted(inv)


def test_dim_minimal_orbit_values():
    # 2 h_vee - 2 for the adjoint algebra
    values = {("A", 3): 6, ("B", 2): 4, ("G", 2): 6, ("E", 8): 58,
              ("D", 5): 14, ("F", 4): 16, ("C", 3): 6, ("E", 6): 22}
    for comp, expect in values.items():
        assert dim_minimal_orbit(build_root_system((comp,))) == expect


def test_gram_is_symmetric_and_the_minimal_orbit_pairing_integral():
    # build_root_system and dim_minimal_orbit rely on both without checking
    # them: every type of rank <= 12, the exceptional types, three components
    systems = [((t, n),) for t in "ABCDEFG" for n in range(1, 13) if VALID_RANKS[t](n)]
    for components in systems + [(("C", 4), ("G", 2), ("B", 3))]:
        rs = build_root_system(components)
        n = rs.rank
        assert all(rs.gram6[i][j] == rs.gram6[j][i] for i in range(n) for j in range(n))
        theta = highest_roots(rs)[0]
        dim = Fraction(2 * _form6(rs, theta, two_rho(rs)), _form6(rs, theta, theta))
        assert dim.denominator == 1 and dim == dim_minimal_orbit(rs), components


def test_bdii_anchor():
    inv, rrs = _setup((("B", 2),), black=[1])
    kappa, sigma_sum = kappa_and_sigma(rrs)
    assert kappa == (3, 3)
    assert sigma_sum == (2, 2)
    assert dimensions(rrs) == (2, 3, 6, 2)
    assert sigma_theta_is_minus_theta(inv) is False
    assert orbit_type(inv) == O_SUM
    assert check_strong_orthogonality(inv)
    assert nilpotent_orbit_dimension(inv) == 6
    assert dim_isotropy_complement(rrs) == 4


def test_aiii_anchor():
    inv, rrs = _setup((("A", 3),), black=[1], arrows=[(0, 2)])
    kappa, _ = kappa_and_sigma(rrs)
    assert kappa == (3, 3, 3)
    assert dimensions(rrs) == (1, 2, 6, 2)
    assert orbit_type(inv) == O_MIN
    assert nilpotent_orbit_dimension(inv) == 6


def test_group_a1_anchor():
    inv, rrs = _setup((("A", 1), ("A", 1)), arrows=[(0, 1)])
    assert dimensions(rrs) == (2, 2, 4, 1)
    assert sigma_theta_is_minus_theta(inv) is True
    assert nilpotent_orbit_dimension(inv) == 4
    assert dim_isotropy_complement(rrs) == 3


def test_kappa_identity_when_theta_not_real():
    for spec in [((("B", 2),), [1], ()),
                 ((("A", 5),), [0, 2, 4], ()),
                 ((("F", 4),), [0, 1, 2], ()),
                 ((("C", 5),), [0, 2, 4], ())]:
        inv, rrs = _setup(*spec)
        assert not sigma_theta_is_minus_theta(inv)
        rs = rrs.root_system
        kappa, _ = kappa_and_sigma(rrs)
        eta = coroot(rrs.root_system, rrs.theta_bar)
        assert pair_coweight(rs, eta, kappa) == pair_coweight(rs, eta, two_rho(rs))


def test_fano_rule():
    split_c = _setup((("C", 3),))[1]
    assert not is_fano(split_c)
    split_a = _setup((("A", 3),))[1]
    assert is_fano(split_a)
    split_b = _setup((("B", 3),))[1]
    assert is_fano(split_b)
    split_g = _setup((("G", 2),))[1]
    assert not is_fano(split_g)
    quadric = _setup((("B", 3),), black=[1, 2])[1]
    assert is_fano(quadric)
    eii = _setup((("E", 6),), arrows=[(0, 5), (2, 4)])[1]
    assert is_fano(eii)


@lru_cache(maxsize=None)
def rule_systems():
    """(records, raw): the restricted root systems of the 497 catalog records
    (ambient rank <= 16 and GroupE6-E8) and of every accepted raw datum."""
    cat = load_catalog()
    records = enumerate_records(cat, 16) + [instantiate(cat, f"GroupE{n}") for n in (6, 7, 8)]
    raw = []
    for datum in raw_data():
        try:
            raw.append(build_restricted(build_involution(satake(datum))))
        except ValueError:
            pass
    return tuple(r.restricted for r in records), tuple(raw)


def _outcome(check, inv):
    """True, or the message the check raises."""
    try:
        return check(inv)
    except ValueError as exc:
        return str(exc)


def test_strong_orthogonality_matches_the_subsystem_scan():
    records, raw = rule_systems()
    invs = [rrs.involution for rrs in records + raw
            if not sigma_theta_is_minus_theta(rrs.involution)]
    assert len(invs) == 136
    for inv in invs:
        assert check_strong_orthogonality(inv) is True, inv.satake
        assert strong_orthogonality_by_scan(inv) is True, inv.satake


def test_strong_orthogonality_agrees_with_the_scan_on_every_forged_image():
    # sigma(theta) forged to each root in turn, on the records of rank <= 6
    # where sigma(theta) != -theta.  A root orthogonal to theta is strongly
    # orthogonal to it (theta is long) and supported where theta is (theta is
    # dominant), so those two messages are never reached
    outcomes = set()
    for rrs in rule_systems()[0]:
        inv, rs = rrs.involution, rrs.root_system
        if rs.rank > 6 or sigma_theta_is_minus_theta(inv):
            continue
        index = root_codes(rs)[1]
        k = index[pack(highest_roots(rs)[0])]
        for j in range(len(index)):
            perm = list(inv.sigma_perm)
            perm[k] = j
            forged = dataclasses.replace(inv, sigma_perm=tuple(perm))
            got = _outcome(check_strong_orthogonality, forged)
            assert got == _outcome(strong_orthogonality_by_scan, forged), (inv.satake, j)
            outcomes.add(got)
    assert outcomes == {True, "sigma(theta) = -theta: nothing to check",
                        "theta and sigma(theta) are not orthogonal",
                        "-sigma(theta) is not the highest root of its component of the "
                        "orthogonal subsystem"}


def _minus_k_pairings(rrs):
    """<alpha_i^vee, kappa + Sigma> for every node i."""
    rs = rrs.root_system
    weight = tuple(map(add, *kappa_and_sigma(rrs)))
    return tuple(pairing(rs, i, weight) for i in range(rs.rank))


def test_fano_from_minus_k_matches_the_split_rule():
    records, raw = rule_systems()
    assert (len(records), len(raw)) == (497, 146)
    for rrs in records + raw:
        assert is_fano(rrs) == split_rule_fano(rrs), rrs.type_label
    # a non-Fano record fails by a white pairing of exactly 0
    non_fano = [rrs for rrs in records if not is_fano(rrs)]
    assert len(non_fano) == 32
    for rrs in non_fano:
        pairs = _minus_k_pairings(rrs)
        assert min(pairs[i] for i in rrs.involution.satake.white_nodes) == 0


def test_minus_k_weight_pairs_to_zero_with_black_coroots():
    # kappa + Sigma is a character of the parabolic P of the closed orbit
    records, raw = rule_systems()
    for rrs in records + raw:
        pairs = _minus_k_pairings(rrs)
        assert all(pairs[i] == 0 for i in rrs.involution.satake.black_nodes)


def test_minus_k_weight_of_ci_r3():
    rrs = instantiate(load_catalog(), "CI", {"r": 3}).restricted
    assert _minus_k_pairings(rrs) == (4, 0, 4)
    assert not is_fano(rrs)


def test_dimension_identity_family_hc():
    for spec in [((("B", 2),), [1], ()),
                 ((("A", 3),), [1], [(0, 2)]),
                 ((("E", 6),), [2, 3, 4], [(0, 5)]),
                 ((("D", 5),), [2, 3, 4], ()),
                 ((("F", 4),), (), ())]:
        inv, rrs = _setup(*spec)
        s, dim_family, dim_orbit, dim_hc = dimensions(rrs)
        assert dim_family == dim_hc + s - 1
        assert dim_orbit == 2 * (dim_hc + 1)
        assert dim_orbit % 2 == 0


def test_report_rank_one():
    rrs = _setup((("B", 2),), black=[1])[1]
    report = vmrt_report(rrs, hc_components=[("Q1", 2)], embedding_degree=(1,))
    assert report.restricted_type == "A1"
    assert report.vmrt_components == (("P3", 3),)
    assert report.n_families == 1
    assert report.fano
    assert report.dim_p == 4


def test_report_bc_type_uses_hc():
    rrs = _setup((("A", 3),), black=[1], arrows=[(0, 2)])[1]
    report = vmrt_report(rrs, hc_components=[("P2", 2), ("P2", 2)],
                         embedding_degree=(1,))
    assert report.exceptional
    assert report.vmrt_components == (("P2", 2),)
    assert report.n_families == 2
    assert report.picard_rank == 2


def test_report_rejects_bad_orbit_dimension():
    rrs = _setup((("A", 3),), black=[1], arrows=[(0, 2)])[1]
    with pytest.raises(ValueError):
        vmrt_report(rrs, hc_components=[("P2", 5), ("P2", 5)],
                    embedding_degree=(1,))


@pytest.mark.parametrize("components, black, arrows, hermitian", [
    ((("A", 1),), (), (), True),                     # sl(2,R), restricted A1 = C1
    ((("B", 2),), [1], (), False),                   # so(4,1): A1 of multiplicity 3
    ((("B", 3),), (), (), False),                    # split so(4,3): B3
    ((("C", 3),), (), (), True),                     # sp(6,R): C3
    ((("C", 4),), [0, 2], (), False),                # sp(2,2): C2, long multiplicity 3
    ((("A", 3),), [1], [(0, 2)], True),              # su(3,1): BC1
    ((("D", 5),), [2, 3, 4], (), True),              # so(2,8): B2 = C2
    ((("C", 2), ("C", 2)), (), [(0, 2), (1, 3)], False),  # group case
])
def test_is_hermitian_moore_criterion(components, black, arrows, hermitian):
    inv, rrs = _setup(components, black, arrows)
    assert is_hermitian(rrs) is hermitian


@pytest.mark.parametrize("components, black, arrows, vmrt", [
    ((("A", 3),), (), (), ("P3", (2,))),                               # AI
    ((("A", 2), ("A", 2)), (), [(0, 2), (1, 3)], ("P2 x P2", (1, 1))),  # GroupA
    ((("A", 5),), [0, 2, 4], (), ("Gr(2,6)", (1,))),                   # AII
    ((("E", 6),), [1, 2, 3, 4], (), ("E6/P6", (1,))),                  # EIV
])
def test_type_a_vmrt_from_the_multiplicity(components, black, arrows, vmrt):
    assert type_a_vmrt(_setup(components, black, arrows)[1]) == vmrt


def test_type_a_vmrt_rejects_multiplicities_without_a_rule():
    rrs = _setup((("A", 3),))[1]
    for bad in (dataclasses.replace(rrs, multiplicities=(3,) * 6),
                dataclasses.replace(rrs, multiplicities=(1, 1, 1, 1, 1, 2)),
                dataclasses.replace(rrs, multiplicities=(8,) * 6)):
        with pytest.raises(ValueError):
            type_a_vmrt(bad)
