"""End-to-end acceptance suite.

Recomputes the whole built-in table from involution data alone and
cross-checks every stored column, then verifies the dimension and
curve-class identities instance by instance, pins three hand-verified
anchors, and proves the validator actually catches corrupted fixtures.
"""

import dataclasses
import json
import time
from fractions import Fraction
from math import gcd

import pytest
from importlib import resources

from wonderful.catalog import (
    ALL_CHECKS,
    build_report,
    enumerate_records,
    instantiate,
    load_catalog,
    validate,
)
from wonderful.cli import main
from wonderful.curves import (
    build_colors,
    minimal_covering_classes,
    pushforward_class,
)
from wonderful.invariants import (
    check_strong_orthogonality,
    dim_isotropy_complement,
    dimensions,
    kappa_and_sigma,
    nilpotent_orbit_dimension,
)
from wonderful.involution import (
    NONREDUCED,
    SatakeError,
    build_involution,
    sigma_root,
)
from wonderful.kac import _factors, name_dimension
from wonderful.restricted import expand
from wonderful.rootsystem import (
    coroot,
    highest_roots,
    root_codes,
    two_rho,
    unpack,
)
from test_involution import _scan_data
from coweights import boundary_pairing, coroots, pair_coweight, psi
from invariant_scans import restricted_positive
from weyl_words import longest_subsystem_word, sigma_matrix, word_matrix

CAT = load_catalog()

EXPECTED_LABELS = {
    "GroupA", "GroupA1", "GroupB", "GroupC", "GroupD", "GroupF4", "GroupG2",
    "AI", "AI1", "AII", "AIII", "AIIIeq", "BDI", "BDI2", "BDII",
    "CI", "CII", "CIIeq", "DI", "DIIIeven", "DIIIodd",
    "EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII", "EIX",
    "FI", "FII", "G",
}

_CACHE = {}


def _all_records():
    if "records" not in _CACHE:
        _CACHE["records"] = enumerate_records(CAT, 8)
    return _CACHE["records"]


def test_catalog_check_complete_clean_and_fast():
    started = time.monotonic()
    catalog = load_catalog()
    records = enumerate_records(catalog, 8)
    failures = []
    for record in records:
        for failure in validate(record):
            failures.append((record.label, record.params, failure.name,
                             failure.detail))
    elapsed = time.monotonic() - started
    assert failures == []
    assert len(records) >= 60
    assert {r.label for r in records} == EXPECTED_LABELS
    assert elapsed < 60.0
    _CACHE["records"] = records


def test_dimension_identities():
    for record in _all_records():
        rrs = record.restricted
        rs = rrs.root_system
        tbc = coroot(rs, rrs.theta_bar)
        kappa, sigma_sum = kappa_and_sigma(rrs)
        t = pair_coweight(rs, tbc, kappa)
        s = pair_coweight(rs, tbc, sigma_sum)
        assert s in (1, 2), record.label
        dims = dimensions(rrs)
        assert dims == (s, t + s - 2, 2 * t, t - 1), record.label
        boundary, dim_family, dim_orbit, dim_hc = dims
        assert dim_family == dim_hc + boundary - 1, record.label
        assert dim_orbit % 2 == 0, record.label


def test_nilpotent_orbit_oracle():
    branches = {True: 0, False: 0}
    for record in _all_records():
        inv = record.involution
        rs = inv.root_system
        dim_orbit = dimensions(record.restricted)[2]
        assert dim_orbit == nilpotent_orbit_dimension(inv), record.label
        theta = highest_roots(rs)[0]
        image = sigma_root(inv, theta)
        fixed = image == tuple(-x for x in theta)
        branches[fixed] += 1
        if fixed:
            minimal = pair_coweight(rs, coroot(rs, theta), two_rho(rs))
            assert dim_orbit == minimal, record.label
        else:
            eta = tuple(a - b for a, b in
                        zip(coroot(rs, theta), coroot(rs, image)))
            one = two = 0
            for beta in (unpack(c, rs.rank) for c in root_codes(rs)[0]):
                p = pair_coweight(rs, eta, beta)
                if p == 1:
                    one += 1
                elif p == 2:
                    two += 1
            assert dim_orbit == one + 2 * two, record.label
    assert branches[True] > 0 and branches[False] > 0


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def test_restricted_root_suite():
    for record in _all_records():
        rrs = record.restricted
        inv = record.involution
        rs = rrs.root_system
        label = record.label

        # the highest restricted root dominates every restricted root
        basis = rrs.restricted_simple
        top = expand(basis, rrs.theta_bar)
        assert top is not None and all(c >= 0 and c.denominator == 1
                                       for c in top), label
        positives = set(restricted_positive(rrs))
        for beta in positives:
            if beta == rrs.theta_bar:
                continue
            coeffs = expand(basis, beta)
            assert coeffs is not None, label
            assert all(c.denominator == 1 and c >= 0 for c in coeffs), label
            assert all(a >= b for a, b in zip(top, coeffs)), label

        # the involution commutes with the longest Weyl element
        w0 = word_matrix(rs, longest_subsystem_word(rs, range(rs.rank)))
        sig = sigma_matrix(inv)
        assert _matmul(w0, sig) == _matmul(sig, w0), label

        # restricted Cartan matrix is a genuine Cartan matrix
        for i in range(rrs.rank):
            assert rrs.cartan[i][i] == 2, label

        # nonreduced exactly when some white pair gives pairing one
        has_pair_one = any(inv.cases[i] == NONREDUCED
                           for i in inv.satake.white_nodes)
        nonreduced = rrs.doubled_index is not None
        assert nonreduced == has_pair_one, label
        assert rrs.type_label.startswith("BC") == nonreduced, label

        # at most one doubled simple restricted root
        doubled = [i for i, a in enumerate(basis)
                   if tuple(2 * x for x in a) in positives]
        assert len(doubled) <= 1, label
        assert (len(doubled) == 1) == (rrs.doubled_index is not None), label

        # exceptional = simply laced ambient type and nonreduced restriction
        simply_laced = all(t in "ADE" for t, _ in rs.components)
        assert (rrs.exceptional_pair is not None) == (simply_laced and nonreduced), \
            label

        # strong orthogonality of the highest root and its image
        theta = highest_roots(rs)[0]
        if sigma_root(inv, theta) != tuple(-x for x in theta):
            check_strong_orthogonality(inv)

        # primitivity of the doubled covector above rank-one type A
        if rrs.type_label not in ("A1", "B1", "C1"):
            tbc = coroot(rs, rrs.theta_bar)
            doubled_cov = [2 * Fraction(x) for x in tbc]
            assert all(x.denominator == 1 for x in doubled_cov), label
            assert gcd(*(abs(int(x)) for x in doubled_cov)) == 1, label
            assert any(pair_coweight(rs, tbc, a) == 1
                       for a in basis), label


def test_restricted_multiplicities_count_the_moved_roots():
    # each positive root outside the black subsystem restricts to exactly
    # one positive restricted root, so the multiplicities add up to half the
    # roots sigma moves, and dim p is the rank plus that half
    for record in _all_records():
        rrs = record.restricted
        assert len(rrs.multiplicities) == len(restricted_positive(rrs))
        assert min(rrs.multiplicities) >= 1, record.label
        moved = sum(j != k for k, j in enumerate(rrs.involution.sigma_perm))
        assert 2 * sum(rrs.multiplicities) == moved, record.label
        assert dim_isotropy_complement(rrs) == rrs.rank + moved // 2, record.label


# the Fano records of ambient rank <= 16 whose VMRT has two components: the
# negative answer to Hwang's question (Hermitian of tube type, rank >= 2)
FANO_TWO_COMPONENTS = {"AIIIeq": range(2, 9), "BDI2": range(5, 34),
                       "DIIIeven": range(2, 9), "EVII": [None]}  # EVII has no parameter


def test_paper_statements_over_the_enumeration():
    records = enumerate_records(CAT, 16) + [instantiate(CAT, label, {})
                                            for label in ("GroupE6", "GroupE7", "GroupE8")]
    assert len(records) == 497
    exceptional, two = 0, {}
    for record in records:
        report = build_report(record)
        exceptional += report.exceptional
        # one family of minimal rational curves unless exceptional, then two
        assert report.n_families == (2 if report.exceptional else 1), record.label
        # the VMRT is homogeneous: each component is a product of G/P's of
        # dimension dim_family
        for name, dim in report.vmrt_components:
            assert _factors(name), (record.label, name)
            assert name_dimension(name) == dim == report.dim_family, (record.label, name)
        # two components read off the Kac diagram, not off the Hermitian flag
        reducible = len(record.kac.whites) == 2 and not report.exceptional \
            and record.restricted.rank >= 2
        assert (len(report.vmrt_components) == 2) == reducible, record.label
        if reducible:
            two.setdefault((record.label, report.fano), []).append(
                next(iter(record.params.values()), None))
    assert exceptional == 72
    assert {label: values for (label, fano), values in two.items() if fano} == \
        {label: list(values) for label, values in FANO_TWO_COMPONENTS.items()}
    # the 14 others are CI, Sp(2r, R)/U(r), which is not Fano
    assert two[("CI", False)] == list(range(3, 17)) and len(two) == 5


def test_sigma_matrix_is_integral():
    # the columns codes[sigma_perm[j]] of sigma's matrix are integer and equal
    # -w_L . tau built from the black Weyl word, for every catalog record and
    # every involution the satake scan builds
    involutions = [record.involution for record in _all_records()]
    for sd in _scan_data():
        try:
            involutions.append(build_involution(sd))
        except SatakeError:
            pass
    assert len(involutions) == 147 + 88
    for inv in involutions:
        n, codes = inv.root_system.rank, root_codes(inv.root_system)[0]
        columns = [unpack(codes[inv.sigma_perm[j]], n) for j in range(n)]
        assert all(type(x) is int for col in columns for x in col), inv.satake
        assert [list(row) for row in zip(*columns)] == sigma_matrix(inv), inv.satake


def _solve_by_elimination(basis, v):
    """Coefficients c with sum_i c_i basis_i = v by Gauss-Jordan elimination
    over Fractions on the columns of the basis, or None if v is outside
    their span; the basis must be linearly independent."""
    r = len(basis)
    rows = [[Fraction(b[k]) for b in basis] + [Fraction(v[k])]
            for k in range(len(v))]
    for col in range(r):
        pivot = next(i for i in range(col, len(rows)) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(len(rows)):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    if any(row[r] != 0 for row in rows[r:]):
        return None
    return [row[r] for row in rows[:r]]


def test_expand_matches_direct_solve():
    for record in _all_records():
        rrs = record.restricted
        rank = rrs.root_system.rank
        basis = rrs.restricted_simple
        black = [tuple(1 if k == b else 0 for k in range(rank))
                 for b in record.involution.satake.black_nodes]
        for v in restricted_positive(rrs) + tuple(black):
            coeffs = expand(basis, v)
            assert coeffs == _solve_by_elimination(basis, v), record.label
            assert (coeffs is None) == (v in black), record.label
            assert coeffs is None or all(isinstance(c, Fraction)
                                         for c in coeffs), record.label
        primitive = [ahat for _, ahat in coroots(rrs)]
        tbc = coroot(rrs.root_system, rrs.theta_bar)
        assert expand(primitive, tbc) == _solve_by_elimination(primitive, tbc), record.label


def test_curve_class_suite():
    for record in _all_records():
        rrs = record.restricted
        label = record.label
        colors = build_colors(record.involution)
        classes = minimal_covering_classes(rrs)
        tbc = coroot(rrs.root_system, rrs.theta_bar)
        for gamma in classes:
            assert all(isinstance(c, int) and c >= 0 for c in gamma), label
            assert psi(rrs, colors, gamma) == tbc, label
        matrix = boundary_pairing(rrs, colors)
        assert all(isinstance(v, int) for row in matrix for v in row), label
        push = pushforward_class(rrs)
        witness = rrs.exceptional_pair
        if witness is not None:
            assert len(classes) == 2, label
            assert push == tuple(a + b for a, b in zip(*classes)), label
            i, j = witness
            ci = colors.index((i,))
            cj = colors.index((j,))
            pattern = {(g[ci], g[cj]) for g in classes}
            assert pattern == {(1, 0), (0, 1)}, label
        else:
            assert len(classes) == 1, label
            assert push == tuple(2 * c for c in classes[0]), label


def test_anchor_rank_one_quadric():
    record = instantiate(CAT, "BDII", {"n": 5})
    assert dimensions(record.restricted) == (2, 3, 6, 2)


def test_anchor_projective_space():
    record = instantiate(CAT, "AIII", {"n": 4, "r": 1})
    assert dimensions(record.restricted) == (1, 2, 6, 2)
    assert len(minimal_covering_classes(record.restricted)) == 2


def test_anchor_rank_one_group():
    record = instantiate(CAT, "GroupA1", {})
    assert dimensions(record.restricted) == (2, 2, 4, 1)
    assert len(build_colors(record.involution)) == 1


@pytest.mark.parametrize("label, rank", [("GroupE6", 12), ("GroupE7", 14),
                                         ("GroupE8", 16)])
def test_exceptional_group_cases_validate_clean(label, rank):
    record = instantiate(CAT, label, {})
    assert record.root_system.rank == rank
    assert validate(record) == []


def test_every_family_validates_clean():
    # GroupE6-E8 (ambient rank 12-16) are the only labels above rank 8
    records = _all_records() + [instantiate(CAT, f"GroupE{n}", {}) for n in (6, 7, 8)]
    assert all(validate(record) == [] for record in records)
    assert {r.label for r in records} == set(CAT.by_label)
    assert len(CAT.by_label) == 36


def test_negative_control_satake_bit():
    from wonderful.involution import build_involution, make_satake
    from wonderful.restricted import build_restricted

    record = instantiate(CAT, "BDI", {"n": 9, "r": 3})
    assert record.involution.satake.black_nodes == (3,)
    corrupted = build_involution(make_satake(record.root_system, (), ()))
    tampered = dataclasses.replace(
        record, involution=corrupted, restricted=build_restricted(corrupted))
    names = {f.name for f in validate(tampered)}
    assert "restricted-type" in names


def test_negative_control_kac_color():
    record = instantiate(CAT, "FII", {})
    kd = record.kac
    flip = kd.blacks[0]
    colors = tuple("w" if k == flip else c for k, c in enumerate(kd.colors))
    tampered = dataclasses.replace(
        record, kac=dataclasses.replace(kd, colors=colors))
    names = {f.name for f in validate(tampered)}
    assert names & {"kac-affine", "kac-white-count", "kac-descriptors"}


def _load_raw_catalog():
    text = (resources.files("wonderful") / "data" / "catalog.json") \
        .read_text(encoding="utf-8")
    return json.loads(text)


def test_negative_control_cli_satake_fixture(tmp_path, capsys):
    raw = _load_raw_catalog()
    for fam in raw["families"]:
        if fam["label"] == "AIII":
            fam["black"] = "list(range(r + 2, n - r))"
    path = tmp_path / "corrupt_satake.json"
    path.write_text(json.dumps(raw))
    code = main(["check", "--max-rank", "3", "--catalog", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "restricted-type" in out


def test_negative_control_cli_kac_fixture(tmp_path, capsys):
    raw = _load_raw_catalog()
    for fam in raw["families"]:
        if fam["label"] == "BDII":
            fam["kac"] = "kac_sym2(2)"
    path = tmp_path / "corrupt_kac.json"
    path.write_text(json.dumps(raw))
    code = main(["check", "--max-rank", "3", "--catalog", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "kac-" in out


def test_cli_check_clean(capsys):
    code = main(["check", "--max-rank", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out
    for name in ALL_CHECKS:
        assert name in out
