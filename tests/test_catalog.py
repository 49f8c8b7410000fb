"""Catalog loading, instantiation, validation, and enumeration."""

import ast
import dataclasses
import fnmatch
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import wonderful.catalog
from wonderful.catalog import (
    ALL_CHECKS,
    build_report,
    enumerate_records,
    instantiate,
    load_catalog,
    validate,
)
from wonderful.invariants import (
    check_strong_orthogonality,
    dimensions,
    nilpotent_orbit_dimension,
)
from wonderful.curves import build_colors, minimal_covering_classes
from wonderful.expressions import _BRACE, _compile, _eval
from wonderful.involution import build_involution
from wonderful.kac import KAC_BUILDERS, affine_diagram, marked_diagrams
from wonderful.restricted import build_restricted
from wonderful.rootsystem import build_root_system, pack, root_codes
from satake_data import diagram_class, raw_data, satake
from test_cli import _src_env

CAT = load_catalog()
SHIPPED = Path(wonderful.catalog.__file__).parent / "data" / "catalog.json"

# ambient-rank <= 8 reachable labels
REACHABLE = {
    "GroupB", "GroupC", "GroupD", "GroupF4", "GroupG2", "GroupA", "GroupA1",
    "AI", "AI1", "AII", "AIII", "AIIIeq", "BDI", "BDI2", "BDII", "CI",
    "CII", "CIIeq", "DI", "DIIIeven", "DIIIodd",
    "EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII", "EIX",
    "FI", "FII", "G",
}


def test_load():
    assert CAT.version == 1
    assert len(CAT.templates) == 36
    assert len(CAT.by_label) == 36
    assert REACHABLE <= set(CAT.by_label)


def test_load_from_path_reads_the_same_catalog(tmp_path):
    loaded = load_catalog(SHIPPED)
    assert (loaded.version, loaded.templates) == (CAT.version, CAT.templates)
    # the decoder recurses once per level and stops at the recursion limit
    path = tmp_path / "deep.json"
    path.write_text('{"version": 1, "families": ' + "[" * 5000 + "]" * 5000 + "}",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="^catalog nests collections too deep$"):
        load_catalog(path)


def test_catalog_at_the_length_bound_loads(tmp_path):
    # the shipped catalog padded with spaces to the bound; one more character
    # is refused (tests/test_cli.py)
    path = tmp_path / "padded.json"
    path.write_text(SHIPPED.read_text(encoding="utf-8")
                    .ljust(wonderful.catalog.MAX_CATALOG_CHARS), encoding="utf-8")
    assert load_catalog(path).templates == CAT.templates


def test_package_data_ships_every_data_file():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    package = SHIPPED.parents[1]
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        patterns = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["wonderful"]
    files = [p.relative_to(package).as_posix() for p in (package / "data").rglob("*")
             if p.is_file()]
    assert "data/catalog.json" in files
    for name in files:
        assert any(fnmatch.fnmatch(name, pattern) for pattern in patterns), name


def test_default_load_does_not_import_yaml():
    # with yaml blocked, both catalog sources and a --catalog check still run
    code = ("import sys; sys.modules['yaml'] = None; import wonderful; "
            "from wonderful.cli import main; wonderful.load_catalog(); "
            f"wonderful.load_catalog({str(SHIPPED)!r}); "
            f"sys.exit(main(['check', '--max-rank', '3', '--catalog', {str(SHIPPED)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("all checks passed\n")


def test_routing():
    assert instantiate(CAT, "GroupA", {"r": 1}).label == "GroupA1"
    assert instantiate(CAT, "AI", {"r": 1}).label == "AI1"
    rec = instantiate(CAT, "AIII", {"n": 4, "r": 2})
    assert rec.label == "AIIIeq" and rec.params == {"r": 2}
    rec = instantiate(CAT, "BDI", {"n": 7, "r": 2})
    assert rec.label == "BDI2" and rec.params == {"n": 7}
    rec = instantiate(CAT, "BDI", {"n": 9, "r": 1})
    assert rec.label == "BDII" and rec.params == {"n": 9}
    rec = instantiate(CAT, "CII", {"n": 4, "r": 2})
    assert rec.label == "CIIeq" and rec.params == {"r": 2}


def test_instantiate_errors():
    with pytest.raises(ValueError, match="unknown family"):
        instantiate(CAT, "ZZ", {})
    with pytest.raises(ValueError, match="takes parameters"):
        instantiate(CAT, "AI", {"n": 3})
    with pytest.raises(ValueError, match="must be an integer"):
        instantiate(CAT, "AI", {"r": "3"})
    with pytest.raises(ValueError, match="condition"):
        instantiate(CAT, "AIII", {"n": 3, "r": 2})
    with pytest.raises(ValueError, match="condition"):
        instantiate(CAT, "CI", {"r": 2})


def test_catalog_is_the_complete_classification():
    """Every raw Satake datum of rank <= 8 that builds is filed in the catalog,
    up to diagram automorphism, but for four coincidences of small rank."""
    data = raw_data()
    accepted = []
    for datum in data:
        try:
            build_restricted(build_involution(satake(datum)))
        except ValueError:
            continue
        accepted.append(datum)
    assert (len(data), len(accepted)) == (2970, 146)
    classes = {diagram_class(*datum) for datum in accepted}
    assert len(classes) == 138
    # the noncompact real forms of each simple algebra, e.g. sl(8): AI, AII
    # and AIII r = 1..4; sp(16): CI and CII r = 1..4; so(16): DI r = 1..8 and DIII
    per_type = Counter((typ, n) for typ, n, _ in classes)
    want = {("A", 7): 6, ("B", 8): 8, ("C", 8): 5, ("D", 8): 9, ("E", 6): 4,
            ("E", 7): 3, ("E", 8): 2}
    assert {t: per_type[t] for t in want} == want
    filed = {}
    for record in enumerate_records(CAT, 8):
        if len(record.root_system.components) == 1:
            sd = record.involution.satake
            arrows = tuple((i, j) for i, j in enumerate(sd.diagram_involution) if i < j)
            key = diagram_class(*record.root_system.components[0], sd.black_nodes, arrows)
            filed.setdefault(key, []).append((record.label, record.params))
    assert len(filed) == 134 and set(filed) <= classes
    # each is filed under the isomorphic type of A3 = D3 or B2 = C2:
    # su*(4) = so(5,1), sp(4,R) = so(3,2), sp(1,1) = so(4,1), so(3,3) = sl(4,R)
    assert classes - set(filed) == {("A", 3, ((0, 2), ())), ("C", 2, ((), ())),
                                    ("C", 2, ((0,), ())), ("D", 3, ((), ()))}
    # so(2,6) and so*(8) meet under triality
    assert {k: v for k, v in filed.items() if len(v) > 1} == {
        ("D", 4, ((0, 2), ())): [("BDI2", {"n": 8}), ("DIIIeven", {"r": 2})]}


def test_anchor_odd_quadric():
    rec = instantiate(CAT, "BDII", {"n": 5})
    assert dimensions(rec.restricted) == (2, 3, 6, 2)
    assert rec.stored.hc == ("Q2",)
    assert rec.stored.vmrt == ("P3",)
    rep = build_report(rec)
    assert rep.n_families == 1
    assert rep.vmrt_components == (("P3", 3),)


def test_anchor_projective_space():
    rec = instantiate(CAT, "AIII", {"n": 4, "r": 1})
    assert dimensions(rec.restricted) == (1, 2, 6, 2)
    rep = build_report(rec)
    assert rep.n_families == 2


def test_anchor_rank_one_group():
    rec = instantiate(CAT, "GroupA1", {})
    assert dimensions(rec.restricted) == (2, 2, 4, 1)
    assert len(build_colors(rec.involution)) == 1


@pytest.mark.parametrize("label,params", [
    ("GroupA", {"r": 3}),
    ("GroupB", {"r": 2}),
    ("GroupG2", {}),
    ("AI", {"r": 4}),
    ("AII", {"r": 2}),
    ("AIII", {"n": 7, "r": 2}),
    ("AIIIeq", {"r": 3}),
    ("BDI", {"n": 11, "r": 4}),
    ("BDI2", {"n": 8}),
    ("BDII", {"n": 6}),
    ("CI", {"r": 4}),
    ("CII", {"n": 5, "r": 2}),
    ("CIIeq", {"r": 3}),
    ("DI", {"r": 4}),
    ("DIIIeven", {"r": 3}),
    ("DIIIodd", {"r": 2}),
    ("EIV", {}),
    ("FI", {}),
    ("FII", {}),
    ("G", {}),
])
def test_validate_clean(label, params):
    assert validate(instantiate(CAT, label, params)) == []


def test_validate_flags_wrong_fano():
    rec = instantiate(CAT, "BDII", {"n": 5})
    tampered = dataclasses.replace(
        rec, stored=dataclasses.replace(rec.stored, fano=False))
    names = {f.name for f in validate(tampered)}
    assert "fano" in names


def test_validate_flags_wrong_vmrt():
    # fully derived case: the engine recomputes the component itself
    rec = instantiate(CAT, "BDII", {"n": 5})
    tampered = dataclasses.replace(
        rec, stored=dataclasses.replace(rec.stored, vmrt=("P4",)))
    names = {f.name for f in validate(tampered)}
    assert "vmrt-components" in names
    # stored-name case: a name of the wrong dimension is still caught
    rec = instantiate(CAT, "AI", {"r": 3})
    tampered = dataclasses.replace(
        rec, stored=dataclasses.replace(rec.stored, vmrt=("Q4",)))
    names = {f.name for f in validate(tampered)}
    assert "vmrt-components" in names


@pytest.mark.parametrize("label, params", [("AI", {"r": 3}), ("AIII", {"n": 5, "r": 2})])
def test_validate_flags_wrong_sigma_theta(label, params):
    rec = instantiate(CAT, label, params)
    assert rec.stored.sigma_theta is True
    tampered = dataclasses.replace(
        rec, stored=dataclasses.replace(rec.stored, sigma_theta=False))
    assert _failures(tampered) == {("sigma-theta", "computed True, stored False")}


def test_stored_name_above_the_rank_ceiling_fails_its_check():
    rec = instantiate(CAT, "GroupB", {"r": 2})
    tampered = dataclasses.replace(rec, stored=dataclasses.replace(
        rec.stored, hc=("Gr(2,120)",), vmrt=("Gr(2,120)",)))
    failures = {f.name: f.detail for f in validate(tampered)}
    assert "above the ambient rank ceiling 100" in failures["vmrt-components"]
    assert "kac-descriptors" in failures


@pytest.mark.parametrize("field, value, check", [
    ("vmrt", ("Q4",), "vmrt-components"),  # same dimension as P4
    ("emb", (1,), "emb-structure"),
    ("hermitian", "ne", "exceptional-flag"),
])
def test_tampered_derived_column_fails_and_stays_out_of_the_report(field, value, check):
    rec = instantiate(CAT, "AI", {"r": 4})
    assert (rec.stored.vmrt, rec.stored.emb, rec.stored.hermitian) == (("P4",), (2,), None)
    tampered = dataclasses.replace(
        rec, stored=dataclasses.replace(rec.stored, **{field: value}))
    assert check in {f.name for f in validate(tampered)}
    report = build_report(tampered)
    assert report is not build_report(rec)
    assert report.hermitian is False
    assert report.vmrt_components == (("P4", 4),)
    assert report.embedding_degree == (2,)


def test_validate_flags_flipped_kac_color():
    rec = instantiate(CAT, "FII", {})
    kd = rec.kac
    i = kd.blacks[0]
    colors = tuple("w" if k == i else c for k, c in enumerate(kd.colors))
    tampered = dataclasses.replace(rec, kac=dataclasses.replace(kd, colors=colors))
    failed = {f.name for f in validate(tampered)}
    assert failed & {"kac-affine", "kac-white-count", "kac-descriptors"}


def test_report_is_derived_once_per_record():
    rec = instantiate(CAT, "AIII", {"n": 7, "r": 2})
    assert build_report(rec) is build_report(rec)


@pytest.mark.parametrize("label, params", [("AI", {"r": 4}), ("EVII", {})])
def test_validate_and_report_apply_no_sigma_matrix(monkeypatch, label, params):
    # once the involution is built, sigma of a root is a table lookup
    rec = instantiate(CAT, label, params)

    def refuse(mat, v):
        raise AssertionError("sigma applied as a matrix after instantiate")

    monkeypatch.setattr("wonderful.involution.apply_matrix", refuse)
    assert validate(rec) == []
    assert build_report(rec).restricted_type == rec.stored.restricted_type


def _body_runs(funcs, action):
    """How often the undecorated body of each function ran during action()."""
    codes = {getattr(f, "__wrapped__", f).__code__: f.__name__ for f in funcs}
    runs = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            runs[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return runs


def test_validate_then_report_share_one_derivation():
    rec = instantiate(CAT, "AIII", {"n": 7, "r": 2})

    def validate_then_report():
        assert validate(rec) == []
        build_report(rec)

    runs = _body_runs([nilpotent_orbit_dimension, minimal_covering_classes,
                       marked_diagrams], validate_then_report)
    assert runs == {"nilpotent_orbit_dimension": 1, "minimal_covering_classes": 1,
                    "marked_diagrams": 1}


def test_tampered_copy_of_validated_record_is_checked_afresh():
    rec = instantiate(CAT, "FII", {})
    assert validate(rec) == []
    kd = rec.kac
    i = kd.blacks[0]
    colors = tuple("w" if k == i else c for k, c in enumerate(kd.colors))
    tampered = dataclasses.replace(rec, kac=dataclasses.replace(kd, colors=colors))
    assert {"kac-descriptors", "vmrt-components"} <= {f.name for f in validate(tampered)}

    rec = instantiate(CAT, "AI", {"r": 3})
    assert validate(rec) == []
    tampered = dataclasses.replace(
        rec, stored=dataclasses.replace(rec.stored, vmrt=("Q4",)))
    assert "vmrt-components" in {f.name for f in validate(tampered)}
    assert build_report(tampered) is not build_report(rec)
    # the VMRT of restricted type A is derived, so the stored name does not reach the report
    assert build_report(tampered).vmrt_components[0][0] == "P3"
    assert build_report(rec).vmrt_components[0][0] == rec.stored.vmrt[0] != "Q4"


def test_check_names_stable():
    assert len(ALL_CHECKS) == 20
    assert len(set(ALL_CHECKS)) == 20


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_records(CAT, 1)
    recs = enumerate_records(CAT, 3)
    labels = [r.label for r in recs]
    assert "GroupA1" in labels and "AIII" in labels
    assert all(r.ambient_rank <= 3 for r in recs)
    # catalog order, ascending parameters inside each family
    order = [CAT.by_label[l] and list(CAT.by_label).index(l) for l in labels]
    assert order == sorted(order)


def test_enumerate_rank_four():
    recs = enumerate_records(CAT, 4)
    groups = [r.params["r"] for r in recs if r.label == "GroupB"]
    assert groups == [2]
    ai = [r.params["r"] for r in recs if r.label == "AI"]
    assert ai == [2, 3, 4]
    assert all(len(validate(r)) == 0 for r in recs)


def test_catalog_expression_compiled_once_and_errors_not_cached():
    before = _compile.cache_info()
    assert _eval("7 * r + 1", {"r": 2}) == 15
    assert _eval("7 * r + 1", {"r": 5}) == 36
    for _ in range(2):
        with pytest.raises(ValueError, match="catalog expression"):
            _eval("7 * r +", {"r": 2})
    after = _compile.cache_info()
    # one miss and one hit for the valid expression, a miss per failed compile
    assert (after.misses - before.misses, after.hits - before.hits) == (3, 1)


def _catalog_expressions(catalog):
    """Every expression of a catalog: constraints, the evaluated fields and
    the {...} parts of the name templates."""
    exprs = set()
    for t in catalog.templates:
        exprs.update(t.constraints)
        exprs.update(t.data[k] for k in ("ambient", "black", "arrows", "kac"))
        for template in [t.data["gh"], t.data["restricted"], *t.data["hc"],
                         *(t.data.get("vmrt") or ())]:
            exprs.update(m.group(1) for m in _BRACE.finditer(template))
    return exprs


def test_every_shipped_expression_is_in_the_grammar():
    exprs = _catalog_expressions(CAT)
    assert len(exprs) == 118
    for expr in exprs:
        _compile(expr)


def test_every_kac_builder_is_called_by_a_shipped_family():
    # so a builder the catalog no longer needs cannot linger in src/
    called = {node.func.id for t in CAT.templates
              for node in ast.walk(ast.parse(t.data["kac"], mode="eval"))
              if isinstance(node, ast.Call)}
    assert set(KAC_BUILDERS) <= called


@pytest.mark.parametrize("expr, reason", [
    ("r.real", "Attribute is not allowed"),
    ("[1, 2][r]", "Subscript is not allowed"),
    ("r ** 2", "Pow is not allowed"),
    ("(lambda: r)()", "call of 'lambda: r' is not allowed"),
    ("list(*[r])", "Starred is not allowed"),
    ("__name__", "name '__name__' is not defined"),
    ("len([r])", "call of 'len' is not allowed"),
    ("range(r, stop=3)", "keyword is not allowed"),
    ("r and 2", "And is not allowed"),
    ("{r: 1}", "Dict is not allowed"),
    ("'%d' % r", "constant '%d' is not allowed here"),
    ("'B' if r % 2 else 'D'", "constant 'B' is not allowed here"),
    ("[i for i in [1, 2]]", "a comprehension must read [x for name in range(...)] with no "
                            "comprehension in x"),
    ("[[j for j in range(r)] for i in range(r)]", "a comprehension must read [x for "
                                                  "name in range(...)] with no comprehension in x"),
])
def test_expression_outside_the_grammar_is_refused_before_it_runs(expr, reason):
    with pytest.raises(ValueError) as info:
        _eval(expr, {"r": 2})
    assert str(info.value) == f"catalog expression {expr!r}: {reason}"


def test_a_choice_between_builder_calls_is_in_the_grammar():
    # a str constant may not be a branch of x if c else y, but a call's
    # argument may, so BDI2 picks its diagram by the parity of n this way
    expr = "affine_diagram('B', r, 0, 1) if r % 2 else affine_diagram('D', r, 0, 1)"
    for r, typ in [(3, "B"), (4, "D")]:
        assert _eval(expr, {"r": r, **KAC_BUILDERS}) == affine_diagram(typ, r, 0, 1)


@pytest.mark.parametrize("expr, reason", [
    ("[0] * 2", "* takes two ints, not list and int"),
    ("r * (1,)", "* takes two ints, not int and tuple"),
    # the inner product is rewritten too, so it refuses before the outer one runs
    ("r * ([0] * 3)", "* takes two ints, not list and int"),
    ("list(range(r, 103 + r))", "range(2, 105) has more than 101 elements"),
])
def test_expression_is_bounded_when_it_runs(expr, reason):
    with pytest.raises(ValueError) as info:
        _eval(expr, {"r": 2})
    assert str(info.value) == f"catalog expression {expr!r}: {reason}"
    assert _eval("list(range(r, 101 + r))", {"r": 2}) == list(range(2, 103))


def test_validate_and_report_build_no_fraction(monkeypatch):
    enumerate_records(CAT, 8)  # builds every root system they use
    records = enumerate_records(CAT, 8)
    assert len(records) == 147
    built = []

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for record in records:
        assert validate(record) == []
        build_report(record)
    build_root_system.cache_clear()  # so instantiate builds each root system again
    for record in records:
        instantiate(CAT, record.label, record.params)
    monkeypatch.undo()
    assert built == []


def _with_theta_bar(record, theta_bar):
    return dataclasses.replace(record, restricted=dataclasses.replace(
        record.restricted, theta_bar=theta_bar))


def _failures(record):
    return {(f.name, f.detail) for f in validate(record)}


# each check that pairs the highest restricted covector, fed a wrong theta_bar
@pytest.mark.parametrize("label, params, theta_bar, check, message", [
    ("GroupB", {"r": 2}, (2, 0, 2, 0), "boundary-degree", "non-integral dimension pairing"),
    ("AI", {"r": 3}, (1, 1, 1), "boundary-degree", "boundary degree 4 is not 1 or 2"),
    ("AI", {"r": 3}, (2, 2, 0), "theta-bar",
     "theta_bar covector inconsistent with the ambient highest root"),
    ("GroupB", {"r": 2}, (2, 0, 2, 0), "primitivity", "2 theta_bar_covector is not integral"),
    ("AI", {"r": 3}, (1, 1, 1), "primitivity", "2 theta_bar_covector is divisible"),
    ("GroupB", {"r": 2}, (0, 1, 0, 1), "primitivity", "no simple restricted root pairs to 1"),
    ("AIII", {"n": 4, "r": 1}, (1, 1, 1), "theta-bar",
     "theta_bar covector inconsistent with the ambient highest root"),
    ("AI", {"r": 3}, (2, 2, 0), "nilpotent-oracle",
     "2<theta_bar_covector, kappa> = 4 but independent count = 6"),
], ids=["dimensions-non-integral", "dimensions-degree", "theta-bar", "primitivity-integral",
        "primitivity-divisible", "primitivity-pairs-to-1", "theta-bar-exceptional",
        "nilpotent-oracle"])
def test_wrong_theta_bar_fails_the_check(label, params, theta_bar, check, message):
    record = instantiate(CAT, label, params)
    assert validate(record) == []
    assert (check, message) in _failures(_with_theta_bar(record, theta_bar))


def test_wrong_theta_bar_expansion_fails_the_minimal_classes_check():
    # the enumeration reads theta_bar_expansion: BC1's (1,) read as (2,)
    # splits 2 over the two exceptional colors in 3 ways
    record = instantiate(CAT, "AIII", {"n": 4, "r": 1})
    forged = dataclasses.replace(record, restricted=dataclasses.replace(
        record.restricted, theta_bar_expansion=(2,)))
    assert ("minimal-classes", "expected 2 minimal classes, found 3") in _failures(forged)


def test_missing_exceptional_pair_fails_the_picard_rank():
    # AIII n=5 r=2 is exceptional: its three colors are one more than its
    # restricted rank, which a non-exceptional system must equal
    record = instantiate(CAT, "AIII", {"n": 5, "r": 2})
    forged = dataclasses.replace(record, restricted=dataclasses.replace(
        record.restricted, exceptional_pair=None))
    failures = _failures(forged)
    assert ("picard-rank", "Picard rank 3, expected 2") in failures
    assert {name for name, _ in failures} == {
        "exceptional-flag", "picard-rank", "minimal-classes", "pushforward",
        "kac-descriptors", "vmrt-components", "emb-structure"}


def test_wrong_orbit_dimension_fails_the_kappa_identity(monkeypatch):
    record = instantiate(CAT, "CII", {"n": 3, "r": 1})
    s, dim_family, dim_orbit, dim_hc = dimensions(record.restricted)
    monkeypatch.setattr("wonderful.catalog.dimensions",
                        lambda rrs: (s, dim_family, dim_orbit + 2, dim_hc))
    assert ("kappa-identity", "<theta_bar_covector, kappa> != <theta_bar_covector, 2 rho>") \
        in _failures(record)


def test_wrong_minimal_class_fails_the_pushforward(monkeypatch):
    record = instantiate(CAT, "CII", {"n": 3, "r": 1})
    (gamma,) = minimal_covering_classes(record.restricted)
    monkeypatch.setattr("wonderful.curves.minimal_covering_classes",
                        lambda rrs: (tuple(c + 1 for c in gamma),))
    assert ("pushforward", "pushforward class disagrees with the degree functional") \
        in _failures(record)


@pytest.mark.parametrize("image, message", [
    ((2, 2, 1), "theta and sigma(theta) are not orthogonal"),
    ((0, 0, -1), "-sigma(theta) is not the highest root of its component of the "
                 "orthogonal subsystem"),
], ids=["not-orthogonal", "not-highest"])
def test_wrong_sigma_theta_fails_strong_orthogonality(image, message):
    # C3 with theta = 2 alpha_1 + 2 alpha_2 + alpha_3; alpha_3 is orthogonal and
    # strongly orthogonal to theta, but not the highest root of the C2 beside it
    inv = instantiate(CAT, "CII", {"n": 3, "r": 1}).involution
    check_strong_orthogonality(inv)
    index = root_codes(inv.root_system)[1]
    perm = list(range(len(index)))
    perm[index[pack((2, 2, 1))]] = index[pack(image)]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_strong_orthogonality(dataclasses.replace(inv, sigma_perm=tuple(perm)))
