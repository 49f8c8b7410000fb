"""Command line interface behavior."""

import hashlib
import importlib
import json
import os
import pkgutil
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wonderful
from wonderful.catalog import instantiate, load_catalog, validate
from wonderful.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", "AIII", "n=4", "r=1")
    assert code == 0
    assert "restricted type: BC1" in out
    assert "minimal families: 2" in out
    assert "P2∨" in out
    assert "dim of nilpotent orbit: 6" in out


def test_report_ascii(capsys):
    code, out, _ = run(capsys, "report", "AIII", "n=4", "r=1", "--ascii")
    assert code == 0
    assert "P2*" in out
    assert "∨" not in out


def test_report_json_deterministic(capsys):
    code, first, _ = run(capsys, "report", "CI", "r=3", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "report", "CI", "r=3", "--format", "json")
    assert first == second
    doc = json.loads(first)
    assert doc["family"] == "CI"
    assert doc["restricted_type"] == "C3"
    assert doc["fano"] is False
    assert doc["n_families"] == 1
    assert len(doc["vmrt_components"]) == 2
    assert doc["families"][0]["embedding_degree"] == [2]


def test_report_routes_low_rank(capsys):
    code, out, _ = run(capsys, "report", "BDI", "n=5", "r=1")
    assert code == 0
    assert "family: BDII n=5" in out


def test_report_json_dual_flag(capsys):
    code, out, _ = run(capsys, "report", "AIII", "n=7", "r=2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [f["dual"] for f in doc["families"]] == [False, True]
    assert doc["exceptional"] is True
    assert doc["picard_rank"] == 3


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--max-rank", "3")
    assert code == 0
    assert "18 instances" in out
    assert "GroupA1" in out and "BDII" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--max-rank", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 18
    assert all("dim_family" in row for row in doc)


def test_roots_text(capsys):
    code, out, _ = run(capsys, "roots", "BDI", "n=7", "r=3")
    assert code == 0
    assert "ambient type: B3" in out
    assert "restricted type: B3" in out
    assert "highest root covector: (1/2, 1, 1/2)" in out


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "AIII", "n=4", "r=1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["black_nodes"] == [2]
    assert doc["arrows"] == [[1, 3]]
    assert doc["restricted_type"] == "BC1"
    assert doc["theta_bar_covector"] == ["1/2", "1/2", "1/2"]


def test_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "report", "NOPE")
    assert code == 2
    assert "unknown family" in err


def test_bad_parameter_exits_2(capsys):
    code, _, err = run(capsys, "report", "AI", "r=x")
    assert code == 2
    assert "must be an integer" in err
    code, _, err = run(capsys, "report", "AI", "rank:3")
    assert code == 2
    code, _, err = run(capsys, "report", "AI", "r=1", "n=2")
    assert code == 2


def test_repeated_parameter_exits_2(capsys):
    code, out, err = run(capsys, "report", "AI", "r=4", "r=5")
    assert code == 2
    assert out == ""
    assert err == "error: parameter r given twice\n"


@pytest.mark.parametrize("argv, message", [
    (("report", "AI", "r=99999999999999999999"),
     "family AI: ambient rank 99999999999999999999 is above the ceiling 100"),
    (("report", "AI", "r=101"), "family AI: ambient rank 101 is above the ceiling 100"),
    (("report", "GroupA", "r=51"), "family GroupA: ambient rank 102 is above the ceiling 100"),
    (("table", "--max-rank", "101"), "--max-rank 101 is above the ambient rank ceiling 100"),
], ids=["huge", "101", "group", "table"])
def test_rank_above_ceiling_exits_2_before_construction(monkeypatch, capsys, argv, message):
    def refuse(components):
        raise AssertionError("root system built above the ceiling")

    monkeypatch.setattr("wonderful.catalog.build_root_system", refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_rank_ceiling_admits_rank_100(monkeypatch):
    def reached(components):
        raise LookupError(components)

    monkeypatch.setattr("wonderful.catalog.build_root_system", reached)
    with pytest.raises(LookupError, match="'A', 100"):
        instantiate(load_catalog(), "AI", {"r": 100})


def test_constraint_violation_exits_2(capsys):
    code, _, err = run(capsys, "report", "CI", "r=2")
    assert code == 2
    assert "condition" in err


def test_missing_catalog_exits_2(capsys):
    code, _, err = run(capsys, "check", "--catalog", "/no/such/file.json")
    assert code == 2


def _write_catalog(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _shipped_catalog():
    catalog = load_catalog()
    return {"version": catalog.version,
            "families": [dict(t.data) for t in catalog.templates]}


def _drop_ambient(doc):
    del doc["families"][3]["ambient"]
    return doc


def _drop_label(doc):
    del doc["families"][2]["label"]
    return doc


def _set_field(key, value, label=None):
    def corrupt(doc):
        family = next(f for f in doc["families"] if label in (None, f["label"]))
        family[key] = value
        return doc
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_drop_ambient, "catalog family 'GroupE6': missing field 'ambient'"),
    (lambda doc: doc["families"],
     "catalog must be a mapping with a 'version' and a 'families' list"),
    (_drop_label, "catalog families[2]: missing field 'label'"),
    (_set_field("hc", [5]), "catalog family 'GroupB': field 'hc' must be a list of str"),
    (_set_field("emb", ["x"]), "catalog family 'GroupB': field 'emb' must be a list of int"),
    (_set_field("hermitian", "yes", label="CI"),
     "catalog family 'CI': field 'hermitian' must be null, 'e' or 'ne'"),
], ids=["no-ambient", "top-level-list", "no-label", "hc-not-str", "emb-not-int",
        "hermitian-not-e-or-ne"])
def test_malformed_catalog_exits_2(capsys, tmp_path, corrupt, message):
    path = _write_catalog(tmp_path / "bad.json", corrupt(_shipped_catalog()))
    code, _, err = run(capsys, "check", "--max-rank", "3", "--catalog", path)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("version", ["1\nall checks passed\n", True],
                         ids=["forged-line", "true"])
def test_catalog_version_not_an_int_exits_2(capsys, tmp_path, version):
    # check prints the version: a string could forge a line of its report
    doc = dict(_shipped_catalog(), version=version)
    path = _write_catalog(tmp_path / "version.json", doc)
    code, out, err = run(capsys, "check", "--max-rank", "2", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == "error: catalog field 'version' must be an int\n"


def test_check_of_no_instance_exits_2(capsys, tmp_path):
    path = _write_catalog(tmp_path / "empty.json", {"version": 1, "families": []})
    code, out, err = run(capsys, "check", "--max-rank", "8", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == "error: no catalog instance has ambient rank <= 8\n"
    code, out, _ = run(capsys, "table", "--max-rank", "8", "--catalog", path)
    assert code == 0
    assert out.endswith("0 instances, ambient rank <= 8\n")


def test_family_with_more_than_two_params_exits_2(capsys, tmp_path):
    # enumerate_records tries (2 max_rank + 1)^params tuples: GroupB with three
    # parameters pinned to 1 would take 33^4 steps at --max-rank 16
    doc = _shipped_catalog()
    group_b = next(f for f in doc["families"] if f["label"] == "GroupB")
    group_b["params"] = ["r", "a", "b", "c"]
    group_b["constraints"] = ["2 <= r", "a <= 1", "b <= 1", "c <= 1"]
    path = _write_catalog(tmp_path / "params.json", doc)
    code, out, err = run(capsys, "check", "--max-rank", "16", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == ("error: catalog family 'GroupB': field 'params' lists 4 "
                   "parameters, more than 2\n")


def test_satake_datum_failing_araki_exits_2(capsys, tmp_path):
    # G2 with black node 2 is no real form's diagram: instantiating it fails
    path = _write_catalog(tmp_path / "g2.json", _set_field("black", "[2]", label="G")(
        _shipped_catalog()))
    code, out, err = run(capsys, "report", "G", "--catalog", path)
    assert (code, out) == (2, "")
    assert "(Araki's condition)" in err


@pytest.mark.parametrize("arrows", ["[(1, 5)]", "[(0, 4)]"], ids=["past-rank", "zero"])
def test_arrow_endpoint_out_of_range_exits_2(capsys, tmp_path, arrows):
    # AIII n=5 has ambient A4: node 5 is past the rank, and node 0 would wrap
    # to the last node
    path = _write_catalog(tmp_path / "arrows.json", _set_field("arrows", arrows, label="AIII")(
        _shipped_catalog()))
    code, out, err = run(capsys, "report", "AIII", "n=5", "r=2", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == "error: inconsistent Satake data: node index out of range\n"


@pytest.mark.parametrize("key, expr, message", [
    ("ambient", "__import__", "name '__import__' is not defined"),
    ("kac", "affine_diagram('B', r", "'(' was never closed (<catalog>, line 1)"),
], ids=["name-error", "syntax-error"])
def test_unevaluable_catalog_expression_exits_2(capsys, tmp_path, key, expr, message):
    path = _write_catalog(tmp_path / "bad.json",
                          _set_field(key, expr)(_shipped_catalog()))
    code, _, err = run(capsys, "report", "GroupB", "r=2", "--catalog", path)
    assert code == 2
    assert "Traceback" not in err
    assert err == f"error: catalog expression {expr!r}: {message}\n"


@pytest.mark.parametrize("key, expr, shape", [
    ("ambient", "5", "a list of (type, rank) pairs"),
    ("ambient", "[5]", "a list of (type, rank) pairs"),
    ("black", "5", "a list of ints"),
    ("black", "[[1]]", "a list of ints"),
    ("arrows", "[1]", "a list of node pairs"),
    ("kac", "5", "a Kac diagram"),
    ("kac", "[(1, 2)]", "a Kac diagram"),
], ids=["ambient-int", "ambient-list-of-int", "black-int", "black-nested",
        "arrows-list-of-int", "kac-int", "kac-list"])
def test_catalog_expression_of_the_wrong_shape_exits_2(capsys, tmp_path, key, expr, shape):
    # each evaluates under the grammar, to a value its reader cannot take
    path = _write_catalog(tmp_path / "shape.json",
                          _set_field(key, expr, label="AI")(_shipped_catalog()))
    code, out, err = run(capsys, "report", "AI", "r=3", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == f"error: catalog family 'AI': field {key!r} must evaluate to {shape}\n"


@pytest.mark.parametrize("expr, reason", [
    ("kac_sym2(0)", "invalid component B0"),
    ("kac_sym2(1)", "invalid component D1"),
    ("kac_wedge2(0)", "invalid component C1"),
    ("kac_tensor(2, 5)", "invalid component B-2"),
    ("kac_tensor(1, 1)", "invalid component D0"),
    ("kac_tensor(0, 0)", "invalid component D0"),
    ("kac_cycle(3, 7)", "white nodes [0, 7] are not all among the 3 nodes"),
])
def test_kac_builder_outside_its_domain_exits_2(capsys, tmp_path, expr, reason):
    # so_1, so_2 and sp_2 have no diagram to attach, and kac_cycle(3, 7)
    # names a node past the 3-cycle
    path = _write_catalog(tmp_path / "kac.json",
                          _set_field("kac", expr, label="AI")(_shipped_catalog()))
    code, out, err = run(capsys, "report", "AI", "r=3", "--catalog", path)
    assert (code, out) == (2, "")
    assert err == f"error: catalog expression {expr!r}: {reason}\n"


# a constraint that reaches every class of the interpreter through attributes
_ESCAPE = "len(().__class__.__base__.__subclasses__()) > 0 and 2 <= r"


@pytest.mark.parametrize("key, value, reason", [
    ("constraints", [_ESCAPE], "And is not allowed"),
    ("constraints", ["().__class__ or 2 <= r"], "Attribute is not allowed"),
    ("black", "[0] * 1000000000", "* takes two ints, not list and int"),
    ("black", "list(range(1000000000))",
     "range(0, 1000000000) has more than 101 elements"),
    ("arrows", "[(i, i + 1) for i in range(1, 1000000000)]",
     "range(1, 1000000000) has more than 101 elements"),
    ("kac", "kac_sym2(300)", "rank 150 is above the ambient rank ceiling 100"),
], ids=["subclasses-escape", "attribute", "list-times-int", "long-range",
        "long-comprehension", "builder-above-ceiling"])
def test_catalog_expression_outside_the_grammar_or_its_bounds_exits_2(
        tmp_path, key, value, reason):
    path = _write_catalog(tmp_path / "bad.json",
                          _set_field(key, value, label="GroupB")(_shipped_catalog()))
    # GroupB r=2 has ambient rank 4; a run without the bounds would build lists
    # of a billion entries, so the child may not map more than 1 GiB
    proc = subprocess.run(
        _cli_argv("check", "--max-rank", "4", "--catalog", path),
        capture_output=True, text=True, env=_src_env(), timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    expr = value[0] if key == "constraints" else value
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", f"error: catalog expression {expr!r}: {reason}\n")


def test_unparsable_catalog_exits_2(capsys, tmp_path):
    path = _write_catalog(tmp_path / "bad.json", _shipped_catalog())
    with open(path, "r+", encoding="utf-8") as fh:
        fh.truncate(100)
    code, _, err = run(capsys, "report", "G", "--catalog", path)
    assert code == 2
    assert err.startswith("error: catalog is not valid JSON: ")


def test_catalog_integer_past_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "digits.json"
    path.write_text('{"version": ' + "9" * 5000 + ', "families": []}', encoding="utf-8")
    code, out, err = run(capsys, "check", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: catalog is not valid JSON: Exceeds the limit")


def _nested_catalog(path, depth):
    path.write_text('{"version": 1, "families": ' + "[" * depth + "]" * depth + "}\n",
                    encoding="utf-8")
    return str(path)


def _cli_argv(*args):
    """A command line that runs the CLI of this checkout in a new interpreter."""
    return [sys.executable, "-c", "import sys; from wonderful.cli import main; "
            "sys.exit(main(sys.argv[1:]))", *args]


def _src_env():
    src = str(Path(wonderful.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("depth", [5000, 100000])
def test_deeply_nested_catalog_exits_2(tmp_path, depth):
    # json's decoder recurses once per level: run in a subprocess, so that a
    # crash fails here
    path = _nested_catalog(tmp_path / "deep.json", depth)
    proc = subprocess.run(
        _cli_argv("check", "--max-rank", "3", "--catalog", path),
        capture_output=True, text=True, env=_src_env(), timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: catalog nests collections too deep\n")


def test_aliased_yaml_catalog_exits_2(tmp_path):
    # 10.5 KB of YAML whose version is 10**8 aliases of one string: a YAML loader
    # builds it in milliseconds, and formatting that version exhausts memory
    lines = ["a0: &a0 " + "x" * 10000]
    lines += [f"a{k}: &a{k} [" + ", ".join([f"*a{k - 1}"] * 10) + "]" for k in range(1, 9)]
    path = tmp_path / "aliases.yaml"
    path.write_text("\n".join(lines + ["version: *a8", "families: []", ""]),
                    encoding="utf-8")
    proc = subprocess.run(
        _cli_argv("check", "--max-rank", "2", "--catalog", str(path)),
        capture_output=True, text=True, env=_src_env(), timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: catalog is not valid JSON: ")
    assert proc.stderr.count("\n") == 1


def test_catalog_longer_than_the_bound_exits_2(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(" " * 1_000_001, encoding="utf-8")
    proc = subprocess.run(
        _cli_argv("check", "--max-rank", "3", "--catalog", str(path)),
        capture_output=True, text=True, env=_src_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: catalog is longer than 1000000 characters\n")


# caches keyed per root system, whose rank is capped at the ambient rank ceiling
_UNBOUNDED_CACHES = {"rootsystem.build_root_system", "rootsystem._root_generation",
                     "rootsystem.highest_roots", "rootsystem.two_rho",
                     "rootsystem.minus_w0_permutation"}


def test_every_other_lru_cache_is_bounded():
    # a --catalog can name any number of distinct diagrams and names
    caches = {}
    for info in pkgutil.iter_modules(wonderful.__path__):
        module = importlib.import_module(f"wonderful.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = obj.cache_parameters()["maxsize"]
    assert {"rootsystem._identify", "kac._factor_dim", "kac.normalize_name",
            "kac._factors", "expressions._compile"} <= set(caches)
    assert {name for name, maxsize in caches.items() if maxsize is None} <= _UNBOUNDED_CACHES


def _drop_family(label):
    def corrupt(doc):
        doc["families"] = [f for f in doc["families"] if f["label"] != label]
        return doc
    return corrupt


@pytest.mark.parametrize("corrupt, argv, message", [
    (_drop_family("AI1"), ["AI", "r=1"],
     "family AI with {'r': 1} belongs to family AI1 with parameters [], "
     "which the catalog lacks"),
    (_set_field("params", ["m"], label="BDI2"), ["BDI", "n=7", "r=2"],
     "family BDI with {'n': 7, 'r': 2} belongs to family BDI2 with parameters "
     "['n'], which the catalog lacks"),
    # a BDI without n is not routed, so its own condition decides
    (_set_field("params", ["r"], label="BDI"), ["BDI", "r=2"],
     "family BDI: condition '3 <= r' fails for {'r': 2}"),
], ids=["missing", "other-params", "unrouted"])
def test_catalog_without_a_routed_family_exits_2(capsys, tmp_path, corrupt, argv,
                                                 message):
    path = _write_catalog(tmp_path / "routed.json", corrupt(_shipped_catalog()))
    code, out, err = run(capsys, "report", *argv, "--catalog", path)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_stored_name_above_the_rank_ceiling_is_a_failed_check(capsys, tmp_path):
    path = _write_catalog(tmp_path / "big.json",
                          _set_field("hc", ["Gr(2,120)"], label="GroupB")(_shipped_catalog()))
    code, out, err = run(capsys, "check", "--max-rank", "4", "--catalog", path)
    assert (code, err) == (1, "")
    assert ("  GroupB r=2: vmrt-components: rank 119 is above the ambient rank "
            "ceiling 100\n") in out


def test_family_head_lines(capsys, tmp_path):
    code, out, _ = run(capsys, "roots", "DIIIodd", "r=2")
    assert code == 0
    assert out.splitlines()[0] == "family: DIIIodd r=2"
    code, out, _ = run(capsys, "roots", "G")
    assert out.splitlines()[0] == "family: G"
    doc = _shipped_catalog()
    bdii = next(f for f in doc["families"] if f["label"] == "BDII")
    bdii["fano"] = not bdii["fano"]
    path = _write_catalog(tmp_path / "fano.json", doc)
    code, out, _ = run(capsys, "check", "--max-rank", "3", "--catalog", path)
    assert code == 1
    assert "  BDII n=5: fano: computed True, stored False\n" in out


def test_engine_bug_is_an_internal_error_not_a_failed_check(monkeypatch, capsys):
    def broken(rrs):
        raise TypeError("broken engine")

    monkeypatch.setattr("wonderful.catalog.is_fano", broken)
    with pytest.raises(TypeError):
        validate(instantiate(load_catalog(), "AI", {"r": 3}))
    code, out, err = run(capsys, "check", "--max-rank", "3")
    assert code == 3
    assert out == ""
    assert err == "internal error: TypeError: broken engine\n"


def test_closed_pipe_exits_141_without_a_message():
    # the JSON table (about 148 kB) is more than a pipe holds, so the CLI is
    # still writing when the reader goes
    proc = subprocess.Popen(_cli_argv("table", "--max-rank", "8", "--format", "json"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=300), err) == (141, b"")


@pytest.mark.parametrize("argv", [("check", "--ascii"), ("roots", "AI", "r=2", "--ascii")],
                         ids=["check", "roots"])
def test_ascii_is_refused_where_no_text_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --ascii" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "wonderful" in capsys.readouterr().out


# SHA-256 of stdout for the whole rank <= 8 table and check, for the
# exceptional groups, whose affine E6/E7/E8 Kac diagrams only ambient ranks
# 12-16 reach, and for four instances of ambient rank 19-40 with long black
# chains.  A refactor or speed-up must not change a byte (a value that turns
# from Fraction to int, or back, would).
OUTPUT_DIGESTS = {
    ("table", "--max-rank", "8", "--format", "json"):
        "b4cb5daf15fe4e333686dcc047a5a51405caba3c9f63aa3dded0f75918c1a79c",
    ("check", "--max-rank", "8"):
        "d18c706ea29bbf016bb7e20f2ae36d34e900fe35916fcda21d4fc047c8e739c5",
    ("report", "GroupE6", "--format", "json"):
        "81918a22a957293dd1a9f9d743e0f6946afa4403988231797d49509308dda254",
    ("report", "GroupE7", "--format", "json"):
        "1c0710d124d2786457b575a84a9300b466844a7b5ecf9194017f798fa6aa9d8f",
    ("report", "GroupE8", "--format", "json"):
        "fe70a3ea7efe9c69457d2b2ab9f14f4a2d335053b3a77a6150e8f72ea93c413b",
    ("report", "AI", "r=40", "--format", "json"):
        "64a470d14c9c8b2c8be29ba5f46cc47bfb816296d1b96a272723b4fbf5fd031b",
    ("report", "AIII", "n=40", "r=3", "--format", "json"):
        "78debc51b7cea1aaac33b4196ff82e6e06aa4504beb619dcae4842d6a11f57fb",
    ("report", "CII", "n=20", "r=3", "--format", "json"):
        "ffe610cb2476fa35c379fb573aab9830dd2385b3396756bfb66e23f46ba9cccd",
    ("report", "DIIIodd", "r=10", "--format", "json"):
        "43eedc3588e565188327cda92ad2508c7f99b6cba8b988b4c5f03d4a8e580bf0",
    ("report", "AIII", "n=7", "r=2"):
        "32b2c1512c6b742d5d75e1762eb26aaaae00a994156d95e81d2dfda8f7f71829",
    ("report", "AIII", "n=4", "r=1", "--ascii"):
        "75d9dd744c8f8b9140f705815009b27db3c0864ccb63131a3b1a0772f9bb4c33",
    ("report", "EVII"):
        "356b1e814bab936eda0f1fde2168feba7b242f294f21cb2cdcef6380a3942c8e",
    ("report", "CI", "r=3"):
        "0dc0c86bf9a4974851907f283dfeeadfeb318d3f57f6f93fd7182ff800fdba69",
    ("table", "--max-rank", "8"):
        "777c50d262315e3a160a6e63301f0e4f8ce977607161dbd1fd66cc64e6996eb9",
    # every B, C and D of rank <= 16 and E6-E8 read their root lengths
    ("check", "--max-rank", "16"):
        "584e6a16b9cf20e694ee1e9fb17ef38d15c25a762882b621744406dded4aeb19",
    # every family up to rank 24: the Kac marks and the restricted Cartan
    # matrices of 1,030 instances
    ("check", "--max-rank", "24"):
        "d20c81092373e98d1648bc3566c21d3ff5c565990fc03afb226ec8662b5615e9",
    # colors and Fano-ness over 100 white nodes
    ("report", "AI", "r=100", "--format", "json"):
        "ee0e2bb43c3066eae0a46de078f2c55e376b8948eec932d10f15a6489c371128",
    # Araki's condition on a C94 black component
    ("report", "CII", "n=100", "r=3", "--format", "json"):
        "f4737fcbf1e4ec02d93a5dfdf101fcf036193ace0f330c986960fe69cd436b83",
}


@pytest.mark.parametrize("argv", list(OUTPUT_DIGESTS),
                         ids=["table", "check", "GroupE6", "GroupE7", "GroupE8",
                              "AI-r40", "AIII-n40-r3", "CII-n20-r3", "DIIIodd-r10",
                              "AIII-n7-r2-text", "AIII-n4-r1-ascii", "EVII-text",
                              "CI-r3-text", "table-text", "check-r16", "check-r24", "AI-r100",
                              "CII-n100-r3"])
def test_output_is_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OUTPUT_DIGESTS[argv]


# `roots` prints the highest restricted covector, the one coroot the CLI
# builds from theta_bar; these digests pin its printed coordinates for a
# doubled (BC) restricted root, a C/BC type, an exceptional, a group case and
# a high rank.
ROOTS_DIGESTS = {
    ("AIII", "n=7", "r=2"): "8e3d955819b8ea6733c8b332ed2923ac4f162858405a97412440bbb2c58d1b08",
    ("CII", "n=20", "r=3"): "064e2c735fcec7b4e2d0e4b5f824fe80b5c2ca57ed94c52a3fc3b36f77b19c94",
    ("EIII",): "34566740e776754f09c6e5d46369183ae4ebab533f90c793e2f7c22e6ba96609",
    ("GroupE8",): "bc4409597e1c8c8c522ceb6a7bcc39b34882b71249e1a4778290e152ab90de46",
    ("AI", "r=40"): "768b3404039513e42d015c9ad75e7dfcf93a1d970546766646724b141667c7ef",
}


@pytest.mark.parametrize("family", list(ROOTS_DIGESTS), ids="-".join)
def test_roots_output_is_byte_identical(capsys, family):
    code, out, _ = run(capsys, "roots", *family, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ROOTS_DIGESTS[family]


# perfbench/run.py:per_layer reads fold["<module>.<function>"] for the
# three-part metric names of BENCHMARK.json and raises KeyError on a traced
# run when one of them is gone.
with open(Path(__file__).resolve().parents[1] / "BENCHMARK.json", encoding="utf-8") as f:
    BENCHMARK_FUNCTIONS = sorted({m["name"].rsplit(".", 1)[0]
                                  for m in json.load(f)["per_layer"]
                                  if m["name"].count(".") == 2})


@pytest.mark.parametrize("name", BENCHMARK_FUNCTIONS)
def test_benchmark_traced_function_exists(name):
    module, attr = name.split(".")
    module = importlib.import_module(f"wonderful.{module}")
    func = getattr(module, attr, None)
    assert func is not None, name
    assert func.__module__ == module.__name__
    assert isinstance(func, types.FunctionType) or hasattr(func, "cache_info")
