"""Tests of the benchmark itself: committed inputs, tracer reach, the gate.

    python3 -m pytest perfbench

The layer and gate tests run `run.py` on tiny variants of the workloads
(sweep at ambient rank <= 4, scan at rank <= 3, two small reports).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import wonderful  # noqa: E402
from workloads import (  # noqa: E402
    LAYERS,
    RUN_OP,
    load_ops,
    report_json,
    scan_data,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)
WORKLOADS = list(RUN_OP)


def _tiny_ops():
    big = []
    for family, params in (("AI", ["r=3"]), ("GroupG2", [])):
        code, text = report_json(family, params)
        assert code == 0
        big.append({"family": family, "params": params, "reference": text})
    return {
        "sweep-8": [op for op in load_ops("sweep-8") if op["rank"] <= 4],
        "big-reports": big,
        "satake-scan": [op for op in load_ops("satake-scan")
                        if op["rank"] <= 3],
    }


@pytest.fixture(scope="module")
def tiny_ops():
    return _tiny_ops()


def _write(data_dir, workload, ops):
    data_dir.mkdir(exist_ok=True)
    with open(data_dir / f"{workload}.json", "w", encoding="ascii") as fh:
        json.dump({"ops": ops}, fh)


def _run(workload, data_dir, trace, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--data", str(data_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else None
    return proc.returncode, result


def test_harrell_davis_quantile():
    from run import _quantile
    assert _quantile([3.0], 0.5) == 3.0
    assert _quantile([1.0, 2.0], 0.5) == pytest.approx(1.5)
    values = [i / 1000 for i in range(1001)]
    assert _quantile(values, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert _quantile(values, 0.9) == pytest.approx(0.9, abs=1e-3)
    # a weighted mean of neighbouring order statistics, not one of them
    gap = [1.0] * 9 + [2.0] * 10
    assert 1.0 < _quantile(gap, 0.5) < 2.0


def test_sweep_inputs_equal_catalog_enumeration():
    records = wonderful.enumerate_records(wonderful.load_catalog(), 8)
    assert len(records) == 147
    assert [(op["label"], op["params"]) for op in load_ops("sweep-8")] == \
        [(r.label, dict(r.params)) for r in records]


def test_scan_inputs_are_the_distinct_satake_data():
    ops = load_ops("satake-scan")
    keys = [(op["type"], op["rank"], tuple(op["black"]),
             tuple(tuple(a) for a in op["arrows"])) for op in ops]
    assert keys == scan_data()
    assert len(set(keys)) == len(keys) == 705
    assert sum(op["anchor"] is not None for op in ops) == 78


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reaches_every_layer(workload, tiny_ops, tmp_path):
    _write(tmp_path, workload, tiny_ops[workload])
    code, result = _run(workload, tmp_path, trace=1)
    assert code == 0 and result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in CONFIG["per_layer"]}
    for layer in LAYERS[workload]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    # reached only through re-bound names (`wonderful.build_involution`,
    # `catalog.build_involution`), once per op of the traced pass
    assert metrics["involution.build_involution.calls"]["value"] == \
        len(tiny_ops[workload])
    # trace.engine_s is the sum of the self times of all layers
    assert 0 < metrics["trace.engine_s"]["value"] \
        <= metrics["trace.wall_s"]["value"]


def _corrupt_digest(ops):
    ops[0]["digest"] = "0" * 64


def _unknown_family(ops):
    ops[0]["label"] = "NoSuchFamily"


def _corrupt_report(ops):
    ops[0]["reference"] += " "


def _wrong_anchor(ops):
    next(op for op in ops if op["anchor"])["anchor"] = "X9"


def _bad_rank_type(ops):
    ops[0]["rank"] = "one"


@pytest.mark.parametrize("workload, corrupt", [
    ("sweep-8", _corrupt_digest),
    ("sweep-8", _unknown_family),
    ("big-reports", _corrupt_report),
    ("satake-scan", _wrong_anchor),
    ("satake-scan", _bad_rank_type),
])
def test_negative_control_fails_the_gate(workload, corrupt, tiny_ops,
                                         tmp_path):
    ops = json.loads(json.dumps(tiny_ops[workload]))
    corrupt(ops)
    _write(tmp_path, workload, ops)
    code, result = _run(workload, tmp_path, trace=0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}


def test_clean_tiny_run_passes_the_gate(tiny_ops, tmp_path):
    _write(tmp_path, "satake-scan", tiny_ops["satake-scan"])
    code, result = _run("satake-scan", tmp_path, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _run("satake-scan", tmp_path / "perfbench" / "data",
                        trace=0, cwd=str(tmp_path))
    assert code != 0 and result is None
