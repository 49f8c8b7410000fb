"""Workload inputs, operations and correctness checks of the benchmark.

Three closed-loop workloads, one caller each, run through the package's
public API and CLI entry point:

  sweep-8      instantiate -> validate -> build_report for each of the 147
               catalog instances of ambient rank <= 8 (the check + table
               pass); the only workload that reaches curves, invariants,
               kac and catalog.validate, and it reuses cached root systems
               across many small instances.
  big-reports  `wonderful report F ... --format json` for AI r=16, GroupE8
               and EVIII: what a user waits for on a large instance,
               dominated by per-root cost in restricted/linalg, with no
               validation and no cache reuse.
  satake-scan  make_satake -> build_involution -> build_restricted for
               every distinct raw Satake datum of rank <= 6; most data end
               on the involution rejection path, and the catalog, curves,
               invariants and kac layers are never touched.

The inputs are fixed and committed under data/; the seed only permutes
the order of the operations, which matters because cache reuse across
instances depends on it.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import wonderful
import wonderful.cli
from wonderful.involution import SatakeError

DATA_DIR = Path(__file__).resolve().parent / "data"

# Layers each workload is expected to reach in its timed phase.
LAYERS = {
    "sweep-8": ("catalog", "rootsystem", "involution", "restricted",
                "curves", "invariants", "kac", "linalg"),
    "big-reports": ("cli", "catalog", "rootsystem", "involution",
                    "restricted", "curves", "invariants", "kac", "linalg"),
    "satake-scan": ("rootsystem", "involution", "restricted", "linalg"),
}

SWEEP_MAX_RANK = 8
SCAN_MAX_RANK = 6
BIG_REPORTS = (("AI", ("r=16",)), ("GroupE8", ()), ("EVIII", ()))


def load_ops(workload, data_dir=DATA_DIR):
    """The committed operation list of a workload."""
    if workload not in RUN_OP:
        raise ValueError(f"unknown workload {workload!r}")
    with open(Path(data_dir) / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def op_order(n_ops, seed):
    """The seeded permutation of operation indices."""
    order = list(range(n_ops))
    random.Random(seed).shuffle(order)
    return order


def report_digest(report):
    """SHA-256 of a canonical serialisation of a VmrtReport."""
    text = json.dumps(dataclasses.asdict(report), sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def report_json(family, params):
    """Exit code and stdout of `wonderful report ... --format json`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wonderful.cli.main(["report", family, *params,
                                   "--format", "json"])
    return code, out.getvalue()


def _sweep_op(catalog, op):
    record = wonderful.instantiate(catalog, op["label"], op["params"])
    failures = wonderful.validate(record)
    report = wonderful.build_report(record)
    if failures:
        return False, "validate: " + "; ".join(f.name for f in failures)
    if report_digest(report) != op["digest"]:
        return False, "report digest differs from the reference"
    return True, "ok"


def _big_report_op(catalog, op):
    code, text = report_json(op["family"], op["params"])
    if code != 0:
        return False, f"exit code {code}"
    if text != op["reference"]:
        return False, "report JSON differs from the reference"
    return True, "ok"


def _scan_op(catalog, op):
    """Outcome of one raw Satake datum.  Rejections are expected results,
    except for the data anchored to a catalog instance."""
    rs = wonderful.build_root_system(((op["type"], op["rank"]),))
    sd = wonderful.make_satake(rs, op["black"],
                               [tuple(a) for a in op["arrows"]])
    anchor = op["anchor"]
    try:
        inv = wonderful.build_involution(sd)
    except SatakeError:
        return anchor is None, "rejected by involution"
    try:
        rrs = wonderful.build_restricted(inv)
    except ValueError:
        return anchor is None, "rejected by restricted"
    if anchor is not None and rrs.type_label != anchor:
        return False, f"restricted type {rrs.type_label}, anchor {anchor}"
    return True, "accepted"


RUN_OP = {
    "sweep-8": _sweep_op,
    "big-reports": _big_report_op,
    "satake-scan": _scan_op,
}


def _diagram_involutions(typ, n):
    """Involutive diagram automorphisms: the identity, the A/D/E flips and,
    for D4, the three transpositions of the outer nodes."""
    found = [tuple(range(n))]
    if typ == "A" and n >= 2:
        found.append(tuple(n - 1 - i for i in range(n)))
    if typ == "D":
        swaps = [(0, 2), (0, 3), (2, 3)] if n == 4 else [(n - 2, n - 1)]
        for a, b in swaps:
            perm = list(range(n))
            perm[a], perm[b] = b, a
            found.append(tuple(perm))
    if typ == "E" and n == 6:
        found.append((5, 1, 4, 3, 2, 0))
    return found


def scan_data(max_rank=SCAN_MAX_RANK):
    """Distinct raw Satake data (type, rank, black, arrows), 0-based.

    Every irreducible type of rank <= max_rank, every black set and every
    involutive diagram automorphism tau; the arrows are the tau-pairs of
    white nodes, so data whose arrows coincide under different tau count
    once."""
    types = ([("A", n) for n in range(1, max_rank + 1)]
             + [(t, n) for t in "BC" for n in range(2, max_rank + 1)]
             + [("D", n) for n in range(3, max_rank + 1)]
             + [(t, n) for t, n in (("E", 6), ("F", 4), ("G", 2))
                if n <= max_rank])
    seen = set()
    out = []
    for typ, n in types:
        for k in range(n + 1):
            for black in itertools.combinations(range(n), k):
                for tau in _diagram_involutions(typ, n):
                    arrows = tuple((i, tau[i]) for i in range(n)
                                   if i < tau[i] and i not in black
                                   and tau[i] not in black)
                    key = (typ, n, black, arrows)
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
    return out
