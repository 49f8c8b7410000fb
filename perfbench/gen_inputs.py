"""Regenerate the committed inputs and references under perfbench/data.

    python3 perfbench/gen_inputs.py

Run from the repository root on a commit whose engine output is trusted;
the references pin that output, so rerun this only when a change is meant
to alter it.  Takes about a minute.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import wonderful  # noqa: E402
from workloads import (  # noqa: E402
    BIG_REPORTS,
    DATA_DIR,
    SCAN_MAX_RANK,
    SWEEP_MAX_RANK,
    report_digest,
    report_json,
    scan_data,
)


def sweep_ops(catalog):
    ops = []
    for record in wonderful.enumerate_records(catalog, SWEEP_MAX_RANK):
        if wonderful.validate(record):
            raise SystemExit(f"{record.label} {record.params} fails validate")
        ops.append({
            "label": record.label,
            "params": dict(record.params),
            "rank": record.ambient_rank,
            "digest": report_digest(wonderful.build_report(record)),
        })
    return ops


def big_report_ops():
    ops = []
    for family, params in BIG_REPORTS:
        code, text = report_json(family, params)
        if code != 0:
            raise SystemExit(f"report {family} {params} exited {code}")
        ops.append({"family": family, "params": list(params),
                    "reference": text})
    return ops


def scan_ops(catalog):
    """The raw Satake data, each anchored to the restricted type of the
    irreducible catalog instance it equals, if any."""
    anchors = {}
    for record in wonderful.enumerate_records(catalog, SCAN_MAX_RANK):
        components = record.root_system.components
        if len(components) != 1:
            continue
        sd = record.involution.satake
        perm = sd.diagram_involution
        arrows = tuple((i, perm[i]) for i in sd.white_nodes if i < perm[i])
        anchors[(*components[0], sd.black_nodes, arrows)] = \
            record.restricted.type_label
    data = scan_data(SCAN_MAX_RANK)
    missing = set(anchors) - set(data)
    if missing:
        raise SystemExit(f"catalog data missing from the scan: {missing}")
    return [{"type": typ, "rank": n, "black": list(black),
             "arrows": [list(a) for a in arrows],
             "anchor": anchors.get((typ, n, black, arrows))}
            for typ, n, black, arrows in data]


def write(name, meta, ops):
    path = DATA_DIR / f"{name}.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump({**meta, "ops": ops}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{path.relative_to(ROOT)}: {len(ops)} ops")


def main():
    catalog = wonderful.load_catalog()
    write("sweep-8", {"max_rank": SWEEP_MAX_RANK}, sweep_ops(catalog))
    write("big-reports", {}, big_report_ops())
    write("satake-scan", {"max_rank": SCAN_MAX_RANK}, scan_ops(catalog))


if __name__ == "__main__":
    main()
