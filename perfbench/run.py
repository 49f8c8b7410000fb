"""Benchmark of the wonderful engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: sweep-8, big-reports,
satake-scan (see workloads.py); BENCHMARK.json gates sweep-8 and
satake-scan only.  Each is a closed loop with one caller:
operations run one after another in a single process.  Every pass over
the workload's operations runs in a fresh interpreter (child.py), so the
engine's lru caches start cold as they do for a CLI user.

Times are scaled to a fixed reference speed.  The shared host's speed
drifts by up to 1.6x over minutes, which moves raw times between runs of
the same code far more than the bounds allow.  Each interpreter
therefore also times a fixed reference kernel (child.py: exact Fraction
elimination and dict updates, benchmark code that calls nothing of the
engine) right after set-up and between ops, about every 0.1 s, and every
time is reported as  raw time * REF_NOMINAL_S / reference time  measured
alongside it.  A change to the engine moves the scaled times as it moves
the raw ones; a change of host speed moves the reference time with them.
The raw medians are printed too, outside the result object.

Untraced (--trace 0): passes run until another would overrun S seconds
(always at least one); eight interpreters before them and eight after
only set up.  Prints the end-to-end metrics: setup_s (interpreter start
to load_catalog() returned, median over every interpreter), wall_s (a
pass's time in ops, their summed latencies), op_p50_s / op_p90_s
(Harrell-Davis estimates of per-op latency quantiles within a pass) and
peak_rss_mb (a pass's ru_maxrss), each a median over the passes.  Also
prints, outside the result object, op_max_s (the slowest op: a single
op's time, too noisy on a shared host to gate) and error_rate (failed /
attempted ops; the gate is the result's `failed` count).

Traced (--trace 1): one untraced pass and one pass with the outside-in
tracer (tracer.py); prints a table with one row per layer (calls, self
time, share of the traced set-up + wall, all raw) and the per-layer
metrics, including trace.engine_s (time inside traced calls, the sum of
all self times) and trace.overhead_ratio = traced wall_s / untraced
wall_s (scaled).  Spans go to .perfbench-out/spans-<workload>.tsv.gz.

Every op's output is checked against the committed references in data/;
the run exits 1 if any op failed.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from child import REF_NOMINAL_S
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-8", "big-reports", "satake-scan")
SETUP_ONLY_RUNS = 8
# Layers reached by every workload.  Only these report self time as a
# per-layer metric: the others would read exactly 0.0 s on every run of a
# workload that never calls them.  The layer table shows all nine.
TIMED_LAYERS = ("catalog", "rootsystem", "involution", "restricted", "linalg")
RUN_LIMIT_S = 170


class RunError(Exception):
    """The benchmark could not measure: no result is printed."""


def _child(mode, args, deadline):
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise RunError(f"time limit of {RUN_LIMIT_S} s reached")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
           args.workload, str(args.seed), args.data, repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} interpreter passed the time limit of "
                       f"{RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} interpreter exited {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quantile(values, q, steps=8):
    """Harrell-Davis estimate of quantile q in (0, 1): the mean of the
    order statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density,
    integrated by the midpoint rule over each rank's interval.  Steadier
    than one order statistic where few ops lie near the quantile, as at
    sweep-8's p90."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1
    logs = [a * math.log(t) + b * math.log1p(-t)
            for t in ((i + (k + 0.5) / steps) / n
                      for i in range(n) for k in range(steps))]
    top = max(logs)
    weights = [sum(math.exp(x - top) for x in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_setup(child):
    return child["setup_s"] * REF_NOMINAL_S / child["setup_ref_s"]


def scaled_latencies(p):
    return [t * REF_NOMINAL_S / ref
            for t, ref in zip(p["latencies"], p["op_refs"])]


def time_metrics(passes, setups, latencies_of):
    """setup_s, wall_s, op_p50_s and op_p90_s from per-interpreter set-up
    times and each pass's per-op latencies."""
    med = statistics.median
    lats = [latencies_of(p) for p in passes]
    return {
        "setup_s": _metric(med(setups), "s"),
        "wall_s": _metric(med(sum(lat) for lat in lats), "s"),
        "op_p50_s": _metric(med(_quantile(lat, 0.5) for lat in lats), "s"),
        "op_p90_s": _metric(med(_quantile(lat, 0.9) for lat in lats), "s"),
    }


def end_to_end(passes, setups):
    """The gated metrics, times scaled; `setups` are child results."""
    metrics = time_metrics(passes, [scaled_setup(c) for c in setups],
                           scaled_latencies)
    metrics["peak_rss_mb"] = _metric(
        statistics.median(p["rss_kb"] / 1024 for p in passes), "MB")
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_rows(fold):
    """{layer: [calls, self_s]} summed over the layer's functions."""
    rows = {layer: [0, 0.0] for layer in LAYERS}
    for name, row in fold.items():
        acc = rows[name.split(".")[0]]
        acc[0] += row["calls"]
        acc[1] += row["self_s"]
    return rows


def per_layer(traced, untraced, rows):
    fold = traced["fold"]
    metrics = {}
    for layer, (calls, self_s) in rows.items():
        metrics[f"{layer}.calls"] = _metric(calls, "count")
        if layer in TIMED_LAYERS:
            metrics[f"{layer}.self_s"] = _metric(self_s, "s")
    for name, unit in (("restricted.expand.calls", "count"),
                       ("restricted.expand.self_s", "s"),
                       ("linalg.invert.calls", "count"),
                       ("involution.apply_matrix.calls", "count"),
                       ("involution.apply_matrix.self_s", "s"),
                       ("rootsystem.inner_product.calls", "count"),
                       ("rootsystem.highest_roots.calls", "count"),
                       ("catalog.load_catalog.self_s", "s")):
        func, field = name.rsplit(".", 1)
        metrics[name] = _metric(fold[func][field], unit)
    for func in ("involution.build_involution", "restricted.build_restricted"):
        layer = func.split(".")[0]
        calls, accepted = fold[func]["calls"], fold[func]["accepted"]
        metrics[f"{func}.calls"] = _metric(calls, "count")
        metrics[f"{func}.accepted"] = _metric(accepted, "count")
        metrics[f"{layer}.accept_ratio"] = _metric(
            _ratio(accepted, calls), "ratio")
    hits, misses = traced["cache"]
    metrics["rootsystem.cache_hits"] = _metric(hits, "count")
    metrics["rootsystem.cache_misses"] = _metric(misses, "count")
    metrics["rootsystem.cache_hit_ratio"] = _metric(
        _ratio(hits, hits + misses), "ratio")
    metrics["trace.engine_s"] = _metric(
        sum(self_s for _, self_s in rows.values()), "s")
    metrics["trace.wall_s"] = _metric(
        traced["setup_s"] + sum(traced["latencies"]), "s")
    metrics["trace.overhead_ratio"] = _metric(
        sum(scaled_latencies(traced)) / sum(scaled_latencies(untraced)),
        "ratio")
    return metrics


def _print_layer_table(rows, metrics, out):
    total = metrics["trace.wall_s"]["value"]
    out.write(f"{'layer':<12} {'calls':>10} {'self_s':>10} {'share':>7}\n")
    for layer, (calls, self_s) in rows.items():
        out.write(f"{layer:<12} {calls:>10} {self_s:>10.4f} "
                  f"{self_s / total:>7.1%}\n")
    rest = total - metrics["trace.engine_s"]["value"]
    out.write(f"{'(outside)':<12} {'':>10} {rest:>10.4f} "
              f"{rest / total:>7.1%}\n")
    out.write(f"traced set-up + wall {total:.4f} s, overhead ratio "
              f"{metrics['trace.overhead_ratio']['value']:.3f}\n")


def measure(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        untraced = _child("pass", args, deadline)
        traced = _child("traced", args, deadline)
        passes = [untraced, traced]
        rows = layer_rows(traced["fold"])
        metrics = per_layer(traced, untraced, rows)
        _print_layer_table(rows, metrics, sys.stdout)
    else:
        # set-up samples before and after the passes, so that they do not
        # all fall in one phase of a shared host's load
        setups = [_child("setup", args, deadline)
                  for _ in range(SETUP_ONLY_RUNS)]
        passes = []
        started = time.monotonic()
        while True:
            passes.append(_child("pass", args, deadline))
            elapsed = time.monotonic() - started
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        setups += [_child("setup", args, deadline)
                   for _ in range(SETUP_ONLY_RUNS)]
        setups += passes
        metrics = end_to_end(passes, setups)
        raw = time_metrics(passes, [c["setup_s"] for c in setups],
                           lambda p: p["latencies"])
        ref = statistics.median(r for p in passes for r in p["op_refs"])
        print("raw (unscaled) medians: " + ", ".join(
            f"{name} {m['value']:.6g} s" for name, m in raw.items())
            + f"; reference kernel {ref:.6g} s "
            f"(nominal {REF_NOMINAL_S} s)")
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    slowest = statistics.median(max(scaled_latencies(p)) for p in passes)
    print(f"op_max_s {slowest:.6g} s (not gated: one op's time)")
    print(f"error_rate {len(failures) / attempted:.6g} "
          f"({len(failures)}/{attempted} ops, {len(passes)} passes)")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data", default=os.path.join(HERE, "data"),
                        help="directory holding <workload>.json inputs")
    args = parser.parse_args(argv)
    args.data = os.path.abspath(args.data)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running interpreter before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "wonderful",
                                       "__init__.py")):
        print(f"error: no engine source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(args.data, f"{args.workload}.json")):
        print(f"error: no inputs for {args.workload} in {args.data}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
