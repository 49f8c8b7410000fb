"""One fresh interpreter of the benchmark: set up, then optionally one pass.

    python3 perfbench/child.py MODE WORKLOAD SEED DATA_DIR T0

MODE is `setup` (stop after set-up), `pass` or `traced` (a pass with the
outside-in tracer installed before set-up).  T0 is the CLOCK_MONOTONIC
reading taken by the parent just before it started this interpreter, so
`setup_s` spans interpreter start-up, package import and load_catalog().
The result is printed as one JSON object on the last line of stdout.

The host's speed drifts by up to 1.6x over minutes on a shared machine,
so the interpreter also times a fixed reference kernel (`reference_s`,
benchmark code that calls nothing of the engine): several times right
after set-up, and during a pass before an op whenever CAL_INTERVAL_S has
passed since the last time, and once at the end.  Each op is paired with
the mean of the two reference times around it; run.py scales raw times
by REF_NOMINAL_S over that reference time.
"""

import os
import statistics
import sys
import time
from fractions import Fraction

# The reference kernel's time at the speed the scaled times are given in.
REF_NOMINAL_S = 0.008
CAL_INTERVAL_S = 0.1
SETUP_REFS = 5


def reference_s():
    """Time of a fixed kernel of the engine's kind of work: exact Gauss-
    Jordan elimination over Fractions, and dict updates keyed by tuples."""
    clock = time.perf_counter
    t = clock()
    n = 7
    m = [[Fraction((i * 3 + j * 5) % 11 + (13 if i == j else 0))
          for j in range(n)] for i in range(n)]
    for _ in range(3):
        a = [row[:] for row in m]
        for c in range(n):
            p = Fraction(1) / a[c][c]
            for r in range(n):
                if r != c:
                    f = a[r][c] * p
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        d = {}
        for i in range(2000):
            d[i % 37, i % 11] = d.get((i % 37, i % 11), 0) + i
    return clock() - t


def main(argv):
    mode, workload, seed, data_dir, t0 = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import wonderful
    if not os.path.abspath(wonderful.__file__).startswith(src + os.sep):
        raise SystemExit(f"wonderful imported from {wonderful.__file__}, "
                         f"not from {src}")
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    catalog = wonderful.load_catalog()
    result = {"setup_s": time.monotonic() - float(t0),
              "setup_ref_s": statistics.median(
                  reference_s() for _ in range(SETUP_REFS))}
    if mode != "setup":
        result.update(run_pass(catalog, workload, int(seed), data_dir,
                               tracer))
        if tracer is not None:
            tracer.write(os.path.join(root, ".perfbench-out",
                                      f"spans-{workload}.tsv.gz"))
    import json
    print(json.dumps(result))


def run_pass(catalog, workload, seed, data_dir, tracer):
    """Every op of the workload once, in seeded order, each timed and
    checked; an op that raises counts as failed and the pass goes on.
    `op_refs[i]` is the reference time paired with `latencies[i]`."""
    import resource
    from workloads import RUN_OP, load_ops, op_order

    ops = load_ops(workload, data_dir)
    run_op = RUN_OP[workload]
    clock = time.perf_counter
    latencies = []
    segment = []             # per op: index of the reference timed before it
    refs = []
    failures = []
    last_ref = None
    for idx in op_order(len(ops), seed):
        if last_ref is None or clock() - last_ref >= CAL_INTERVAL_S:
            refs.append(reference_s())
            last_ref = clock()
        segment.append(len(refs) - 1)
        if tracer is not None:
            tracer.current_op = idx
        t = clock()
        try:
            ok, detail = run_op(catalog, ops[idx])
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        if not ok:
            failures.append(f"op {idx}: {detail}")
    refs.append(reference_s())
    result = {
        "latencies": latencies,
        "op_refs": [(refs[k] + refs[k + 1]) / 2 for k in segment],
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["fold"] = tracer.fold()
        result["cache"] = tracer.cache_counts("rootsystem")
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
