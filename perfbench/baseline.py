"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--workloads W ...] [--seeds N]
                                  [--first-seed K] [--out PATH]

The workloads default to those BENCHMARK.json gates.
Runs `run.py` untraced once per seed and workload and prints for each
end-to-end metric the median, quartiles (statistics.quantiles, n=4),
sample count and spread (quartile distance over median).  With --out, also runs each workload once traced and writes
the summary with its layer table and per-layer metrics as JSON, e.g. the
committed perfbench/BASELINE.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Workloads that run.py offers but BENCHMARK.json does not gate.
WHY_UNGATED = {
    "big-reports": "report --format json for AI r=16, GroupE8 and EVIII: "
                   "the only workload through cli; not gated, because a "
                   "third gated workload would push a full set of gated "
                   "runs (4 + 22 per workload) past its time limit",
}


def _bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "spread": (q3 - q1) / statistics.median(values)}


def main():
    config = _bench_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    gated = {w["name"]: w["why"] for w in config["workloads"]}
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": config["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, config["run_seconds"], 0)[0]
                for seed in summary["seeds"]]
        metrics = {}
        print(f"{workload}: {sum(r['attempted'] for r in runs)} ops, "
              f"{sum(r['failed'] for r in runs)} failed", flush=True)
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"  {name:<12} median {s['median']:.6g} {s['unit']:<3} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']} "
                  f"spread {s['spread']:.3f} (bound {bound}){flag}")
        if not args.out:
            continue
        traced, lines = run_once(workload, summary["seeds"][0],
                                 config["run_seconds"], 1)
        table = lines[:next(i for i, line in enumerate(lines)
                            if line.startswith("traced set-up")) + 1]
        summary["workloads"][workload] = {
            "gated": workload in gated,
            "why": gated.get(workload, WHY_UNGATED.get(workload)),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "layer_table": table,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
