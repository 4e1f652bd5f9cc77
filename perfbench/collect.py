"""Run the benchmark several times and summarise each metric's spread.

From the repository root:

    python3 perfbench/collect.py --workload sweeps --workload cli \\
        --seeds 1-10 --trace 0 --out perfbench/out/runs.json

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  ``--out`` keeps every run's result and
record, which is how the committed trajectory points were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return {
        "exit": proc.returncode,
        "elapsed_s": time.perf_counter() - t0,
        "record": json.loads(lines[-2])["record"] if len(lines) >= 2 else None,
        "result": json.loads(lines[-1]) if lines else None,
        "stderr": proc.stderr[-2000:],
    }


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs
                  if r["result"] and metric["name"] in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "bound": metric.get("bound"), "n": len(values),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in seeds(args.seeds):
            r = run_once(workload, seed, seconds, args.trace)
            runs.append(dict(r, seed=seed))
            res = r["result"] or {}
            print(f"{workload} seed={seed} exit={r['exit']} correct={res.get('correct')} "
                  f"elapsed={r['elapsed_s']:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in res.get("metrics", {}).items()
                             if not args.trace), flush=True)
        summary = summarise(runs, declared)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        if not args.trace:
            for name, s in summary.items():
                print(f"  {workload:14s} {name:12s} median={s['median']:.4g} "
                      f"spread={s['spread']:.3f} bound={s['bound']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
