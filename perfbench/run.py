"""risthz benchmark: time to verified results, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` alternates untraced and traced passes (``cli`` in-process in
both) and reports the per-layer metrics.  The last line of standard output is the result
object; the line before it is the run record.  Exit status is 0 when all
outputs pass their checks, 1 when some do not, and 2 when the program
under test cannot be found or imported.

Timing: a run repeats the workload's fixed pass for ``--seconds``.  Each
op's time is its fastest repeat, scaled by the host-speed probe
(``probe.py``) to a fixed host speed, so that bursts of slowdown caused
by other tenants of a shared host do not show as changes of the program;
set-up is the median of fresh-interpreter samples spread over the run,
each scaled by the kernel times of its own interpreter.  The run record
keeps the unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from probe import SpeedProbe
from tracer import Tracer, import_targets, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 16  # at least this many set-up samples in a --trace 0 run


def time_setup(module: str) -> tuple[float, float]:
    """(unscaled, scaled) seconds of a fresh interpreter that imports
    ``module`` and builds the default config and link budget.  Its output
    is captured, so the end is seen when the child closes its pipes, not
    by polling."""
    code = workloads.child_probe(0, 40) + workloads.SETUP_CODE.format(module=module)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(SRC),
                          check=True, capture_output=True, timeout=60)
    seconds = time.perf_counter() - t0
    return seconds, workloads.child_scaled(seconds, proc.stderr)


def cli_import_s() -> float:
    code = ("import time\nt = time.perf_counter()\nimport risthz.cli\n"
            "print(time.perf_counter() - t)\n")
    out = subprocess.run([sys.executable, "-c", code], env=workloads.child_env(SRC), check=True,
                         capture_output=True, timeout=60)
    return float(out.stdout)


def run_pass(ops, tracer=None, after_op=lambda: None):
    """Run one pass, calling ``after_op`` between ops; returns
    ({label: (start, end)}, {label: output}, {label: error})."""
    times, outputs, errors = {}, {}, {}
    for label, fn in ops:
        if tracer is not None:
            tracer.op = label
        t0 = time.perf_counter()
        try:
            outputs[label] = fn()
        except Exception:  # a failing op is counted, reported, and the run goes on
            errors[label] = traceback.format_exc()
        times[label] = (t0, time.perf_counter())
        after_op()
    return times, outputs, errors


def wall(times, scale=lambda t0, t1: 1.0) -> float:
    return sum((t1 - t0) * scale(t0, t1) for t0, t1 in times.values())


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.passes = []  # (times, outputs, errors, traced)
        self.setup = []  # (unscaled, scaled) seconds of set-up samples

    def window(self, budget, tracer=None, setup_every=math.inf, in_process=False):
        """Repeat the pass until the next one would overrun ``budget``
        seconds; returns the pass wall times.

        A set-up sample is taken between ops whenever ``setup_every``
        seconds have passed since the last one, so that set-up and the
        passes see the same spread of host conditions.  ``in_process``
        selects the workload's variant that the tracer can see."""
        traced = tracer is not None
        start = last_setup = time.perf_counter()
        walls = []

        def after_op():
            nonlocal last_setup
            if time.perf_counter() - last_setup >= setup_every:
                self.setup.append(time_setup(self.wl.setup_module))
                last_setup = time.perf_counter()

        while True:
            ops = self.wl.ops(len(self.passes), in_process=in_process)
            times, outputs, errors = run_pass(ops, tracer, after_op)
            self.passes.append((times, outputs, errors, traced))
            walls.append(wall(times))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > budget:
                return walls

    def check(self):
        """Check every pass's outputs; returns (attempted, failed, problems)."""
        attempted = failed = 0
        problems = []
        for times, outputs, errors, _ in self.passes:
            try:
                found = self.wl.check(outputs) if outputs else {}
            except Exception:  # malformed output: every op of the pass fails
                found = {label: [traceback.format_exc()] for label in times}
            for label in times:
                attempted += 1
                msgs = ([errors[label]] if label in errors else []) + found.get(label, [])
                if msgs:
                    failed += 1
                    problems += msgs
        return attempted, failed, problems


def best_times(passes, seconds=lambda t0, t1, out: t1 - t0) -> dict:
    """Each op's fastest repeat, as measured by ``seconds``."""
    best = {}
    for times, outputs, _, _ in passes:
        for label, (t0, t1) in times.items():
            t = seconds(t0, t1, outputs.get(label))
            best[label] = min(t, best.get(label, t))
    return best


def peak_rss_mb(in_children: bool) -> float:
    """Peak RSS of this process, or of its largest child (whose own
    children, such as pool workers, count towards it once reaped)."""
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(runner: Runner, probe) -> tuple[dict, dict]:
    if runner.wl.in_children:
        best = best_times(runner.passes, lambda t0, t1, out: workloads.child_scaled(
            t1 - t0, out["stderr"] if out else b""))
    else:
        best = best_times(runner.passes, lambda t0, t1, out: (t1 - t0) * probe.scale(t0, t1))
    ops_ms = sorted(1000.0 * t for t in best.values())
    metrics = {
        "wall_s": (sum(best.values()), "s"),
        "op_ms_p50": (statistics.median(ops_ms), "ms"),
        "setup_s": (statistics.median(scaled for _, scaled in runner.setup), "s"),
        "peak_rss_mb": (peak_rss_mb(runner.wl.in_children), "MiB"),
    }
    raw = best_times(runner.passes)
    extra = {
        "op_samples": len(ops_ms), "repeats": len(runner.passes),
        "raw_wall_s": sum(raw.values()),
        "raw_op_ms_p50": 1000.0 * statistics.median(raw.values()),
        "raw_setup_s": statistics.median(raw for raw, _ in runner.setup),
        "setup_samples": len(runner.setup),
        "raw_pass_walls_s": [wall(p[0]) for p in runner.passes],
        "probe_slowdown": 1.0 / probe.run_scale(),
    }
    if len(ops_ms) >= 100:
        extra["op_ms_p90"] = statistics.quantiles(ops_ms, n=10)[-1]
    return metrics, extra


def per_layer(runner: Runner, tracer, probe) -> tuple[dict, dict]:
    """Layer figures per traced pass (unscaled), plus the tracing overhead:
    the fastest traced pass over the fastest untraced one, both scaled."""
    traced = [p for p in runner.passes if p[3]]
    untraced = [p for p in runner.passes if not p[3]]
    values = layer_metrics(tracer, len(traced), sum(wall(p[0]) for p in traced))
    values["cli.import_s"] = statistics.median(cli_import_s() for _ in range(3))
    values["cli.rerun_mismatches"] = getattr(runner.wl, "rerun_mismatches", 0)
    values["trace.wall_s"] = min(wall(p[0], probe.scale) for p in traced)
    values["trace.untraced_wall_s"] = min(wall(p[0], probe.scale) for p in untraced)
    values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    values["trace.spans"] = len(tracer.spans) / len(traced)
    return values, {"traced_passes": len(traced)}


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(),
    }


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def measure(args, reference, tiny=False):
    """Run one workload and return (result, record) without printing."""
    record = run_record(args)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, reference, tiny=tiny,
                        workdir=workdir, src=SRC)
    runner = Runner(wl)
    try:
        time_setup(wl.setup_module)  # warm the file cache and bytecode once
        if args.trace:
            import_targets()  # so that no pass pays a first import
            tracer = Tracer()
            with SpeedProbe() as probe:
                start = time.perf_counter()
                while True:  # alternate untraced and traced passes
                    pair = runner.window(0, in_process=True)[0]
                    with tracer:
                        pair += runner.window(0, tracer=tracer, in_process=True)[0]
                    if time.perf_counter() - start + pair > args.seconds:
                        break
            attempted, failed, problems = runner.check()
            values, extra = per_layer(runner, tracer, probe)
            declared = declared_metrics("per_layer")
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            with SpeedProbe(timer=not wl.in_children) as probe:
                runner.window(args.seconds, setup_every=args.seconds / SETUP_SAMPLES)
                while len(runner.setup) < SETUP_SAMPLES:
                    runner.setup.append(time_setup(wl.setup_module))
            metrics, extra = end_to_end(runner, probe)
            attempted, failed, problems = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(extra)
    record["loadavg_end"] = _loadavg()
    record["failed_frac"] = failed / attempted
    record["problems"] = problems[:20]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "risthz" / "__init__.py").is_file():
        print(f"error: the risthz sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import risthz  # noqa: F401
    except Exception:
        traceback.print_exc()
        print("error: risthz cannot be imported", file=sys.stderr)
        return 2
    reference = workloads.load_reference(HERE / "reference.json")
    result, record = measure(args, reference)
    for msg in record["problems"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
