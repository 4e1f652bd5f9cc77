"""The benchmark's workloads.

Each workload builds its inputs from the workload seed and exposes one
pass of fixed work as a list of ops ``(label, callable)``.  Every pass
of a run repeats the same ops on the same inputs; the runner keeps the
outputs and checks them after the timed window.

Why these workloads (see README.md for the metric/layer map):

- ``sweeps``: figure drivers at the default config.  Neighbouring alpha
  solves on one link budget and serial golden-section searches, so the
  optimizer does nearly all the work; this is where an exact solver or
  caching across alpha would show.  No seed dependence.
- ``random-solves``: one power solve per random config.  Fresh budgets
  across the parameter box, no reuse between draws, more SCA iterations
  per solve; a cache that only helps ``sweeps`` would cost here.
- ``queue-delay``: queueing-delay sweeps for both schemes with several
  replications; the slot-level queue recursion dominates, the solver is
  a minority and ``time_sharing`` uses no SCA.
- ``cli``: whole ``risthz`` processes, including interpreter start,
  config and CSV/manifest I/O, the process pool and manifest replays.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

import checks
from probe import REF_S

SETUP_CODE = (
    "import {module}\n"
    "from risthz.config import SystemConfig\n"
    "from risthz.channel import derive_link_budget\n"
    "derive_link_budget(SystemConfig())\n"
)


def child_env(src, **extra) -> dict:
    """Environment for a child interpreter that imports risthz from ``src``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# Prepended to every timed child: times the probe kernel ``at_start``
# times on start and ``at_exit`` times at exit and reports the times on
# stderr, so that each child's own speed scales its duration (see
# probe.py).  A set-up sample times it only at exit, once the set-up is
# done, because that tracked its duration better.
CHILD_PROBE = """\
import atexit, statistics, sys, time
sys.path.insert(0, {here!r})
from probe import kernel
sys.path.pop(0)
_k = []
def _probe(n):
    for _ in range(n):
        t0 = time.perf_counter(); kernel(); _k.append(time.perf_counter() - t0)
def _report():
    _probe({at_exit})
    sys.stderr.write("perfbench-probe %r %r\\n" % (sum(_k), statistics.median(_k)))
_probe({at_start})
atexit.register(_report)
"""


def child_probe(at_start: int, at_exit: int) -> str:
    return CHILD_PROBE.format(here=str(Path(__file__).resolve().parent),
                              at_start=at_start, at_exit=at_exit)


def child_scaled(seconds, stderr: bytes) -> float:
    """Duration of a child at the probe's reference speed, less its own
    kernel runs, from the kernel times it reported; unscaled when it
    reported none."""
    found = re.search(rb"perfbench-probe (\S+) (\S+)", stderr)
    if not found:
        return seconds
    return (seconds - float(found[1])) * REF_S / float(found[2])


def _as_list(x):
    return x if isinstance(x, list) else [x]


def _jsonable(out):
    if hasattr(out, "records"):  # SweepResult
        return out.records
    if is_dataclass(out):
        return asdict(out)
    if isinstance(out, tuple):
        return list(out)
    return out


class Sweeps:
    """Feasibility region over alpha, the sum-throughput and tradeoff
    alphas, and the beamwidth adaptation behind the strict-HC study."""

    name = "sweeps"
    in_children = False
    setup_module = "risthz"
    ALPHA_GRID = tuple(round(0.05 * i, 2) for i in range(21))
    STRICT = {"sigma_m": 0.14, "target": 0.05}

    def __init__(self, seed, reference, tiny=False):
        from risthz.config import SystemConfig

        self.cfg = SystemConfig()
        self.reference = reference
        self.tiny = tiny
        self.grid = [0.0, 0.5, 1.0] if tiny else list(self.ALPHA_GRID)

    def ops(self, k, in_process=False):
        from risthz import experiments as E

        cfg, state = self.cfg, {}
        s = self.STRICT["sigma_m"]
        ops = [("feasibility_region", lambda: E.feasibility_region(cfg, self.grid, jobs=1))]
        if not self.tiny:
            ops += [
                ("alpha_sum_star",
                 lambda: state.setdefault("a_sum", E.alpha_sum_star(cfg))),
                ("alpha_tradeoff_star",
                 lambda: E.alpha_tradeoff_star(cfg, alpha_sum=state["a_sum"])),
                ("adapt_beamwidth",
                 lambda: E.adapt_beamwidth(cfg.with_(sigma_md=s, sigma_mr=2 * s),
                                           self.STRICT["target"])),
            ]
        return ops

    def summarize(self, label, out):
        return _jsonable(out)

    def check(self, outputs):
        problems = {}
        for label, out in outputs.items():
            got, ref = self.summarize(label, out), self.reference[label]
            if label == "feasibility_region":
                ref = [r for r in ref if r["alpha"] in self.grid]
            if isinstance(ref, list) and ref and isinstance(ref[0], dict):
                problems[label] = checks.compare_records(
                    got, ref, p_max=self.cfg.P_max, where=label)
            else:
                got, ref = _as_list(got), _as_list(ref)
                same = len(got) == len(ref) and all(map(checks.close, got, ref))
                problems[label] = [] if same else [f"{label} = {got!r}, reference {ref!r}"]
        return problems


class RandomSolves:
    """``operating_point`` at the drawn alpha of each random config."""

    name = "random-solves"
    in_children = False
    setup_module = "risthz"
    N_DRAWS = 100

    def __init__(self, seed, reference, tiny=False):
        from risthz.optimizer import random_config

        rng = np.random.default_rng(seed)
        n = 2 if tiny else self.N_DRAWS
        self.configs = [random_config(rng) for _ in range(n)]

    def ops(self, k, in_process=False):
        from risthz import experiments as E

        return [(f"draw-{i:03d}", lambda c=c: E.operating_point(c, c.alpha))
                for i, c in enumerate(self.configs)]

    def summarize(self, label, out):
        return _jsonable(out)

    def check(self, outputs):
        from risthz.channel import derive_link_budget
        from risthz.mcsc import outage_probs

        problems = {}
        for label, out in outputs.items():
            cfg = self.configs[int(label.split("-")[1])].with_(A_bar=0.0)
            budget = derive_link_budget(cfg)
            rec = self.summarize(label, out)
            found = checks.check_solution(cfg, budget, outage_probs(cfg, budget),
                                          rec, rec["A_max"], where=label)
            thr = rec["A_max"] * cfg.M / (cfg.T * cfg.B)
            if not checks.close(rec["throughput_total"], thr):
                found.append(f"{label}: throughput_total {rec['throughput_total']!r} "
                             f"!= A_max M/(T B) = {thr!r}")
            problems[label] = found
        return problems


class QueueDelay:
    """``delay_sweep`` over an alpha grid for MC-SC and time sharing, one
    grid point per op."""

    name = "queue-delay"
    in_children = False
    setup_module = "risthz"
    PARAMS = {"alpha_grid": [round(0.05 * i, 2) for i in range(21)],
              "n_reps": 4, "n_slots": 20000}
    TINY = {"alpha_grid": [0.0, 0.4, 0.8], "n_reps": 1, "n_slots": 2000}
    SCHEMES = ("mcsc", "time_sharing")

    def __init__(self, seed, reference, tiny=False):
        from risthz.config import SystemConfig

        self.cfg = SystemConfig()
        self.seed = seed
        self.params = self.TINY if tiny else self.PARAMS
        self.reference = reference

    def point_seed(self, i):
        """Master seed of grid point ``i``: drawn from the workload seed and
        the point's index, and shared by both schemes."""
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def ops(self, k, in_process=False):
        from risthz import experiments as E

        p = self.params
        return [
            (f"{scheme}.{i:02d}",
             lambda scheme=scheme, i=i, alpha=alpha: E.delay_sweep(
                 self.cfg, [alpha], scheme, n_slots=p["n_slots"],
                 n_reps=p["n_reps"], master_seed=self.point_seed(i), jobs=1))
            for scheme in self.SCHEMES for i, alpha in enumerate(p["alpha_grid"])
        ]

    def summarize(self, label, out):
        return _jsonable(out)

    def curves(self, outputs):
        """Each scheme's records in grid order, as one ``delay_sweep`` over
        the whole grid would give them."""
        return {f"delay_sweep.{scheme}": [rec for label in sorted(outputs)
                                          if label.startswith(scheme + ".")
                                          for rec in self.summarize(label, outputs[label])]
                for scheme in self.SCHEMES}

    def check(self, outputs):
        grid, ref = self.params["alpha_grid"], self.reference
        seeded = self.seed == ref["seed"] and self.params == ref["params"]
        problems = {}
        for label, out in outputs.items():
            scheme, i = label.rsplit(".", 1)
            got, i = self.summarize(label, out), int(i)
            found = []
            if [(r["scheme"], r["alpha"]) for r in got] != [(scheme, grid[i])]:
                found.append(f"{label}: not the point alpha = {grid[i]} of {scheme}")
            if not all(0.0 <= r[k] <= 1.0 for r in got
                       for k in ("outage_rate_h", "outage_rate_l")):
                found.append(f"{label}: outage rate outside [0, 1]")
            if seeded:
                found += checks.compare_records(got, ref[f"delay_sweep.{scheme}"][i:i + 1],
                                                tol=checks.SEEDED_TOL, where=label)
            problems[label] = found
        curves = self.curves(outputs)
        if self.params == self.PARAMS and all(len(c) == len(grid) for c in curves.values()):
            problems["mcsc.00"] += checks.check_queue_anchors(
                curves["delay_sweep.mcsc"], curves["delay_sweep.time_sharing"])
        return problems


RUN_CLI = "import runpy\nrunpy.run_module('risthz.cli', run_name='__main__', alter_sys=True)\n"
REPLAY = ("from risthz.cli import run_from_manifest\n"
          "sys.exit(run_from_manifest(sys.argv[1], sys.argv[2]))\n")


class Cli:
    """Whole ``risthz`` processes run one after another, then manifest
    replays of the two runs that write CSVs, compared byte for byte.

    The traced run calls the same entry points in-process instead, so the
    tracer can see the ``cli`` layer; pool workers stay invisible to it.
    """

    name = "cli"
    setup_module = "risthz.cli"
    in_children = True  # ops run in child processes, which probe themselves
    PARAMS = {"alpha_grid": "0:0.1:1", "slots": 10000}
    TINY = {"alpha_grid": "0:0.5:1", "slots": 2000}

    def __init__(self, seed, reference, tiny=False, workdir=None, src=None):
        rng = np.random.default_rng(seed)
        self.alpha = round(float(rng.uniform(0.05, 0.95)), 6)
        self.seed = seed
        self.params = self.TINY if tiny else self.PARAMS
        self.reference = reference
        self.workdir = Path(workdir)
        self.jobs = len(os.sched_getaffinity(0))
        self.env = child_env(src, TMPDIR=str(self.workdir))
        self.rerun_mismatches = 0

    def _argvs(self, d: Path):
        p, jobs = self.params, str(self.jobs)
        feas, queue = str(d / "feasibility.csv"), str(d / "queue.csv")
        return [
            ("config", ["config", "--show-defaults"]),
            ("solve", ["solve", "--alpha", repr(self.alpha)]),
            ("feasibility", ["feasibility", "--alpha-grid", p["alpha_grid"],
                             "--jobs", jobs, "--out", feas]),
            ("queue-sim", ["queue-sim", "--scheme", "both", "--alpha-grid", p["alpha_grid"],
                           "--slots", str(p["slots"]), "--seed", str(self.seed),
                           "--jobs", jobs, "--out", queue]),
            ("replay.feasibility", [feas + ".manifest.json", str(d / "feasibility.rerun.csv")]),
            ("replay.queue-sim", [queue + ".manifest.json", str(d / "queue.rerun.csv")]),
        ]

    def ops(self, k, in_process=False):
        d = self.workdir / f"pass{k}"
        d.mkdir(parents=True, exist_ok=True)
        run = self._in_process if in_process else self._process
        return [(label, lambda label=label, argv=argv: run(label, argv))
                for label, argv in self._argvs(d)]

    def _process(self, label, argv):
        code = child_probe(10, 10) + (REPLAY if label.startswith("replay.") else RUN_CLI)
        cmd = [sys.executable, "-c", code, *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=170)
        return {"rc": proc.returncode, "stdout": proc.stdout, "argv": argv,
                "stderr": proc.stderr[-2000:]}

    def _in_process(self, label, argv):
        from risthz import cli

        buf = io.StringIO()
        saved, tempfile.tempdir = tempfile.tempdir, str(self.workdir)
        try:
            with contextlib.redirect_stdout(buf):
                if label.startswith("replay."):
                    rc = cli.run_from_manifest(*argv)
                else:
                    rc = cli.main(argv)
        finally:
            tempfile.tempdir = saved
        return {"rc": rc, "stdout": buf.getvalue().encode(), "argv": argv, "stderr": b""}

    def summarize(self, label, out):
        if label == "config":
            return out["stdout"].decode()
        if label == "solve":
            return json.loads(out["stdout"])
        if label in ("feasibility", "queue-sim"):
            return checks.parse_csv(Path(out["argv"][-1]).read_bytes())
        return None

    def check(self, outputs):
        from risthz.channel import derive_link_budget
        from risthz.config import SystemConfig
        from risthz.mcsc import outage_probs

        ref = self.reference
        problems = {}
        for label, out in outputs.items():
            if out["rc"] != 0:
                problems[label] = [f"{label}: exit code {out['rc']}: "
                                   f"{out['stderr'].decode(errors='replace')}"]
                continue
            found = []
            if label == "config":
                if self.summarize(label, out) != ref["config"]:
                    found.append("config --show-defaults output differs from reference")
            elif label == "solve":
                res = self.summarize(label, out)
                cfg = SystemConfig().with_(alpha=self.alpha)
                budget = derive_link_budget(cfg)
                if res["converged"] is not True:
                    found.append("solve: not converged")
                found += checks.check_solution(cfg, budget, outage_probs(cfg, budget),
                                               res["p"], res["objective"], where=label)
            elif label == "feasibility" and self.params == self.PARAMS:
                found += checks.compare_records(self.summarize(label, out),
                                                ref["feasibility"],
                                                p_max=SystemConfig().P_max, where=label)
            elif label == "queue-sim":
                got = self.summarize(label, out)
                n_grid = len(ref["queue-sim"]) // 2
                if self.params == self.PARAMS and len(got) != 2 * n_grid:
                    found.append(f"queue-sim: {len(got)} rows, want {2 * n_grid}")
                if self.seed == ref["seed"] and self.params == self.PARAMS:
                    found += checks.compare_records(got, ref["queue-sim"],
                                                    tol=checks.SEEDED_TOL, where=label)
            elif label.startswith("replay."):
                orig = Path(out["argv"][0][: -len(".manifest.json")]).read_bytes()
                if Path(out["argv"][1]).read_bytes() != orig:
                    self.rerun_mismatches += 1
                    found.append(f"{label}: rerun CSV is not byte-identical")
            problems[label] = found
        return problems


WORKLOADS = {w.name: w for w in (Sweeps, RandomSolves, QueueDelay, Cli)}


def make(name, seed, reference, tiny=False, workdir=None, src=None):
    cls = WORKLOADS[name]
    ref = reference.get(name, {})
    if cls is Cli:
        return cls(seed, ref, tiny=tiny, workdir=workdir, src=src)
    return cls(seed, ref, tiny=tiny)


def load_reference(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

