"""Self-tests of the benchmark: tiny smoke runs of every workload, metric
names, rejection of perturbed outputs, and tracer hygiene.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference(HERE / "reference.json")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Metric names the benchmark's issue asks for, by layer.
REQUIRED_END_TO_END = {"wall_s", "op_ms_p50", "setup_s", "peak_rss_mb"}
REQUIRED_PER_LAYER = {
    *(f"{layer}.{kind}" for layer in tracer.LAYERS for kind in ("self_s", "calls")),
    *(f"optimizer.sca_solve.{k}"
      for k in ("calls", "self_s", "iterations", "rejected_steps", "nonconverged")),
    "optimizer.solve_subproblem.calls", "optimizer.solve_subproblem.self_s",
    "optimizer.max_arrival_rate.calls",
    *(f"experiments.argmax_unimodal.{k}" for k in ("calls", "evals", "fallbacks")),
    *(f"experiments.{f}.self_s" for f in (
        "operating_point", "time_sharing_point", "adapt_beamwidth",
        "simulate_time_sharing", "feasibility_region", "delay_sweep")),
    *(f"queueing.{f}.self_s" for f in (
        "simulate", "sample_arrivals", "sample_channel_slots", "decode_slots",
        "run_queues", "stability_diagnostic")),
    "queueing.simulate.calls", "queueing.slots", "queueing.slots_per_s",
    "channel.derive_link_budget.calls", "channel.derive_link_budget.self_s",
    "mcsc.outage_probs.calls", "mcsc.outage_probs.self_s",
    "cli.import_s", "cli.main.self_s", "cli.write_csv.self_s",
    "cli.run_from_manifest.calls", "cli.rerun_mismatches",
    "trace.overhead",
}


def names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


def tiny_run(workload, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    return run.measure(args, REFERENCE, tiny=True)


@pytest.fixture
def workdir():
    d = HERE / "out" / "selftest"
    yield d
    shutil.rmtree(d, ignore_errors=True)


def run_ops(wl):
    return {label: fn() for label, fn in wl.ops(0)}


def test_declared_names_cover_the_issue():
    assert names("end_to_end") == REQUIRED_END_TO_END
    assert REQUIRED_PER_LAYER <= names("per_layer")
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_is_correct_and_emits_declared_metrics(workload, trace):
    result, record = tiny_run(workload, trace)
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == names(kind)
    units = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    assert tracer.installed_wrappers() == []
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_probe_scale_uses_samples_in_or_near_the_interval():
    p = probe.SpeedProbe()
    assert p.scale(0.0, 1.0) == 1.0
    ref = probe.REF_S
    p.starts, p.lengths = [0.1, 0.5, 2.0], [2 * ref, 4 * ref, ref]
    assert p.scale(0.0, 1.0) == pytest.approx(1 / 3)
    assert p.scale(1.97, 1.98) == pytest.approx(1.0)
    assert p.scale(5.0, 6.0) == pytest.approx(1.0)
    assert p.run_scale() == pytest.approx(0.5)


def test_traced_counts_come_from_the_layers():
    result, _ = tiny_run("random-solves", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["optimizer.sca_solve.calls"] == 2
    assert m["optimizer.sca_solve.iterations"] == m["optimizer.solve_subproblem.calls"]
    assert m["queueing.simulate.calls"] == 0
    assert m["optimizer.share"] > 0.5


def test_tracer_restores_every_lookup_site():
    from risthz import experiments, optimizer

    before = experiments.sca_solve
    with tracer.Tracer():
        assert experiments.sca_solve is optimizer.sca_solve is not before
        assert tracer.installed_wrappers()
    assert experiments.sca_solve is before and optimizer.sca_solve is before
    assert tracer.installed_wrappers() == []


def test_self_time_subtracts_child_coverage():
    t = tracer.Tracer()
    t.spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
               ["c", 5.0, 6.0, 0, None], ["d", 2.0, 3.0, 1, None]]
    assert t.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_random_solve_check_rejects_scaled_objective():
    wl = workloads.make("random-solves", 3, REFERENCE, tiny=True)
    outs = run_ops(wl)
    assert not any(wl.check(outs).values())
    label, op = next(iter(outs.items()))
    bad = dict(outs, **{label: dataclasses.replace(op, A_max=op.A_max * 1.01)})
    assert wl.check(bad)[label]


def test_random_solve_check_rejects_suboptimal_powers():
    wl = workloads.make("random-solves", 3, REFERENCE, tiny=True)
    outs = run_ops(wl)
    label, op = next(iter(outs.items()))
    c = wl.configs[0].with_(A_bar=0.0)
    from risthz.channel import derive_link_budget
    from risthz.mcsc import outage_probs

    b = derive_link_budget(c)
    even = c.P_max / 3.0
    worse = float(checks.objective(c, b, outage_probs(c, b), even, even, even))
    bad = dict(outs, **{label: dataclasses.replace(
        op, p_h_d=even, p_h_r=even, p_l_d=even, p_l_r=0.0, A_max=worse)})
    assert wl.check(bad)[label]


def test_sweeps_check_rejects_perturbed_record():
    wl = workloads.make("sweeps", 0, REFERENCE, tiny=True)
    outs = run_ops(wl)
    assert not any(wl.check(outs).values())
    res = outs["feasibility_region"]
    res.records[1] = dict(res.records[1], A_max=res.records[1]["A_max"] * 1.01)
    assert wl.check(outs)["feasibility_region"]


def test_cli_check_rejects_flipped_csv_byte(workdir):
    wl = workloads.make("cli", 0, REFERENCE, tiny=True, workdir=workdir,
                        src=HERE.parent / "src")
    outs = run_ops(wl)
    assert not any(wl.check(outs).values())
    rerun = Path(outs["replay.queue-sim"]["argv"][1])
    data = bytearray(rerun.read_bytes())
    data[-2] ^= 1
    rerun.write_bytes(bytes(data))
    assert wl.check(outs)["replay.queue-sim"]
    assert wl.rerun_mismatches == 1


def test_queue_anchors_reject_shifted_onset():
    ref = REFERENCE["queue-delay"]
    mcsc, ts = ref["delay_sweep.mcsc"], ref["delay_sweep.time_sharing"]
    assert checks.check_queue_anchors(mcsc, ts) == []
    stable_ts = [dict(r, stable_h=1, stable_l=1) for r in ts]
    assert checks.check_queue_anchors(mcsc, stable_ts)



def test_queue_delay_check_rejects_wrong_point():
    wl = workloads.make("queue-delay", 3, REFERENCE, tiny=True)
    outs = run_ops(wl)
    assert not any(wl.check(outs).values())
    bad = dict(outs, **{"mcsc.01": outs["mcsc.02"]})
    assert wl.check(bad)["mcsc.01"]
