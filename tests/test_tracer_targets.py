"""The benchmark (``perfbench/``) calls ``risthz`` by name: its span
tracer patches functions and reads fields of what they return, and its
workloads call the library and the CLI with fixed arguments.  A renamed
or deleted target, parameter or option breaks every benchmark run.
These tests hold the program to the names the benchmark uses."""

import dataclasses
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Run ``perfbench/<name>.py``'s source as a fresh module.  Its sibling
    imports resolve from ``perfbench/``, and no bytecode cache is written
    there."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved
    return module


tracer = load_perfbench("tracer")


@pytest.mark.parametrize("module, attr", [t[:2] for t in tracer.FUNCTION_TARGETS],
                         ids=[t[2] for t in tracer.FUNCTION_TARGETS])
def test_function_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr", [t[:3] for t in tracer.METHOD_TARGETS],
                         ids=[t[3] for t in tracer.METHOD_TARGETS])
def test_method_target_resolves(module, cls, attr):
    # the tracer reads the method from the class's own __dict__
    assert callable(getattr(importlib.import_module(module), cls).__dict__[attr])


def test_argmax_unimodal_takes_counted_arguments():
    from risthz.experiments import argmax_unimodal

    params = inspect.signature(argmax_unimodal).parameters
    assert {"fn", "n_prescan", "n_fallback"} <= set(params)


def test_counted_result_fields_exist():
    from risthz.optimizer import SolveResult
    from risthz.queueing import QueueTrace

    solve_fields = {f.name for f in dataclasses.fields(SolveResult)}
    assert {"iterations", "objective_trace", "converged"} <= solve_fields
    assert "q_h" in {f.name for f in dataclasses.fields(QueueTrace)}


def test_checked_budget_fields_exist():
    # the benchmark's objective check restates the model from these fields
    # rather than from the threshold gains c_d and c_r
    from risthz.channel import LinkBudget

    budget_fields = {f.name for f in dataclasses.fields(LinkBudget)}
    assert {"eta_d", "eta_r", "rho_th_d", "rho_th_r", "sigma_n2"} <= budget_fields


# (module, function, positional arguments, keyword arguments) of each
# call ``perfbench/workloads.py`` makes into the program
WORKLOAD_CALLS = [
    ("risthz.experiments", "feasibility_region", ("cfg", [0.5]), {"jobs": 1}),
    ("risthz.experiments", "alpha_sum_star", ("cfg",), {}),
    ("risthz.experiments", "alpha_tradeoff_star", ("cfg",), {"alpha_sum": 0.5}),
    ("risthz.experiments", "adapt_beamwidth", ("cfg", 0.05), {}),
    ("risthz.experiments", "operating_point", ("cfg", 0.5), {}),
    ("risthz.experiments", "delay_sweep", ("cfg", [0.5], "mcsc"),
     {"n_slots": 2000, "n_reps": 4, "master_seed": 7, "jobs": 1}),
    ("risthz.optimizer", "random_config", ("rng",), {}),
    ("risthz.cli", "run_from_manifest", ("run.csv.manifest.json", "rerun.csv"), {}),
]


@pytest.mark.parametrize("module, attr, args, kwargs", WORKLOAD_CALLS,
                         ids=[t[1] for t in WORKLOAD_CALLS])
def test_workload_call_binds(module, attr, args, kwargs):
    inspect.signature(getattr(importlib.import_module(module), attr)).bind(*args, **kwargs)


def test_cli_workload_argvs_parse(tmp_path):
    from risthz.cli import build_parser

    workload = load_perfbench("workloads").Cli(0, {}, workdir=tmp_path, src=tmp_path)
    argvs = [argv for label, argv in workload._argvs(tmp_path)
             if not label.startswith("replay.")]
    assert len(argvs) == 4
    for argv in argvs:
        build_parser().parse_args(argv)


def test_sweep_result_has_records():
    from risthz.experiments import SweepResult

    assert "records" in {f.name for f in dataclasses.fields(SweepResult)}


@pytest.mark.parametrize("scheme", ["mcsc", "time_sharing"])
def test_slot_pipeline_reaches_wrapped_stages(monkeypatch, scheme):
    # the tracer wraps these by module attribute, at every module that
    # binds them, and counts queueing.slots from run_queues: a pipeline
    # that bound, fused or inlined a stage would leave it uncounted
    from risthz import experiments, queueing
    from risthz.config import SystemConfig

    entry = (queueing, "simulate") if scheme == "mcsc" else (experiments, "simulate_time_sharing")
    stages = ("sample_arrivals", "sample_channel_slots", "decode_slots", "run_queues")
    calls = {}
    for module, name in [(queueing, stage) for stage in stages] + [entry]:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    experiments.delay_sweep(SystemConfig(), [0.5], scheme, n_slots=2000, n_reps=4,
                            master_seed=7, jobs=1)
    assert calls == dict.fromkeys((*stages, entry[1]), 4)
