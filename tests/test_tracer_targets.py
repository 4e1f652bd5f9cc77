"""The benchmark's span tracer (``perfbench/tracer.py``) patches
``risthz`` functions by name and reads fields of what they return; a
renamed or deleted target breaks every traced benchmark run.  These
tests hold the program to the names the tracer uses."""

import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    """Run the tracer's source as a fresh module (no import machinery, so
    no bytecode cache is written beside it)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


tracer = load_tracer()


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
