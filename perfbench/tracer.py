"""Span tracer for the per-layer run.

Wraps public functions at the boundaries of the six ``risthz`` layers,
records one span (name, start, end, parent, op) per call in memory, and
counts work at the same boundaries from what the functions return.  The
wrappers are replaced at every module attribute that holds the
original, because ``experiments`` and ``cli`` bind names such as
``sca_solve`` and ``delay_sweep`` at import time.

Only the calling process is traced: process-pool workers started by the
``cli`` layer run untraced copies, so their time shows up as the parent's
wait inside ``experiments.feasibility_region`` / ``experiments.delay_sweep``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("channel", "mcsc", "optimizer", "queueing", "experiments", "cli")

# (module, attribute, span name); the span name's first part is the layer.
FUNCTION_TARGETS = (
    ("risthz.channel", "derive_link_budget", "channel.derive_link_budget"),
    ("risthz.mcsc", "outage_probs", "mcsc.outage_probs"),
    ("risthz.optimizer", "sca_solve", "optimizer.sca_solve"),
    ("risthz.optimizer", "solve_subproblem", "optimizer.solve_subproblem"),
    ("risthz.optimizer", "max_arrival_rate", "optimizer.max_arrival_rate"),
    ("risthz.queueing", "simulate", "queueing.simulate"),
    ("risthz.queueing", "sample_arrivals", "queueing.sample_arrivals"),
    ("risthz.queueing", "sample_channel_slots", "queueing.sample_channel_slots"),
    ("risthz.queueing", "decode_slots", "queueing.decode_slots"),
    ("risthz.queueing", "run_queues", "queueing.run_queues"),
    ("risthz.queueing", "stability_diagnostic", "queueing.stability_diagnostic"),
    ("risthz.experiments", "operating_point", "experiments.operating_point"),
    ("risthz.experiments", "time_sharing_point", "experiments.time_sharing_point"),
    ("risthz.experiments", "adapt_beamwidth", "experiments.adapt_beamwidth"),
    ("risthz.experiments", "simulate_time_sharing",
     "experiments.simulate_time_sharing"),
    ("risthz.experiments", "argmax_unimodal", "experiments.argmax_unimodal"),
    ("risthz.experiments", "alpha_sum_star", "experiments.alpha_sum_star"),
    ("risthz.experiments", "alpha_tradeoff_star", "experiments.alpha_tradeoff_star"),
    ("risthz.experiments", "feasibility_region", "experiments.feasibility_region"),
    ("risthz.experiments", "blockage_sweep", "experiments.blockage_sweep"),
    ("risthz.experiments", "misalignment_sweep", "experiments.misalignment_sweep"),
    ("risthz.experiments", "strict_hc_sweep", "experiments.strict_hc_sweep"),
    ("risthz.experiments", "delay_sweep", "experiments.delay_sweep"),
    ("risthz.cli", "main", "cli.main"),
    ("risthz.cli", "run_from_manifest", "cli.run_from_manifest"),
)
# (module, class, method, span name): the CLI writes every sweep CSV
# through this method.
METHOD_TARGETS = (
    ("risthz.experiments", "SweepResult", "write_csv", "cli.write_csv"),
)

_MARK = "__perfbench_span__"


def _count_sca(counts, result):
    counts["optimizer.sca_solve.iterations"] += result.iterations
    trace = result.objective_trace
    # a rejected SCA step leaves the recorded objective exactly flat
    counts["optimizer.sca_solve.rejected_steps"] += sum(
        1 for a, b in zip(trace, trace[1:]) if b == a
    )
    counts["optimizer.sca_solve.nonconverged"] += not result.converged


def _count_slots(counts, trace):
    counts["queueing.slots"] += len(trace.q_h)


_RESULT_HOOKS = {
    "optimizer.sca_solve": _count_sca,
    "queueing.run_queues": _count_slots,
}


class Tracer:
    """Records spans and counts while installed; restores on uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name, fn):
        hook = _RESULT_HOOKS.get(name)
        call = fn
        if name == "experiments.argmax_unimodal":
            call = self._counting_argmax(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result

        setattr(traced, _MARK, name)
        return traced

    def _counting_argmax(self, fn):
        """Count objective evaluations by wrapping the ``fn`` argument; a
        fallback to the fine grid shows as at least n_prescan + n_fallback
        evaluations."""
        sig = inspect.signature(fn)
        counts = self.counts

        def call(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            objective = bound.arguments["fn"]
            n = 0

            def counted(x):
                nonlocal n
                n += 1
                return objective(x)

            bound.arguments["fn"] = counted
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                a = bound.arguments
                counts["experiments.argmax_unimodal.evals"] += n
                counts["experiments.argmax_unimodal.fallbacks"] += (
                    n >= a["n_prescan"] + a["n_fallback"]
                )

        return call

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        # import every target module before patching, or a module imported
        # mid-way would bind wrappers at import and keep them afterwards
        import_targets()
        for mod_name, attr, name in FUNCTION_TARGETS:
            orig = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(name, orig)
            for mod in _risthz_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._patched:
            owner, key, orig = self._patched.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it that child spans cover."""
        children: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out = []
        for span, kids in zip(self.spans, children):
            covered, reach = 0.0, span[1]
            for start, end in sorted((self.spans[k][1], self.spans[k][2]) for k in kids):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[2] - span[1] - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")


def import_targets() -> None:
    for mod_name, *_ in FUNCTION_TARGETS + METHOD_TARGETS:
        importlib.import_module(mod_name)


def _risthz_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "risthz" or n.startswith("risthz."))]


def installed_wrappers() -> list[str]:
    """Names of module or class attributes that currently hold a wrapper."""
    found = []
    owners = _risthz_modules()
    owners += [getattr(importlib.import_module(m), c) for m, c, _, _ in METHOD_TARGETS]
    for owner in owners:
        for key, value in vars(owner).items():
            if hasattr(value, _MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{key}")
    return found


def layer_metrics(tracer: Tracer, n_passes: int, traced_wall: float) -> dict:
    """Per-pass layer self time, calls and share of traced wall time, plus
    per-function figures for every span name and the exact counts."""
    per_name_self: Counter = Counter()
    per_name_calls: Counter = Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        per_name_self[span[0]] += self_s
        per_name_calls[span[0]] += 1
    out = {}
    for layer in LAYERS:
        names = [n for n in per_name_self if n.split(".")[0] == layer]
        self_s = sum(per_name_self[n] for n in names)
        out[f"{layer}.self_s"] = self_s / n_passes
        out[f"{layer}.calls"] = sum(per_name_calls[n] for n in names) / n_passes
        out[f"{layer}.share"] = self_s / traced_wall if traced_wall > 0 else 0.0
    for name in {t[2] for t in FUNCTION_TARGETS} | {t[3] for t in METHOD_TARGETS}:
        out[f"{name}.self_s"] = per_name_self[name] / n_passes
        out[f"{name}.calls"] = per_name_calls[name] / n_passes
    for key in ("optimizer.sca_solve.iterations", "optimizer.sca_solve.rejected_steps",
                "optimizer.sca_solve.nonconverged", "experiments.argmax_unimodal.evals",
                "experiments.argmax_unimodal.fallbacks", "queueing.slots"):
        out[key] = tracer.counts[key] / n_passes
    sim_s = sum(s[2] - s[1] for s in tracer.spans
                if s[0] in ("queueing.simulate", "experiments.simulate_time_sharing"))
    out["queueing.slots_per_s"] = tracer.counts["queueing.slots"] / sim_s if sim_s else 0.0
    return out
