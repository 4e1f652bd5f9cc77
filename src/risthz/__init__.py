"""RIS-assisted THz downlink simulator with mixed-criticality
superposition coding: link budgets, outage analysis, max-min
stability-gap power allocation, and queueing simulation.

The exports below are resolved on first access (PEP 562), so importing
the package, or one module of it such as ``risthz.cli``, loads no
module it does not use: ``risthz.simulate`` imports ``queueing`` and
numpy, ``risthz.derive_link_budget`` only ``channel``.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports from the package
_EXPORTS = {
    "channel": (
        "LinkBudget",
        "channel_gains",
        "derive_link_budget",
        "fading_coefficient",
        "misalignment_cdf",
        "misalignment_pdf",
    ),
    "config": ("ConfigError", "SystemConfig", "load_config"),
    "mcsc": (
        "OutageProbs",
        "PowerAllocation",
        "RateTargets",
        "epsilon_threshold",
        "outage_probs",
    ),
    "optimizer": (
        "QuadTransformState",
        "SolveResult",
        "hc_service_rate",
        "lc_service_rate",
        "max_arrival_rate",
        "sca_solve",
        "stability_gaps",
        "structural_solve",
        "update_mu",
    ),
    "queueing": ("QueueTrace", "SlotBuffers", "simulate", "stability_diagnostic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached here: a name is read from its module on every access, so
    # it follows any later replacement of the module attribute
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
