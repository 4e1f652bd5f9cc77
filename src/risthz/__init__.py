"""RIS-assisted THz downlink simulator with mixed-criticality
superposition coding: link budgets, outage analysis, max-min
stability-gap power allocation, and queueing simulation."""

__version__ = "0.1.0"

from .channel import (
    LinkBudget,
    channel_gains,
    derive_link_budget,
    fading_coefficient,
    misalignment_cdf,
    misalignment_pdf,
)
from .config import ConfigError, SystemConfig, load_config
from .mcsc import (
    OutageProbs,
    PowerAllocation,
    RateTargets,
    epsilon_threshold,
    outage_probs,
)
from .optimizer import (
    QuadTransformState,
    SolveResult,
    hc_service_rate,
    lc_service_rate,
    max_arrival_rate,
    sca_solve,
    stability_gaps,
    structural_solve,
    update_mu,
)
from .queueing import QueueTrace, simulate, stability_diagnostic

__all__ = [
    "ConfigError",
    "LinkBudget",
    "OutageProbs",
    "PowerAllocation",
    "QuadTransformState",
    "QueueTrace",
    "RateTargets",
    "SolveResult",
    "SystemConfig",
    "channel_gains",
    "derive_link_budget",
    "epsilon_threshold",
    "fading_coefficient",
    "hc_service_rate",
    "lc_service_rate",
    "load_config",
    "max_arrival_rate",
    "misalignment_cdf",
    "misalignment_pdf",
    "outage_probs",
    "sca_solve",
    "simulate",
    "stability_diagnostic",
    "stability_gaps",
    "structural_solve",
    "update_mu",
]
