"""Mixed-criticality superposition-coding signal model.

SINR expressions for the two superposed streams, half-power
pointing-error thresholds, and the closed-form outage probabilities used
by the power optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import LinkBudget
from .config import SystemConfig

# exp(-2 eps_th^2 / w_eq^2) = 1/2  at  eps_th = sqrt(ln(sqrt(2))) * w_eq
_EPS_TH_FACTOR = math.sqrt(math.log(math.sqrt(2.0)))


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers [W] of the HC/LC streams on the direct and RIS beams.

    Nonnegative, sum bounded by P_max.  The optimizer drives p_l_r to
    zero, but nonzero values are permitted here for generality.
    """

    p_h_d: float
    p_h_r: float
    p_l_d: float
    p_l_r: float = 0.0

    def total(self) -> float:
        return self.p_h_d + self.p_h_r + self.p_l_d + self.p_l_r


@dataclass(frozen=True)
class RateTargets:
    R_h: float  # HC target rate [bit/s]
    R_l: float  # LC target rate [bit/s]


@dataclass(frozen=True)
class OutageProbs:
    P_out_h: float
    P_out_l: float


def sinr(h2, g2, p: PowerAllocation, sigma_n2: float):
    """(SINR of the HC stream, SNR of the LC stream) at squared channel
    magnitudes ``h2`` = |h|^2 and ``g2`` = |g|^2 (floats or arrays).

    HC is decoded first with LC as interference; the LC value assumes the
    HC cancellation succeeded, which the decoder checks separately.
    """
    sig_l = h2 * p.p_l_d + g2 * p.p_l_r
    return (h2 * p.p_h_d + g2 * p.p_h_r) / (sig_l + sigma_n2), sig_l / sigma_n2


def epsilon_threshold(budget: LinkBudget) -> tuple[float, float]:
    """Half-power pointing-error thresholds (eps_th_d, eps_th_r) [m]."""
    return _EPS_TH_FACTOR * budget.w_eq_d, _EPS_TH_FACTOR * budget.w_eq_r


def outage_probs(cfg: SystemConfig, budget: LinkBudget) -> OutageProbs:
    """Closed-form outage probabilities under the per-path availability rule.

    A path counts as available iff it is unblocked and its pointing error
    stays within the half-power threshold.  HC fails only when both paths
    fail; this treats the paths independently and ignores decoding via the
    combined signal, so it is an approximation (slightly pessimistic for HC).
    """
    fail_d = 1.0 - (1.0 - cfg.q_d) * (1.0 - budget.q_md)
    fail_r = 1.0 - (1.0 - cfg.q_r) * (1.0 - budget.q_mr)
    return OutageProbs(P_out_h=fail_d * fail_r, P_out_l=fail_d)
