"""Mixed-criticality superposition-coding signal model.

SINR expressions for the two superposed streams, half-power
pointing-error thresholds, and the closed-form outage probabilities used
by the power optimizer.  Only the SINR kernel uses numpy, and imports
it when called.
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


def sinr(h2, g2, hc: PowerAllocation, lc: PowerAllocation, sigma_n2: float, out=None):
    """(SINR of the HC stream, SNR of the LC stream) at squared channel
    magnitudes ``h2`` = |h|^2 and ``g2`` = |g|^2 (floats or arrays).

    HC is decoded at the powers ``hc`` of its phase, whose LC powers
    interfere; LC at the powers ``lc`` of its phase, assuming any HC
    stream superposed there was cancelled (the decoder checks that).
    MC-SC passes its one allocation as both phases, whose LC signal is
    then the HC interference; time sharing passes its two phases.

    ``out`` is None or four float arrays of the gains' shape: the two
    ratios are written into the first two, and the other two hold the
    interference and the partial sums.  The inputs are left unchanged.
    """
    import numpy as np

    gam_h, gam_l, interference, part = (None,) * 4 if out is None else out
    interference = np.add(np.multiply(h2, hc.p_l_d, out=interference),
                          np.multiply(g2, hc.p_l_r, out=part), out=interference)
    sig_l = interference if lc is hc else np.add(
        np.multiply(h2, lc.p_l_d, out=gam_l), np.multiply(g2, lc.p_l_r, out=part), out=gam_l)
    gam_h = np.divide(
        np.add(np.multiply(h2, hc.p_h_d, out=gam_h), np.multiply(g2, hc.p_h_r, out=part),
               out=gam_h),
        np.add(interference, sigma_n2, out=part), out=gam_h)
    return gam_h, np.divide(sig_l, sigma_n2, out=gam_l)


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
