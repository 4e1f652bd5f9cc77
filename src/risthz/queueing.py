"""Slot-level Monte-Carlo simulation of the two-buffer queueing system
under either transmission scheme.

Each slot serves HC in one phase and LC in another, each phase with its
own powers and share of the slot: MC-SC superposes both streams in the
whole slot, time sharing gives HC a share lam and LC the rest.  One
pipeline (``simulate_phases``) draws Poisson arrivals, split into HC/LC
fractions (fluid packets), and i.i.d. channel states per slot, decodes
them by one rule (``decode_slots``), runs the queues and takes delays
from Little's law.

Each queue follows Q_t = max(Q_{t-1} - s_t, 0) + a_t from an empty
buffer, with service s_t and arrivals a_t in packets.  Q_t is the
post-arrival length that traces record; delay statistics use the waiting
backlog U_t = Q_t - a_t, so a packet's own arrival slot does not count
towards its waiting time.  U obeys Lindley's recursion (D. V. Lindley,
"The theory of queues with a single server", 1952)
U_t = max(U_{t-1} + a_{t-1} - s_t, 0) with a_{-1} = 0, whose closed form

    X = cumsum(a_{t-1} - s_t),    U = X - min(0, cummin X)

evaluates a whole trace with array operations and no slot loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, channel_gains
from .config import SystemConfig
from .mcsc import PowerAllocation, RateTargets, sinr
from .optimizer import SolveResult

WARMUP_FRAC = 0.1  # leading share of each trace left out of the means
SLOPE_TOL_FACTOR = 1e-3  # unstable if fitted slope > 1e-3 * A_bar packets/slot^2
MIN_DIAGNOSTIC_SLOTS = 100  # shortest trace given a stability verdict


class InsufficientDataError(ValueError):
    """Trace too short for a stability verdict."""


@dataclass
class QueueTrace:
    arrivals: np.ndarray  # total packet arrivals per slot
    q_h: np.ndarray
    q_l: np.ndarray
    xi_h: np.ndarray
    xi_l: np.ndarray
    alpha: float
    a_bar: float
    # summary statistics (post-warmup means; peaks over the full trace).
    # Mean queues are waiting backlogs, i.e. the recorded post-arrival
    # lengths minus the same-slot arrivals: a packet's own arrival slot
    # does not count towards its waiting time.
    mean_q_h: float = math.nan
    mean_q_l: float = math.nan
    tau_h: float = math.nan  # Little's-law delay mean_q / (alpha A_bar) [slots]
    tau_l: float = math.nan
    peak_q_h_norm: float = math.nan  # max Q_h / (alpha * A_bar)
    peak_q_l_norm: float = math.nan
    outage_rate_h: float = math.nan  # empirical 1 - mean(xi)
    outage_rate_l: float = math.nan


def _lindley(service: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
    """Post-arrival queue lengths Q = U + a, with the waiting backlog U
    in Lindley's closed form (see the module docstring)."""
    x = np.empty(len(service))
    x[0] = 0.0 - service[0]
    np.subtract(arrivals[:-1], service[1:], out=x[1:])
    np.cumsum(x, out=x)
    # fmin skips the NaNs that minimum propagates, but from a NaN on x is NaN
    floor = np.fmin.accumulate(x)
    x -= np.minimum(floor, 0.0, out=floor)
    return np.add(x, arrivals, out=x)


def _summarize(trace: QueueTrace, a_split_h: np.ndarray, a_split_l: np.ndarray) -> None:
    w = int(WARMUP_FRAC * len(trace.q_h))
    trace.mean_q_h = float(np.mean(trace.q_h[w:] - a_split_h[w:]))
    trace.mean_q_l = float(np.mean(trace.q_l[w:] - a_split_l[w:]))
    a_h = trace.alpha * trace.a_bar
    a_l = (1.0 - trace.alpha) * trace.a_bar
    trace.tau_h = trace.mean_q_h / a_h if a_h > 0 else math.nan
    trace.tau_l = trace.mean_q_l / a_l if a_l > 0 else math.nan
    trace.peak_q_h_norm = float(np.max(trace.q_h)) / a_h if a_h > 0 else math.nan
    trace.peak_q_l_norm = float(np.max(trace.q_l)) / a_l if a_l > 0 else math.nan
    # xi is 0/1, so the count over n is its mean to the bit
    trace.outage_rate_h = 1.0 - np.count_nonzero(trace.xi_h) / len(trace.xi_h)
    trace.outage_rate_l = 1.0 - np.count_nonzero(trace.xi_l) / len(trace.xi_l)


def sample_channel_slots(
    cfg: SystemConfig, n_slots: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot i.i.d. blockage indicators and pointing errors."""
    beta_d = (rng.random(n_slots) >= cfg.q_d).astype(np.int8)
    beta_r = (rng.random(n_slots) >= cfg.q_r).astype(np.int8)
    eps_d = rng.rayleigh(cfg.sigma_md, n_slots)
    eps_r = rng.rayleigh(cfg.sigma_mr, n_slots)
    return beta_d, beta_r, eps_d, eps_r


def decode_slots(
    cfg: SystemConfig, budget: LinkBudget, hc: PowerAllocation, lc: PowerAllocation,
    targets: RateTargets, *slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Decoding outcomes (xi_h, xi_l) over the sampled channel ``slots``
    (beta_d, beta_r, eps_d, eps_r) at the sampled fading: HC at the powers
    ``hc`` of its phase, LC at the powers ``lc`` of its phase (``mcsc.sinr``),
    each against its target SINR 2^(R/B) - 1 (infinite where that overflows;
    R may be per-slot).  This equals the rate test B log2(1 + SINR) >= R
    except at exact ties, which the decode property test exempts.  LC needs
    HC's cancellation only where an HC stream is superposed on LC's phase
    (lc.p_h_d + lc.p_h_r > 0, elementwise, so the powers may be per-slot
    arrays)."""
    h2, g2 = channel_gains(budget, *slots)
    gam_h, gam_l = sinr(h2, g2, hc, lc, budget.sigma_n2)
    with np.errstate(over="ignore"):
        ok_h = gam_h >= np.expm1(np.log(2.0) * (targets.R_h / cfg.B))
        ok_l = gam_l >= np.expm1(np.log(2.0) * (targets.R_l / cfg.B))
    ok_l &= ok_h | (lc.p_h_d + lc.p_h_r <= 0.0)
    return ok_h.view(np.int8), ok_l.view(np.int8)


def sample_arrivals(
    cfg: SystemConfig, n_slots: int, rng: np.random.Generator
) -> np.ndarray:
    return rng.poisson(cfg.A_bar, n_slots).astype(float)


def run_queues(
    cfg: SystemConfig,
    arrivals: np.ndarray,
    service_h: np.ndarray,
    service_l: np.ndarray,
    xi_h: np.ndarray,
    xi_l: np.ndarray,
) -> QueueTrace:
    """Drive both queue recursions and attach summary statistics."""
    a_h, a_l = cfg.alpha * arrivals, (1.0 - cfg.alpha) * arrivals
    q_h = _lindley(service_h, a_h)
    q_l = _lindley(service_l, a_l)
    trace = QueueTrace(
        arrivals=arrivals,
        q_h=q_h,
        q_l=q_l,
        xi_h=xi_h,
        xi_l=xi_l,
        alpha=cfg.alpha,
        a_bar=cfg.A_bar,
    )
    _summarize(trace, a_h, a_l)
    return trace


def simulate_phases(
    cfg: SystemConfig, budget: LinkBudget, hc: PowerAllocation, lc: PowerAllocation,
    rates: RateTargets, shares: tuple[float, float], n_slots: int, seed,
) -> QueueTrace:
    """Simulate ``n_slots`` slots serving HC at powers ``hc`` and rate
    ``rates.R_h`` in a share ``shares[0]`` of each slot, and LC at ``lc``,
    ``rates.R_l`` and ``shares[1]``: xi * share * T/M * R packets per slot.
    Arrivals, blockage and pointing errors come, in that order, from one
    generator seeded by ``seed`` (any value ``numpy.random.default_rng``
    accepts)."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    rng = np.random.default_rng(seed)
    arrivals = sample_arrivals(cfg, n_slots, rng)
    slots = sample_channel_slots(cfg, n_slots, rng)
    xi_h, xi_l = decode_slots(cfg, budget, hc, lc, rates, *slots)
    tm = cfg.T / cfg.M
    service_h = xi_h * (shares[0] * tm * rates.R_h)
    service_l = xi_l * (shares[1] * tm * rates.R_l)
    return run_queues(cfg, arrivals, service_h, service_l, xi_h, xi_l)


def simulate(
    cfg: SystemConfig, budget: LinkBudget, solve: SolveResult, n_slots: int, seed
) -> QueueTrace:
    """Simulate the MC-SC queueing system at the operating point of ``solve``:
    both streams superposed in the whole slot, HC decoded first and LC
    after cancelling it.  Deterministic under ``seed``; ``n_slots`` < 1
    raises ``ValueError``."""
    return simulate_phases(cfg, budget, solve.p, solve.p, solve.R, (1.0, 1.0), n_slots, seed)


def stability_diagnostic(trace: QueueTrace) -> dict[str, bool]:
    """Heuristic per-queue stability verdict.

    Fits a linear slope to block-averaged queue lengths over the second
    half of the trace in closed form, sum(t (m - mean m)) / sum(t^2) with
    block centres t taken about their mean; a queue is unstable when the slope
    exceeds ``1e-3 * A_bar`` packets/slot^2.  Returns
    ``{"hc": stable?, "lc": stable?}``.
    """
    n = len(trace.q_h)
    if n < MIN_DIAGNOSTIC_SLOTS:
        raise InsufficientDataError(f"need >= {MIN_DIAGNOSTIC_SLOTS} slots, got {n}")
    half = n // 2
    tol = SLOPE_TOL_FACTOR * trace.a_bar
    verdict = {}
    for name, q in (("hc", trace.q_h), ("lc", trace.q_l)):
        tail = q[half:]
        block = max(1, len(tail) // 50)
        nb = len(tail) // block
        means = tail[: nb * block].reshape(nb, block).mean(axis=1)
        t = (np.arange(nb) - 0.5 * (nb - 1)) * block
        slope = float(np.dot(t, means - means.mean()) / np.dot(t, t))
        verdict[name] = slope <= tol
    return verdict
