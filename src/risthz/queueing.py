"""Slot-level Monte-Carlo simulation of the two-buffer queueing system
under either transmission scheme.

Each slot serves HC in one phase and LC in another, each phase with its
own powers and share of the slot: MC-SC superposes both streams in the
whole slot, time sharing gives HC a share lam and LC the rest.
``draw_slots`` draws Poisson arrivals and i.i.d. channel states per slot;
``simulate_phases`` serves the draw, unchanged, so that one draw serves
every scheme (common random numbers): it decodes the slots by one rule
(``decode_slots``), splits the arrivals into HC/LC fractions (fluid
packets), runs the queues and takes delays from Little's law.

Each queue follows Q_t = max(Q_{t-1} - s_t, 0) + a_t from an empty
buffer, with service s_t and arrivals a_t in packets.  Q_t is the
post-arrival length that traces record; delay statistics use the waiting
backlog U_t = Q_t - a_t, so a packet's own arrival slot does not count
towards its waiting time.  U obeys Lindley's recursion (D. V. Lindley,
"The theory of queues with a single server", 1952)
U_t = max(U_{t-1} + a_{t-1} - s_t, 0) with a_{-1} = 0, whose closed form

    X = cumsum(a_{t-1} - s_t),    U = X - min(0, cummin X)

evaluates a whole trace with array operations and no slot loop.

Every simulation runs in the ``SlotBuffers`` workspace its caller
passes, which also fixes its length.  Each stage writes only the arrays
that ``SlotBuffers`` lists for it, with ``out=``, leaves its inputs
unchanged and allocates no per-slot array except the integer Poisson
draws, which numpy cannot write in place.  A trace views its workspace
until the next simulation there.  ``experiments.delay_sweep`` draws each
replication once in its thread's workspace (``thread_buffers``), serves
it under every scheme and keeps only the summaries; one workspace per
thread makes concurrent sweeps safe, at 10 float and 4 int8 arrays, 84 bytes per slot (1.7 MB
at 20,000 slots), held until the thread ends or asks for another length.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, channel_gains
from .config import MIN_DIAGNOSTIC_SLOTS, SystemConfig
from .mcsc import PowerAllocation, RateTargets, sinr
from .optimizer import SolveResult

DRAW_FIELDS = ("A_bar", "q_d", "q_r", "sigma_md", "sigma_mr")  # a draw's inputs; not alpha
WARMUP_FRAC = 0.1  # leading share of each trace left out of the means
SLOPE_TOL_FACTOR = 1e-3  # unstable if fitted slope > 1e-3 * A_bar packets/slot^2
_TINY = np.nextafter(0.0, 1.0)  # least positive double


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


class SlotBuffers:
    """The per-slot arrays of one simulation of ``n_slots`` >= 1 slots,
    overwritten by the next simulation in them.

    Each array and the stages that write it, in pipeline order; a draw
    (``draw_slots``) writes the first five and ``drawn``, serving the rest:

    ===============  =====================================================
    arrivals         ``sample_arrivals``
    beta_d, beta_r   ``sample_channel_slots`` (int8 blockage states)
    eps_d, eps_r     ``sample_channel_slots`` (eps_d first holds the
                     blockage draws)
    drawn            ``draw_slots`` (the config values of the draw,
                     ``DRAW_FIELDS``; None before the first draw)
    h2, g2           ``decode_slots`` (channel gains), then
                     ``simulate_phases`` (service amounts)
    q_h, q_l         ``decode_slots`` (SINRs), then ``run_queues`` (queue
                     lengths)
    xi_h, xi_l       ``decode_slots`` (int8 decoding outcomes)
    work_a, work_b   ``decode_slots`` (fading and partial sums), then
                     ``run_queues`` (each class's share of the arrivals)
    work_c           ``run_queues`` (Lindley floors, summary differences)
    ===============  =====================================================
    """

    FLOATS = ("arrivals", "eps_d", "eps_r", "h2", "g2", "q_h", "q_l",
              "work_a", "work_b", "work_c")
    INDICATORS = ("beta_d", "beta_r", "xi_h", "xi_l")

    def __init__(self, n_slots: int):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        for name in self.FLOATS:
            setattr(self, name, np.empty(n_slots))
        for name in self.INDICATORS:
            setattr(self, name, np.empty(n_slots, dtype=np.int8))
        self.drawn = None


_thread_state = threading.local()


def thread_buffers(n_slots: int) -> SlotBuffers:
    """The calling thread's slot workspace for ``n_slots`` slots, made on
    the thread's first call and again only when ``n_slots`` changes."""
    work = getattr(_thread_state, "buffers", None)
    if work is None or work.n_slots != n_slots:
        work = _thread_state.buffers = SlotBuffers(n_slots)
    return work


def _lindley(service: np.ndarray, arrivals: np.ndarray, out=None, work=None) -> np.ndarray:
    """Post-arrival queue lengths Q = U + a, with the waiting backlog U
    in Lindley's closed form (see the module docstring), written into
    ``out``; ``work`` holds the running minimum.  Either may be None for
    fresh storage, and neither may alias the inputs."""
    x = np.empty(len(service)) if out is None else out
    x[0] = 0.0 - service[0]
    np.subtract(arrivals[:-1], service[1:], out=x[1:])
    np.cumsum(x, out=x)
    # fmin skips the NaNs that minimum propagates, but from a NaN on x is NaN
    floor = np.fmin.accumulate(x, out=work)
    x -= np.minimum(floor, 0.0, out=floor)
    return np.add(x, arrivals, out=x)


def _summarize(trace: QueueTrace, a_split_h: np.ndarray, a_split_l: np.ndarray,
               work: np.ndarray) -> None:
    w = int(WARMUP_FRAC * len(trace.q_h))
    diff = work[: len(trace.q_h) - w]
    trace.mean_q_h = float(np.mean(np.subtract(trace.q_h[w:], a_split_h[w:], out=diff)))
    trace.mean_q_l = float(np.mean(np.subtract(trace.q_l[w:], a_split_l[w:], out=diff)))
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
    cfg: SystemConfig, rng: np.random.Generator, buf: SlotBuffers
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot i.i.d. blockage indicators (``beta_d``, ``beta_r``) and
    Rayleigh pointing errors (``eps_d``, ``eps_r``) of ``buf``.  A Rayleigh
    draw is sigma sqrt(2 E) with E standard exponential, numpy's own formula."""
    for beta, q in ((buf.beta_d, cfg.q_d), (buf.beta_r, cfg.q_r)):
        np.greater_equal(rng.random(out=buf.eps_d), q, out=beta)
    for eps, sigma in ((buf.eps_d, cfg.sigma_md), (buf.eps_r, cfg.sigma_mr)):
        rng.standard_exponential(out=eps)
        np.multiply(sigma, np.sqrt(np.multiply(eps, 2.0, out=eps), out=eps), out=eps)
    return buf.beta_d, buf.beta_r, buf.eps_d, buf.eps_r


def decode_slots(
    cfg: SystemConfig, budget: LinkBudget, hc: PowerAllocation, lc: PowerAllocation,
    targets: RateTargets, *slots: np.ndarray, buf: SlotBuffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Decoding outcomes (``xi_h``, ``xi_l`` of ``buf``) over the sampled
    channel ``slots`` (beta_d, beta_r, eps_d, eps_r) at the sampled fading:
    HC at the powers ``hc`` of its phase, LC at the powers ``lc`` of its
    phase (``mcsc.sinr``), each against its target SINR 2^(R/B) - 1
    (infinite where that overflows, and at least the least positive double
    where R > 0, so SINR 0 never meets a positive rate; R may be per-slot).
    This equals the rate test B log2(1 + SINR) >= R except at exact ties,
    which the decode property test exempts.  LC needs HC's cancellation
    only where an HC stream is superposed on LC's phase
    (lc.p_h_d + lc.p_h_r > 0, elementwise, so the powers may be per-slot
    arrays)."""
    h2, g2 = channel_gains(budget, *slots, out=(buf.h2, buf.g2, buf.work_a))
    gam_h, gam_l = sinr(h2, g2, hc, lc, budget.sigma_n2,
                        out=(buf.q_h, buf.q_l, buf.work_a, buf.work_b))
    for gam, rate, ok in ((gam_h, targets.R_h, buf.xi_h), (gam_l, targets.R_l, buf.xi_l)):
        with np.errstate(over="ignore"):
            target = np.expm1(np.log(2.0) * (rate / cfg.B))
        np.greater_equal(gam, np.where(rate > 0.0, np.maximum(target, _TINY), target), out=ok)
    # LC decodes only after HC where an HC stream shares its phase
    np.logical_and(buf.xi_l, buf.xi_h, out=buf.xi_l,
                   where=np.logical_not(lc.p_h_d + lc.p_h_r <= 0.0))
    return buf.xi_h, buf.xi_l


def sample_arrivals(cfg: SystemConfig, rng: np.random.Generator, buf: SlotBuffers) -> np.ndarray:
    """Poisson packet arrivals per slot, as floats in ``arrivals`` of ``buf``."""
    # Generator.poisson has no out=, so its integer draws are copied in
    np.copyto(buf.arrivals, rng.poisson(cfg.A_bar, buf.n_slots))
    return buf.arrivals


def run_queues(
    cfg: SystemConfig,
    arrivals: np.ndarray,
    service_h: np.ndarray,
    service_l: np.ndarray,
    xi_h: np.ndarray,
    xi_l: np.ndarray,
    buf: SlotBuffers,
) -> QueueTrace:
    """Drive both queue recursions into ``q_h`` and ``q_l`` of ``buf`` and
    attach summary statistics; the trace holds the inputs as given."""
    a_h = np.multiply(cfg.alpha, arrivals, out=buf.work_a)
    a_l = np.multiply(1.0 - cfg.alpha, arrivals, out=buf.work_b)
    trace = QueueTrace(
        arrivals=arrivals,
        q_h=_lindley(service_h, a_h, out=buf.q_h, work=buf.work_c),
        q_l=_lindley(service_l, a_l, out=buf.q_l, work=buf.work_c),
        xi_h=xi_h,
        xi_l=xi_l,
        alpha=cfg.alpha,
        a_bar=cfg.A_bar,
    )
    _summarize(trace, a_h, a_l, buf.work_c)
    return trace


def draw_slots(cfg: SystemConfig, buffers: SlotBuffers, seed) -> SlotBuffers:
    """Draw arrivals, blockage and pointing errors, in that order, from one
    generator seeded by ``seed`` (any value ``numpy.random.default_rng``
    accepts) into ``buffers``, record the draw's ``DRAW_FIELDS`` values
    and return ``buffers``."""
    rng = np.random.default_rng(seed)
    buffers.drawn = None  # no half-written draw is ever served
    sample_arrivals(cfg, rng, buffers)
    sample_channel_slots(cfg, rng, buffers)
    buffers.drawn = tuple(getattr(cfg, name) for name in DRAW_FIELDS)
    return buffers


def simulate_phases(
    cfg: SystemConfig, budget: LinkBudget, hc: PowerAllocation, lc: PowerAllocation,
    rates: RateTargets, shares: tuple[float, float], buffers: SlotBuffers,
) -> QueueTrace:
    """Serve the slots drawn in ``buffers`` (``draw_slots``), HC at powers
    ``hc`` and rate ``rates.R_h`` in a share ``shares[0]`` of each slot, and
    LC at ``lc``, ``rates.R_l`` and ``shares[1]``: xi * share * T/M * R
    packets per slot.  Every stage works in ``buffers``, whose arrays the
    trace views until the next simulation there, and leaves the draw as it
    was.  Raises ``ValueError`` unless ``buffers`` holds a draw made under
    ``cfg``'s ``DRAW_FIELDS``; ``cfg.alpha`` may differ."""
    if buffers.drawn != tuple(getattr(cfg, name) for name in DRAW_FIELDS):
        raise ValueError(f"buffers hold no draw for this config's {DRAW_FIELDS}; call draw_slots")
    slots = (buffers.beta_d, buffers.beta_r, buffers.eps_d, buffers.eps_r)
    xi_h, xi_l = decode_slots(cfg, budget, hc, lc, rates, *slots, buf=buffers)
    tm = cfg.T / cfg.M
    service_h = np.multiply(xi_h, shares[0] * tm * rates.R_h, out=buffers.h2)
    service_l = np.multiply(xi_l, shares[1] * tm * rates.R_l, out=buffers.g2)
    return run_queues(cfg, buffers.arrivals, service_h, service_l, xi_h, xi_l, buffers)


def simulate(cfg: SystemConfig, budget: LinkBudget, solve: SolveResult,
             buffers: SlotBuffers) -> QueueTrace:
    """Serve the slots drawn in ``buffers`` under MC-SC at the operating
    point of ``solve`` (see ``simulate_phases``): both streams superposed
    in the whole slot, HC decoded first and LC after cancelling it."""
    return simulate_phases(cfg, budget, solve.p, solve.p, solve.R, (1.0, 1.0), buffers)


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
