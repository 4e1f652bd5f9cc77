"""Sweep drivers and derived analyses.

Reproduces the headline studies at desk scale: the throughput
feasibility region over the HC fraction, the throughput-maximizing and
tradeoff HC fractions, blockage and misalignment sweeps, beamwidth
adaptation under an HC outage target, the time-sharing baseline, and
queueing-delay sweeps.

The HC fractions and the time-sharing baseline are read off the max-min
frontier (``optimizer.Frontier``); time sharing is the chord between its
all-HC and all-LC ends.

Every sweep driver runs one point function per grid value through
``_sweep``, which builds every grid value's config before the first
point runs and returns each point's records in grid order, in the
calling process; only ``delay_sweep`` spreads them over a process pool.
Its unit of work is one grid value: each replication there is drawn
once, from a master seed via
``numpy.random.SeedSequence([master_seed, grid_index, replication])``,
and every requested scheme serves that one draw.

The solver sweeps need only ``math``: numpy, the simulator
(``queueing``) and a pool's ``concurrent.futures`` are imported on the
delay-sweep path and ``hashlib`` in ``config_hash``, each on first use.
"""

from __future__ import annotations

import csv
import math
import operator
import sys
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from functools import partial

from .channel import collection_fraction, derive_link_budget, equivalent_width_sq, ris_gain
from .config import (DEFAULT_N_SLOTS, MIN_DIAGNOSTIC_SLOTS, SCHEMES, STRICT_HC_ALPHA_MIN,
                     STRICT_HC_TARGET, ConfigError, SystemConfig)
from .mcsc import PowerAllocation, RateTargets, outage_probs
from .optimizer import Frontier, _golden_max, hc_service_rate, lc_service_rate, sca_solve

W_R_MIN = 1e-4  # [m] bisection bracket for beamwidth inversion
W_R_MAX = 10.0
# minimum of log erf v - 3 log v + v^2, the root of
# 2 e^{-v^2} / (sqrt(pi) erf v) = 3 / v - 2 v (see ``adapt_beamwidth``)
V_STAR = 1.1420888018148148


class BeamAdaptationError(ValueError):
    """Requested HC outage target cannot be met by widening the beam."""


@dataclass(frozen=True)
class OperatingPoint:
    alpha: float
    A_max: float            # packets/slot
    throughput_total: float  # bit/s/Hz = A_max * M / (T * B)
    throughput_hc: float     # alpha * throughput_total
    R_h: float               # bit/s
    R_l: float
    P_out_h: float
    P_out_l: float
    p_h_d: float
    p_h_r: float
    p_l_d: float
    p_l_r: float


@dataclass(frozen=True)
class TimeSharingPoint:
    alpha: float
    lam: float               # slot fraction devoted to the HC phase
    A_max: float
    throughput_total: float
    throughput_hc: float
    R_h: float               # full-slot HC-phase rate [bit/s]
    R_l: float               # full-slot LC-phase rate [bit/s]
    P_out_h: float
    P_out_l: float
    p_h_d: float             # HC-phase power split (full P_max)
    p_h_r: float


@dataclass
class SweepResult:
    records: list[dict]

    def write_csv(self, path: str | None = None) -> None:
        """Write the records as RFC-4180 CSV to ``path``, or to stdout
        without one.  ``csv`` writes floats in repr form, the shortest
        string that round-trips."""
        if not self.records:
            raise ValueError("empty sweep result")
        cols = list(self.records[0])
        dest = open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout)
        with dest as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            w.writerows([rec[c] for c in cols] for rec in self.records)


def config_hash(cfg: SystemConfig) -> str:
    import hashlib

    blob = repr(sorted(cfg.as_dict().items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _sweep(point, values, at, jobs: int = 1) -> SweepResult:
    """Records of ``point(i, v, at(v))`` over the grid ``values`` as
    floats, in grid order: a list for grid index i, value v and its
    config, which ``at`` builds for every v before the first point runs.
    Only ``delay_sweep`` passes ``jobs``.  A pool forks all its workers
    at the first submit, so it gets ``min(jobs, len(values))`` of them,
    and the points run serially when that is 1."""
    grid = [float(v) for v in values]
    args = (point, range(len(grid)), grid, [at(v) for v in grid])
    workers = min(jobs, len(grid))
    if workers <= 1:
        nested = list(map(*args))
    else:
        with _process_pool(workers) as pool:
            nested = list(pool.map(*args))
    return SweepResult([rec for recs in nested for rec in recs])


def _process_pool(max_workers: int):
    """The delay sweep's one way to a process pool; ``concurrent.futures``,
    with multiprocessing, is imported on the first call."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def operating_point(cfg: SystemConfig, alpha: float) -> OperatingPoint:
    """Solve the power allocation at a given HC fraction and summarize it."""
    cfg_a = cfg.with_(alpha=alpha, A_bar=0.0)
    budget = derive_link_budget(cfg_a)
    res = sca_solve(cfg_a, budget)
    out = outage_probs(cfg_a, budget)
    a_max = res.objective
    thr = a_max * cfg.M / (cfg.T * cfg.B)
    return OperatingPoint(
        alpha=alpha,
        A_max=a_max,
        throughput_total=thr,
        throughput_hc=alpha * thr,
        R_h=res.R.R_h,
        R_l=res.R.R_l,
        P_out_h=out.P_out_h,
        P_out_l=out.P_out_l,
        p_h_d=res.p.p_h_d,
        p_h_r=res.p.p_h_r,
        p_l_d=res.p.p_l_d,
        p_l_r=res.p.p_l_r,
    )


def feasibility_region(cfg: SystemConfig, alpha_grid, jobs: int = 1) -> SweepResult:
    """Maximum stabilizable arrival rate (as throughput) over the HC
    fraction.  ``jobs`` is ignored, accepted for existing callers."""
    return _sweep(lambda _index, alpha, cfg_a: [asdict(operating_point(cfg_a, alpha))],
                  alpha_grid, lambda alpha: cfg.with_(alpha=alpha))


def argmax_unimodal(fn, lo: float, hi: float, tol: float, n_prescan: int = 21,
                    n_fallback: int = 201) -> float:
    """Argmax of a presumed-unimodal function on [lo, hi].

    No caller in the program: the tests' reference search, resolved by
    name by the benchmark's tracer.

    A coarse pre-scan locates the bracket (and checks unimodality up to
    numerical noise); golden-section search then refines.  If the
    pre-scan is non-unimodal, warns (``RuntimeWarning``) and falls back
    to a fine grid.  Ties resolve to the leftmost maximizer.
    """
    import numpy as np

    xs = np.linspace(lo, hi, n_prescan)
    vals = [fn(float(x)) for x in xs]
    k = int(np.argmax(vals))
    slack = 1e-9 * (1.0 + abs(vals[k]))
    rising = all(vals[i + 1] >= vals[i] - slack for i in range(k))
    falling = all(vals[i + 1] <= vals[i] + slack for i in range(k, len(xs) - 1))
    if not (rising and falling):
        warnings.warn(
            f"argmax_unimodal: pre-scan of [{lo!r}, {hi!r}] is not unimodal; "
            f"falling back to a {n_fallback}-point grid",
            RuntimeWarning,
            stacklevel=2,
        )
        xs = np.linspace(lo, hi, n_fallback)
        vals = [fn(float(x)) for x in xs]
        return float(xs[int(np.argmax(vals))])
    a = float(xs[max(k - 1, 0)])
    b = float(xs[min(k + 1, len(xs) - 1)])
    x, _ = _golden_max(fn, a, b, tol)
    return float(x)


def alpha_sum_star(cfg: SystemConfig) -> float:
    """HC fraction maximizing the total stabilizable throughput, in closed
    form on the frontier (``optimizer.Frontier``); 0 when nothing can be
    served."""
    frontier = Frontier(cfg, derive_link_budget(cfg))
    return frontier.alpha(frontier.argmax(1.0, 1.0, cfg.P_max))


def alpha_tradeoff_star(cfg: SystemConfig, alpha_sum: float | None = None) -> float:
    """Tradeoff HC fraction: maximizes normalized total throughput plus
    normalized HC throughput over [alpha_sum*, 1].

    On the frontier that is A(x) / A(x_sum) + S_h(x) / A(0) over
    x in [0, x_sum], solved like ``alpha_sum_star``.  A caller-given
    ``alpha_sum`` maps to x_sum through ``Frontier.bracket``.  A term
    whose normalizer is 0 is dropped.
    """
    frontier = Frontier(cfg, derive_link_budget(cfg))
    rate, argmax = frontier.rate, frontier.argmax
    if alpha_sum is None:
        x_sum = argmax(1.0, 1.0, cfg.P_max)
    else:
        # alpha(lo) >= alpha_sum: [0, x_sum] stays within [alpha_sum, 1]
        x_sum = frontier.bracket(alpha_sum)[0]
    u, v = (1.0 / a if a > 0.0 else 0.0 for a in (rate(x_sum), rate(0.0)))
    x_t = argmax(u + v, u, x_sum)
    if x_t == x_sum and alpha_sum is not None:
        return alpha_sum  # the bracket's end is the caller's alpha
    return frontier.alpha(x_t)


def _at_sigma_m(cfg: SystemConfig, sigma_m: float) -> SystemConfig:
    """The pointing-error scale of the misalignment and strict-HC sweeps:
    sigma_md = sigma_m and sigma_mr = 2 sigma_m."""
    return cfg.with_(sigma_md=sigma_m, sigma_mr=2.0 * sigma_m)


def _three_alpha_records(name: str, _index: int, value: float, cfg: SystemConfig) -> list[dict]:
    """Operating points at alpha = 0, alpha_T*, 1 of ``cfg``, the config
    with the sweep parameter ``name`` (``q_d`` or ``sigma_m``) at ``value``."""
    a_t = alpha_tradeoff_star(cfg)
    return [{name: value, "alpha_label": label, **asdict(operating_point(cfg, alpha))}
            for label, alpha in (("0", 0.0), ("alpha_T", a_t), ("1", 1.0))]


def blockage_sweep(cfg: SystemConfig, q_d_grid) -> SweepResult:
    """Throughput/outage versus direct-path blockage probability, at
    alpha in {0, alpha_T*(q_d), 1} (tradeoff point recomputed per grid point)."""
    return _sweep(partial(_three_alpha_records, "q_d"), q_d_grid, lambda q_d: cfg.with_(q_d=q_d))


def misalignment_sweep(cfg: SystemConfig, sigma_grid) -> SweepResult:
    """Throughput/outage versus pointing-error scale, with
    sigma_md = sigma_m and sigma_mr = 2 sigma_m."""
    return _sweep(partial(_three_alpha_records, "sigma_m"), sigma_grid, partial(_at_sigma_m, cfg))


def adapt_beamwidth(cfg: SystemConfig, target_P_out_h: float) -> tuple[float, float]:
    """Reflected-beam radius (and resulting RIS gain) holding the HC
    outage probability at ``target_P_out_h``.

    Solves the outage factorization for the required RIS misdetection
    probability, maps it to an equivalent beamwidth, and inverts the link
    budget's ``channel.equivalent_width_sq`` by bisection.  w_eq(w_r) is
    non-monotone: it diverges for beams much narrower than the receiving
    aperture and grows like w_r for wide beams.  With
    v = a_U sqrt(pi/2) / w_r, 2 log w_eq = const + log erf v - 3 log v + v^2,
    which is convex in v (its second derivative exceeds 2) with its
    minimum at ``V_STAR``.  The adaptation widens the beam (trading RIS
    gain for misalignment robustness), so the inversion uses the
    increasing wide-beam branch w_r >= a_U sqrt(pi/2) / V_STAR, where
    v <= V_STAR keeps e^{v^2} small.  A target at or above the direct
    path's failure probability ``P_out_l`` holds for every beam, and the
    configured beam ``cfg.w_r`` is kept.
    """
    if not 0.0 < target_P_out_h <= 1.0:
        raise ValueError("target_P_out_h must lie in (0, 1]")
    budget = derive_link_budget(cfg)
    fail_d, a_U = outage_probs(cfg, budget).P_out_l, budget.a_U
    if target_P_out_h >= fail_d:  # also when the direct path never fails
        return cfg.w_r, ris_gain(cfg.d_RU, cfg.w_r)
    ratio = target_P_out_h / fail_d
    if ratio <= cfg.q_r:
        raise BeamAdaptationError(
            f"infeasible target {target_P_out_h}: direct-path failure "
            f"{fail_d:.4g} times RIS blockage floor {cfg.q_r} is "
            f"{fail_d * cfg.q_r:.4g}, which already exceeds the target"
        )
    q_mr = 1.0 - (1.0 - ratio) / (1.0 - cfg.q_r)
    gamma = math.sqrt(math.log2(1.0 / q_mr))
    target = 2.0 * cfg.sigma_mr * gamma

    def w_eq(w_r: float) -> float:
        return math.sqrt(equivalent_width_sq(w_r, collection_fraction(a_U, w_r)[1]))

    w_min = max(W_R_MIN, a_U * math.sqrt(math.pi / 2.0) / V_STAR)
    w_lo, w_hi = w_eq(w_min), w_eq(W_R_MAX)
    if not w_lo <= target <= w_hi:
        raise BeamAdaptationError(
            f"required equivalent width {target:.4g} m outside "
            f"the invertible range [{w_lo:.4g}, {w_hi:.4g}] m"
        )
    lo, hi = w_min, W_R_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if w_eq(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    w_r = 0.5 * (lo + hi)
    return w_r, ris_gain(cfg.d_RU, w_r)


def time_sharing_point(cfg: SystemConfig, alpha: float) -> TimeSharingPoint:
    """Baseline: HC served in a fraction lam of each slot over both paths
    at full power, LC in the remainder over the direct path at full power.

    The two phases are the ends of the MC-SC frontier
    (``optimizer.Frontier``): the HC phase is its all-HC split at LC
    power 0, the LC phase its all-LC point at LC power P_max, so time
    sharing is the chord between them.  lam equalizes the weighted
    service rates of the two classes (mirroring the max-min objective).
    When neither phase serves anything, every lam gives A_max = 0, and
    lam = alpha by convention.
    """
    budget = derive_link_budget(cfg)
    frontier = Frontier(cfg, budget)
    out, hc = frontier.outage, frontier.split(0.0)
    R_h = hc_service_rate(hc, cfg, budget)
    R_l = lc_service_rate(PowerAllocation(0.0, 0.0, cfg.P_max), cfg, budget)
    s_h, s_l = frontier.k_h * R_h, frontier.k_l * R_l
    if alpha == 0.0:
        lam, a_max = 0.0, s_l
    elif alpha == 1.0:
        lam, a_max = 1.0, s_h
    elif s_h == s_l == 0.0:
        lam, a_max = alpha, 0.0
    else:
        lam = (s_l / (1.0 - alpha)) / (s_h / alpha + s_l / (1.0 - alpha))
        a_max = lam * s_h / alpha
    thr = a_max * cfg.M / (cfg.T * cfg.B)
    return TimeSharingPoint(
        alpha=alpha,
        lam=lam,
        A_max=a_max,
        throughput_total=thr,
        throughput_hc=alpha * thr,
        R_h=R_h,
        R_l=R_l,
        P_out_h=out.P_out_h,
        P_out_l=out.P_out_l,
        p_h_d=hc.p_h_d,
        p_h_r=hc.p_h_r,
    )


def strict_hc_sweep(
    cfg: SystemConfig,
    sigma_grid,
    alpha_min: float = STRICT_HC_ALPHA_MIN,
    target: float = STRICT_HC_TARGET,
) -> SweepResult:
    """Strict-HC scenario: hold P_out_h at ``target`` by beamwidth
    adaptation, which keeps the configured beam where the target holds,
    and compare time sharing at alpha_min, MC-SC at max(alpha_min,
    alpha_sum*), and MC-SC at alpha = 1.  A sigma_m where no beam meets
    the target gives records with ``feasible`` = 0 and NaNs.  Raises
    ``ConfigError`` unless 0 < target <= 1 and 0 <= alpha_min <= 1."""
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target must lie in (0, 1], got {target!r}")
    if not 0.0 <= alpha_min <= 1.0:
        raise ConfigError(f"alpha_min must lie in [0, 1], got {alpha_min!r}")
    return _sweep(partial(_strict_hc_point, alpha_min, target), sigma_grid,
                  partial(_at_sigma_m, cfg))


# strict-HC CSV columns, the same whether or not a point is reachable
_STRICT_COLUMNS = ("sigma_m", "strategy", "w_r",
                   *(f.name for f in fields(TimeSharingPoint)), "p_l_d", "p_l_r", "feasible")


def _strict_hc_point(
    alpha_min: float, target: float, _index: int, sigma_m: float, cfg_s: SystemConfig
) -> list[dict]:
    try:
        cfg_ad = cfg_s.with_(w_r=adapt_beamwidth(cfg_s, target)[0])
    except BeamAdaptationError:
        points = [{"feasible": 0}] * 3  # unreachable: NaN metrics
    else:
        a_mc = max(alpha_min, alpha_sum_star(cfg_ad))
        points = [{"w_r": cfg_ad.w_r, "feasible": 1, **asdict(pt)} for pt in (
            time_sharing_point(cfg_ad, alpha_min),
            operating_point(cfg_ad, a_mc),
            operating_point(cfg_ad, 1.0),
        )]
    return [
        {k: {"sigma_m": sigma_m, "strategy": label, **pt}.get(k, math.nan)
         for k in _STRICT_COLUMNS}
        for label, pt in zip(("time_sharing", "mcsc", "all_hc"), points)
    ]


def simulate_time_sharing(
    cfg: SystemConfig, budget, tsp: TimeSharingPoint, buffers: queueing.SlotBuffers
):
    """Serve the slots drawn in ``buffers`` under the time-sharing baseline
    (see ``queueing.simulate_phases``): HC is served in a share lam of each
    slot at its phase's split with no LC interference, LC in the
    remaining 1 - lam on the direct path at P_max with no HC to cancel."""
    from .queueing import simulate_phases

    hc, lc = PowerAllocation(tsp.p_h_d, tsp.p_h_r, 0.0), PowerAllocation(0.0, 0.0, cfg.P_max)
    return simulate_phases(cfg, budget, hc, lc, RateTargets(tsp.R_h, tsp.R_l),
                           (tsp.lam, 1.0 - tsp.lam), buffers)


def _delay_point(schemes: tuple[str, ...], n_slots: int, n_reps: int, master_seed: int,
                 index: int, alpha: float, cfg_a: SystemConfig) -> list[dict]:
    """Records of grid point ``index`` at HC fraction ``alpha``, whose
    config is ``cfg_a``, one per scheme in ``schemes`` order.  Each
    replication is drawn once in this thread's slot workspace and served
    under every scheme, so only the summaries outlive the next one."""
    import numpy as np

    from .queueing import draw_slots, simulate, stability_diagnostic, thread_buffers

    budget = derive_link_budget(cfg_a)
    runs = [partial(simulate, cfg_a, budget, sca_solve(cfg_a, budget)) if scheme == "mcsc"
            else partial(simulate_time_sharing, cfg_a, budget, time_sharing_point(cfg_a, alpha))
            for scheme in schemes]
    buffers = thread_buffers(n_slots)
    keys = ("tau_h", "tau_l", "peak_q_h_norm", "peak_q_l_norm",
            "outage_rate_h", "outage_rate_l")
    vals = [[] for _ in schemes]  # each scheme's summary values, rep by rep
    verdicts = []
    for rep in range(n_reps):
        draw_slots(cfg_a, buffers, np.random.SeedSequence([master_seed, index, rep]))
        for run, rows in zip(runs, vals):
            trace = run(buffers)  # overwritten by the next scheme or rep
            if rep == 0:
                verdicts.append(stability_diagnostic(trace))
            rows.append([getattr(trace, key) for key in keys])
    return [{"scheme": scheme, "alpha": alpha,
             **{key: float(np.mean(col)) for key, col in zip(keys, zip(*rows))},
             "stable_h": int(verdict["hc"]), "stable_l": int(verdict["lc"])}
            for scheme, rows, verdict in zip(schemes, vals, verdicts)]


def delay_sweep(
    cfg: SystemConfig,
    alpha_grid,
    scheme: str | tuple[str, ...],
    n_slots: int = DEFAULT_N_SLOTS,
    n_reps: int = 1,
    master_seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Queueing delay and peak-queue metrics over the HC fraction at the
    configured arrival rate, for a transmission scheme (``mcsc`` or
    ``time_sharing``) or a sequence of them, whose records follow one
    another scheme by scheme.  Each replication of grid point i is drawn
    once and served under every scheme.  Any other scheme, an alpha
    outside [0, 1], an ``A_bar`` too large for numpy's Poisson sampler,
    ``n_slots`` < ``MIN_DIAGNOSTIC_SLOTS``, ``n_reps`` < 1,
    ``master_seed`` < 0, ``jobs`` < 1, or any of these four not an
    integer, raises ``ConfigError`` before a point runs or a pool opens."""
    schemes = (scheme,) if isinstance(scheme, str) else tuple(scheme)
    for name in schemes:
        if name not in SCHEMES:
            raise ConfigError(f"unknown scheme {name!r}")
    for name, value, least in (("n_slots", n_slots, MIN_DIAGNOSTIC_SLOTS), ("n_reps", n_reps, 1),
                               ("master_seed", master_seed, 0), ("jobs", jobs, 1)):
        try:
            ok = operator.index(value) >= least
        except TypeError:
            raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}") from None
        if not ok:
            raise ConfigError(f"{name} must be >= {least}, got {value}")
    # loads the simulator and numpy before a pool forks, so that its
    # workers inherit them rather than each importing its own
    import numpy as np

    from . import queueing  # noqa: F401

    try:  # numpy's own limit on the rate, asked with an empty draw
        np.random.default_rng(0).poisson(cfg.A_bar, 0)
    except ValueError as exc:
        raise ConfigError(f"A_bar = {cfg.A_bar!r} cannot be drawn: {exc}") from None
    point = partial(_delay_point, schemes, n_slots, n_reps, master_seed)
    recs, n = _sweep(point, alpha_grid, lambda a: cfg.with_(alpha=a), jobs).records, len(schemes)
    # grid order within each scheme; a point's records follow schemes order
    return SweepResult([rec for k in range(n) for rec in recs[k::n]])
