"""Sweep drivers and derived analyses.

Reproduces the headline studies at desk scale: the throughput
feasibility region over the HC fraction, the throughput-maximizing and
tradeoff HC fractions, blockage and misalignment sweeps, beamwidth
adaptation under an HC outage target, the time-sharing baseline, and
queueing-delay sweeps.

Sweep points are independent; with ``jobs > 1`` they are evaluated in a
process pool and results are reassembled in grid order.  Simulation
seeds derive from a master seed via
``numpy.random.SeedSequence([master_seed, point_index, replication])``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .channel import channel_gains, collection_fraction, derive_link_budget, ris_gain
from .config import ConfigError, SystemConfig
from .mcsc import outage_probs
from .optimizer import (
    _golden_max,
    sca_solve,
    structural_solve,
    threshold_gains,
)
from .queueing import (
    run_queues,
    sample_arrivals,
    sample_channel_slots,
    simulate,
    stability_diagnostic,
)

W_R_MIN = 1e-4  # [m] bisection bracket for beamwidth inversion
W_R_MAX = 10.0

DEFAULT_N_SLOTS = 20000


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
    blob = repr(sorted(cfg.as_dict().items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _pmap(fn, items, jobs: int):
    """Order-preserving map, optionally over a process pool."""
    if jobs <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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


def feasibility_region(
    cfg: SystemConfig, alpha_grid, jobs: int = 1
) -> SweepResult:
    """Maximum stabilizable arrival rate (as throughput) over the HC fraction."""
    grid = [float(a) for a in alpha_grid]
    points = _pmap(partial(operating_point, cfg), grid, jobs)
    return SweepResult([asdict(pt) for pt in points])


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


def _frontier(cfg: SystemConfig, budget):
    """The max-min frontier at A_bar = 0 as a curve in the LC power x.

    The gaps are equal at the optimum (``structural_solve``), so the HC
    fraction alpha(x) = S_h / (S_h + S_l) falls from 1 at x = 0 to 0 at
    x = P, and A = S_h + S_l is the largest stabilizable arrival rate.
    The served rates are S = k R with k = (1 - P_out) T / M and, for
    c = c_d c_r and D = (c_d + c_r) sigma^2,
    R_h = B log2((D + c P) / (D + c x)), R_l = B log2(1 + c_d x / sigma^2).

    Returns ``rate(x, w_h=1, w_l=1)`` = w_h S_h + w_l S_l, ``alpha(x)``
    (0 where nothing is served) and ``argmax(w_h, w_l, hi)``, the x in
    [0, hi] maximizing ``rate``.  The derivative of ``rate`` has the sign
    of a linear function of x with its root at
    x* = sigma^2 (b / ((a - b) c_r) - 1 / c_d), a = w_h k_h, b = w_l k_l:
    a maximum when a > b, negative otherwise.  So the argmax is x*
    clipped to [0, hi] or an endpoint; ties go to the largest x.
    """
    out = outage_probs(cfg, budget)
    g = threshold_gains(budget)
    c_d, c_r, s2 = g.c_d, g.c_r, g.sigma_n2
    c, D = c_d * c_r, (c_d + c_r) * s2
    tm = cfg.T / cfg.M
    k_h, k_l = (1.0 - out.P_out_h) * tm, (1.0 - out.P_out_l) * tm
    B, P, log2 = cfg.B, cfg.P_max, math.log2

    def rate(x: float, w_h: float = 1.0, w_l: float = 1.0) -> float:
        return (w_h * k_h * (B * log2((D + c * P) / (D + c * x)))
                + w_l * k_l * (B * log2(1.0 + c_d * x / s2)))

    def alpha(x: float) -> float:
        a = rate(x)
        return rate(x, 1.0, 0.0) / a if a > 0.0 else 0.0

    def argmax(w_h: float, w_l: float, hi: float) -> float:
        a, b = w_h * k_h, w_l * k_l
        x_star = s2 * (b / ((a - b) * c_r) - 1.0 / c_d) if a > b else 0.0
        return max((hi, min(max(x_star, 0.0), hi), 0.0), key=lambda x: rate(x, w_h, w_l))

    return rate, alpha, argmax


def alpha_sum_star(cfg: SystemConfig) -> float:
    """HC fraction maximizing the total stabilizable throughput, in closed
    form on the frontier (``_frontier``); 0 when nothing can be served."""
    _, alpha, argmax = _frontier(cfg, derive_link_budget(cfg))
    return alpha(argmax(1.0, 1.0, cfg.P_max))


def alpha_tradeoff_star(cfg: SystemConfig, alpha_sum: float | None = None) -> float:
    """Tradeoff HC fraction: maximizes normalized total throughput plus
    normalized HC throughput over [alpha_sum*, 1].

    On the frontier that is A(x) / A(x_sum) + S_h(x) / A(0) over
    x in [0, x_sum], solved like ``alpha_sum_star``.  A caller-given
    ``alpha_sum`` maps to x_sum through one ``structural_solve``.  A term
    whose normalizer is 0 is dropped.
    """
    budget = derive_link_budget(cfg)
    rate, alpha, argmax = _frontier(cfg, budget)
    if alpha_sum is None:
        x_sum = argmax(1.0, 1.0, cfg.P_max)
    else:
        x_sum = structural_solve(cfg.with_(alpha=alpha_sum, A_bar=0.0), budget).p.p_l_d
    u, v = (1.0 / a if a > 0.0 else 0.0 for a in (rate(x_sum), rate(0.0)))
    x_t = argmax(u + v, u, x_sum)
    if x_t == x_sum and alpha_sum is not None:
        return alpha_sum  # the bracket's end is the caller's alpha
    return alpha(x_t)


def _three_alpha_records(cfg: SystemConfig, label_value: tuple[str, float]) -> list[dict]:
    """Operating points at alpha = 0, alpha_T*, 1 for one sweep setting."""
    name, value = label_value
    a_t = alpha_tradeoff_star(cfg)
    records = []
    for label, alpha in (("0", 0.0), ("alpha_T", a_t), ("1", 1.0)):
        rec = {name: value, "alpha_label": label}
        rec.update(asdict(operating_point(cfg, alpha)))
        records.append(rec)
    return records


def _blockage_point(cfg: SystemConfig, q_d: float) -> list[dict]:
    return _three_alpha_records(cfg.with_(q_d=q_d), ("q_d", q_d))


def blockage_sweep(cfg: SystemConfig, q_d_grid, jobs: int = 1) -> SweepResult:
    """Throughput/outage versus direct-path blockage probability, at
    alpha in {0, alpha_T*(q_d), 1} (tradeoff point recomputed per grid point)."""
    grid = [float(q) for q in q_d_grid]
    nested = _pmap(partial(_blockage_point, cfg), grid, jobs)
    return SweepResult([r for recs in nested for r in recs])


def _misalignment_point(cfg: SystemConfig, sigma_m: float) -> list[dict]:
    cfg_s = cfg.with_(sigma_md=sigma_m, sigma_mr=2.0 * sigma_m)
    return _three_alpha_records(cfg_s, ("sigma_m", sigma_m))


def misalignment_sweep(cfg: SystemConfig, sigma_grid, jobs: int = 1) -> SweepResult:
    """Throughput/outage versus pointing-error scale, with
    sigma_md = sigma_m and sigma_mr = 2 sigma_m."""
    grid = [float(s) for s in sigma_grid]
    nested = _pmap(partial(_misalignment_point, cfg), grid, jobs)
    return SweepResult([r for recs in nested for r in recs])


def _log_w_eq_of_w_r(a_U: float, w_r: float) -> float:
    """log of the reflected equivalent beamwidth as a function of w_r, for
    a receiving aperture of radius a_U.

    Evaluated in log space because the equivalent-width factor contains
    e^{v^2}, which overflows for very narrow beams (v ~ a_U / w_r).
    """
    _, v = collection_fraction(a_U, w_r)
    # log w_eq^2 = 2 log w + log(sqrt(pi) erf(v) / (2 v)) + v^2
    log_sq = (
        2.0 * math.log(w_r)
        + math.log(math.sqrt(math.pi) * math.erf(v) / (2.0 * v))
        + v * v
    )
    return 0.5 * log_sq


def adapt_beamwidth(cfg: SystemConfig, target_P_out_h: float) -> tuple[float, float]:
    """Reflected-beam radius (and resulting RIS gain) holding the HC
    outage probability at ``target_P_out_h``.

    Solves the outage factorization for the required RIS misdetection
    probability, maps it to an equivalent beamwidth, and inverts the
    equivalent-width relation by bisection.  w_eq(w_r) is non-monotone:
    it diverges for beams much narrower than the receiving aperture and
    grows like w_r for wide beams, with a minimum near w_r ~ a_U.  The
    adaptation widens the beam (trading RIS gain for misalignment
    robustness), so the inversion uses the increasing wide-beam branch,
    whose monotonicity is checked numerically.  If the target can be
    met by any beam, returns the narrowest (highest-gain) bracket beam
    by convention.
    """
    if not 0.0 < target_P_out_h <= 1.0:
        raise ValueError("target_P_out_h must lie in (0, 1]")
    budget = derive_link_budget(cfg)
    fail_d, a_U = outage_probs(cfg, budget).P_out_l, budget.a_U
    ratio = target_P_out_h / fail_d
    if ratio >= 1.0:
        return W_R_MIN, ris_gain(cfg.d_RU, W_R_MIN)
    if ratio <= cfg.q_r:
        raise BeamAdaptationError(
            f"infeasible target {target_P_out_h}: direct-path failure "
            f"{fail_d:.4g} times RIS blockage floor {cfg.q_r} is "
            f"{fail_d * cfg.q_r:.4g}, which already exceeds the target"
        )
    q_mr = 1.0 - (1.0 - ratio) / (1.0 - cfg.q_r)
    gamma = math.sqrt(math.log2(1.0 / q_mr))
    log_target = math.log(2.0 * cfg.sigma_mr * gamma)

    probes = np.geomspace(W_R_MIN, W_R_MAX, 200)
    logs = [_log_w_eq_of_w_r(a_U, float(w)) for w in probes]
    i_min = int(np.argmin(logs))
    branch = logs[i_min:]
    if not all(b > a for a, b in zip(branch, branch[1:])):
        raise BeamAdaptationError("w_eq(w_r) not monotone on the wide-beam branch")
    if not branch[0] <= log_target <= branch[-1]:
        raise BeamAdaptationError(
            f"required equivalent width {math.exp(log_target):.4g} m outside "
            f"the invertible range [{math.exp(branch[0]):.4g}, "
            f"{math.exp(branch[-1]):.4g}] m"
        )
    lo, hi = float(probes[i_min]), W_R_MAX
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _log_w_eq_of_w_r(a_U, mid) < log_target:
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

    The HC-phase split maximizes the worst-case HC rate over the
    single-path blockage states at threshold fading; lam equalizes the
    weighted service rates of the two classes (mirroring the max-min
    objective).
    """
    budget = derive_link_budget(cfg)
    g = threshold_gains(budget)
    out = outage_probs(cfg, budget)
    P = cfg.P_max

    # the worst of states (1,0) and (0,1), min(c_d y, c_r (P - y)), peaks
    # where the two are equal; (1,1) is their sum and never binds.  Both
    # powers come from the closed form: P - y loses digits when y ~ P.
    y = g.c_r * P / (g.c_d + g.c_r)
    p_h_r = g.c_d * P / (g.c_d + g.c_r)
    R_h = cfg.B * math.log2(1.0 + g.c_d * y / g.sigma_n2)
    R_l = cfg.B * math.log2(1.0 + g.c_d * P / g.sigma_n2)
    tm = cfg.T / cfg.M
    s_h = (1.0 - out.P_out_h) * tm * R_h
    s_l = (1.0 - out.P_out_l) * tm * R_l
    if alpha == 0.0:
        lam, a_max = 0.0, s_l
    elif alpha == 1.0:
        lam, a_max = 1.0, s_h
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
        p_h_d=y,
        p_h_r=p_h_r,
    )


def strict_hc_sweep(
    cfg: SystemConfig,
    sigma_grid,
    alpha_min: float = 0.3,
    target: float = 0.05,
    jobs: int = 1,
) -> SweepResult:
    """Strict-HC scenario: hold P_out_h at ``target`` by beamwidth
    adaptation and compare time sharing at alpha_min, MC-SC at
    max(alpha_min, alpha_sum*), and MC-SC at alpha = 1.  A sigma_m where
    no beam meets the target gives records with ``feasible`` = 0 and NaNs.
    Raises ``ConfigError`` unless 0 < target <= 1 and 0 <= alpha_min <= 1."""
    if not 0.0 < target <= 1.0:
        raise ConfigError(f"target must lie in (0, 1], got {target!r}")
    if not 0.0 <= alpha_min <= 1.0:
        raise ConfigError(f"alpha_min must lie in [0, 1], got {alpha_min!r}")
    grid = [float(s) for s in sigma_grid]
    fn = partial(_strict_hc_point, cfg, alpha_min, target)
    nested = _pmap(fn, grid, jobs)
    return SweepResult([r for recs in nested for r in recs])


# strict-HC CSV columns, the same whether or not a point is reachable
_STRICT_COLUMNS = ("sigma_m", "strategy", "w_r",
                   *(f.name for f in fields(TimeSharingPoint)), "p_l_d", "p_l_r", "feasible")


def _strict_hc_point(
    cfg: SystemConfig, alpha_min: float, target: float, sigma_m: float
) -> list[dict]:
    cfg_s = cfg.with_(sigma_md=sigma_m, sigma_mr=2.0 * sigma_m)
    cfg_ad = cfg_s  # a target at or above P_out_l holds for every beamwidth
    try:
        if target < outage_probs(cfg_s, derive_link_budget(cfg_s)).P_out_l:
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
    cfg: SystemConfig, budget, tsp: TimeSharingPoint, n_slots: int, seed
):
    """Queue simulation under the time-sharing baseline: each class is
    served in its slot fraction; decoding uses the phase's own powers."""
    rng = np.random.default_rng(seed)
    arrivals = sample_arrivals(cfg, n_slots, rng)
    beta_d, beta_r, eps_d, eps_r = sample_channel_slots(cfg, n_slots, rng)
    h2, g2 = channel_gains(budget, beta_d, beta_r, eps_d, eps_r)
    s2 = budget.sigma_n2
    r_h = cfg.B * np.log2(1.0 + (h2 * tsp.p_h_d + g2 * tsp.p_h_r) / s2)
    r_l = cfg.B * np.log2(1.0 + h2 * cfg.P_max / s2)
    xi_h = (r_h >= tsp.R_h).astype(np.int8)
    xi_l = (r_l >= tsp.R_l).astype(np.int8)
    tm = cfg.T / cfg.M
    service_h = xi_h * (tsp.lam * tm * tsp.R_h)
    service_l = xi_l * ((1.0 - tsp.lam) * tm * tsp.R_l)
    return run_queues(cfg, arrivals, service_h, service_l, xi_h, xi_l)


def _delay_point(
    cfg: SystemConfig,
    scheme: str,
    n_slots: int,
    n_reps: int,
    master_seed: int,
    idx_alpha: tuple[int, float],
) -> dict:
    idx, alpha = idx_alpha
    cfg_a = cfg.with_(alpha=alpha)
    budget = derive_link_budget(cfg_a)
    if scheme == "mcsc":
        res = sca_solve(cfg_a, budget)
    elif scheme == "time_sharing":
        tsp = time_sharing_point(cfg_a, alpha)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    traces = []
    for rep in range(n_reps):
        seed = np.random.SeedSequence([master_seed, idx, rep])
        if scheme == "mcsc":
            traces.append(simulate(cfg_a, budget, res, n_slots, seed))
        else:
            traces.append(simulate_time_sharing(cfg_a, budget, tsp, n_slots, seed))
    verdict = stability_diagnostic(traces[0])
    rec = {"scheme": scheme, "alpha": alpha}
    for key in (
        "tau_h",
        "tau_l",
        "peak_q_h_norm",
        "peak_q_l_norm",
        "outage_rate_h",
        "outage_rate_l",
    ):
        vals = [getattr(t, key) for t in traces]
        rec[key] = float(np.mean(vals))
    rec["stable_h"] = int(verdict["hc"])
    rec["stable_l"] = int(verdict["lc"])
    return rec


def delay_sweep(
    cfg: SystemConfig,
    alpha_grid,
    scheme: str,
    n_slots: int = DEFAULT_N_SLOTS,
    n_reps: int = 1,
    master_seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Queueing delay and peak-queue metrics over the HC fraction at the
    configured arrival rate, for either transmission scheme."""
    grid = [float(a) for a in alpha_grid]
    fn = partial(_delay_point, cfg, scheme, n_slots, n_reps, master_seed)
    return SweepResult(_pmap(fn, list(enumerate(grid)), jobs))
