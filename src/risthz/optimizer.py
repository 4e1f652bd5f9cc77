"""Max-min stability-gap power allocation.

Solves

    max_p  min(delta_h, delta_l)

over the transmit-power simplex, where each delta is the weighted gap
between the successfully-served packet rate and the arrival rate of the
corresponding queue.  Rate targets are evaluated robustly over all
single-path blockage states at the half-power fading thresholds, through
the threshold power gains ``c_d`` and ``c_r`` of the link budget
(``channel.LinkBudget``).

The solver alternates closed-form quadratic-transform multiplier updates
with an inner concave maximization over the 2-simplex (the power budget
binds and p_l_r = 0 at the optimum, so three free powers remain).  The
inner solve uses nested golden-section search: for fixed multipliers the
rate bounds are concave in the powers, hence the objective is concave
and unimodal along every line.  The LC gap, which depends on the LC
power alone, bounds the objective from above; the searches skip the
evaluations that this bound already decides, with bit-identical results.

At the optimum the whole solution is one curve in the LC power,
``Frontier`` (see its docstring).  ``structural_solve`` reaches the
optimum exactly by bisection along it, and ``experiments`` reads the
HC-fraction searches and the time-sharing baseline off it in closed
form.  The tests check ``structural_solve`` against SCA and the
frontier's premises against brute-force grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import LinkBudget
from .config import SystemConfig
from .mcsc import OutageProbs, PowerAllocation, RateTargets, outage_probs

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)
SCA_TOL = 1e-6
SCA_MAX_ITER = 200


@dataclass(frozen=True)
class QuadTransformState:
    """Auxiliary quadratic-transform multipliers, one per HC blockage
    state plus one for the LC stream."""

    mu_h_01: float
    mu_h_10: float
    mu_h_11: float
    mu_l: float


@dataclass
class SolveResult:
    p: PowerAllocation
    R: RateTargets
    delta: tuple[float, float]
    objective: float
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


def hc_state_terms(p: PowerAllocation, budget: LinkBudget):
    """(signal, interference + noise) of the HC stream at threshold fading
    in the blockage states (0,1), (1,0) and (1,1), in that order.

    Plain arithmetic, so the powers may be floats (the SCA multiplier
    updates and rate bounds) or equal-shape arrays with the same rounding.
    """
    c_d, c_r, s2 = budget.c_d, budget.c_r, budget.sigma_n2
    sig_d, sig_r = c_d * p.p_h_d, c_r * p.p_h_r
    itf_d, itf_r = c_d * p.p_l_d, c_r * p.p_l_r
    return (
        (sig_r, itf_r + s2),
        (sig_d, itf_d + s2),
        (sig_d + sig_r, itf_d + itf_r + s2),
    )


def _log2_1p(v: float) -> float:
    """log2(1 + v).  Below 2^-20, rounding 1 + v would lose more than 20 of
    v's bits, and HC rates that small are divided by HC fractions as
    small in the gaps, so log1p takes over there.  Above it the result
    is log2(1 + v) to the bit, as the recorded test data expects."""
    return math.log2(1.0 + v) if v >= 2.0**-20 else math.log1p(v) / _LN2


def hc_service_rate(p: PowerAllocation, cfg: SystemConfig, budget: LinkBudget) -> float:
    """Robust HC rate: B log2(1 + min-state SINR at threshold fading) [bit/s]."""
    terms = hc_state_terms(p, budget)
    return cfg.B * _log2_1p(min(sig / itf for sig, itf in terms))


def lc_service_rate(p: PowerAllocation, cfg: SystemConfig, budget: LinkBudget) -> float:
    """Robust LC rate with beta_d = 1 and the RIS path at its worst case
    (beta_r = 0), matching the quadratic-transform surrogate g_l [bit/s]."""
    return cfg.B * math.log2(1.0 + budget.c_d * p.p_l_d / budget.sigma_n2)


def stability_gaps(
    R: RateTargets, cfg: SystemConfig, outage: OutageProbs
) -> tuple[float, float]:
    """Per-queue stability gaps (delta_h, delta_l) [packets/slot], elementwise
    when the rates are arrays.

    delta = (successfully-served packet rate) / class weight - A_bar.
    A class with zero weight has a vacuously stable queue; its gap is
    reported as +inf so the max-min objective reduces to the other term.
    """
    tm = cfg.T / cfg.M
    if cfg.alpha == 0.0:
        delta_h = math.inf
    else:
        delta_h = ((1.0 - outage.P_out_h) * tm * R.R_h - cfg.alpha * cfg.A_bar) / cfg.alpha
    if cfg.alpha == 1.0:
        delta_l = math.inf
    else:
        delta_l = (
            (1.0 - outage.P_out_l) * tm * R.R_l - (1.0 - cfg.alpha) * cfg.A_bar
        ) / (1.0 - cfg.alpha)
    return delta_h, delta_l


def _evaluate(
    p: PowerAllocation, cfg: SystemConfig, budget: LinkBudget, outage: OutageProbs
) -> tuple[RateTargets, tuple[float, float]]:
    """The robust rates at powers p and the stability gaps they give."""
    R = RateTargets(
        R_h=hc_service_rate(p, cfg, budget), R_l=lc_service_rate(p, cfg, budget)
    )
    return R, stability_gaps(R, cfg, outage)


def update_mu(p: PowerAllocation, budget: LinkBudget) -> QuadTransformState:
    """Closed-form optimal quadratic-transform multipliers at fixed powers:
    mu* = sqrt(signal) / (interference + noise) per constraint."""
    terms = hc_state_terms(p, budget)
    mu_01, mu_10, mu_11 = (math.sqrt(sig) / itf for sig, itf in terms)
    mu_l = math.sqrt(budget.c_d * p.p_l_d) / budget.sigma_n2
    return QuadTransformState(mu_h_01=mu_01, mu_h_10=mu_10, mu_h_11=mu_11, mu_l=mu_l)


def surrogate_gamma_h(p: PowerAllocation, mu: QuadTransformState, budget: LinkBudget) -> float:
    """Largest gamma_h satisfying every g_{h,beta} <= 0 at fixed mu
    (negative bounds clamp to zero so the rate stays defined)."""
    best = math.inf
    for (sig, itf), m in zip(
        hc_state_terms(p, budget), (mu.mu_h_01, mu.mu_h_10, mu.mu_h_11)
    ):
        best = min(best, 2.0 * m * math.sqrt(sig) - m * m * itf)
    return max(0.0, best)


def surrogate_gamma_l(p: PowerAllocation, mu: QuadTransformState, budget: LinkBudget) -> float:
    return max(
        0.0, 2.0 * mu.mu_l * math.sqrt(budget.c_d * p.p_l_d) - mu.mu_l**2 * budget.sigma_n2
    )


def _argmax(vals) -> int:
    """Index of the first maximum, or of the first NaN (``np.argmax``'s
    rule, without building an array)."""
    i, best = 0, vals[0]
    for j, v in enumerate(vals):
        if v != v:
            return j
        if v > best:
            i, best = j, v
    return i


def _golden_max(fn, lo: float, hi: float, tol: float, cap: float = math.nan,
                staged: bool = False):
    """Golden-section maximization of a unimodal function on [lo, hi].

    Returns (x, fn(x)).  Endpoints are always among the candidates so
    boundary optima are hit exactly.

    The search keeps the better of its two interior points, so the value
    it returns is the largest one it evaluated.  Two optional upper
    bounds on fn skip evaluations that cannot change the result:

    - ``cap`` bounds every value (the default, NaN, is reached by none).
      The first value that reaches it, trying the endpoints first, is
      returned at once: the full search's value, not always its point.
    - With ``staged``, ``fn(x)`` returns ``(ub, value)``: an upper bound
      on fn(x) and a function of no arguments computing fn(x).  A point
      whose bound already loses is not computed: a new left point when
      ub < the kept value, a new right point when ub <= it (``f1 >= f2``
      gives ties to the left) and ``lo`` when ub < max(f1, f2).  The
      bound stands in and loses as the value would, so the point and
      value returned are the full search's.  NaN compares False, so a
      NaN skips nothing.
    """
    if staged:
        stages = fn

        def fn(x, loses=None):
            ub, value = stages(x)
            return ub if loses is not None and loses(ub) else value()

    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        cands = [lo, x, hi] if hi > lo else [lo]
        vals = [fn(c) for c in cands]
        i = _argmax(vals)
        return cands[i], vals[i]
    if not staged:  # staged, lo waits for the bound to beat
        f_lo = fn(lo)
        if f_lo >= cap:
            return lo, f_lo
    f_hi = fn(hi)
    if f_hi >= cap:
        return hi, f_hi
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = fn(x1)
    if f1 >= cap:
        return x1, f1
    f2 = fn(x2, lambda ub: ub <= f1) if staged else fn(x2)
    if f2 >= cap:
        return x2, f2
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fn(x1, lambda ub: ub < f2) if staged else fn(x1)
            if f1 >= cap:
                return x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fn(x2, lambda ub: ub <= f1) if staged else fn(x2)
            if f2 >= cap:
                return x2, f2
    if staged:
        f_lo = fn(lo, lambda ub: ub < max(f1, f2))
    cands = [lo, x1, x2, hi]
    vals = [f_lo, f1, f2, f_hi]
    i = _argmax(vals)
    return cands[i], vals[i]


def surrogate_objective(
    mu: QuadTransformState, cfg: SystemConfig, budget: LinkBudget, outage: OutageProbs
):
    """Surrogate max-min objective at fixed mu, staged for the nested search.

    ``at = surrogate_objective(mu, cfg, budget, outage)`` gives, at LC power
    x, ``(fy, d_l)``: the LC gap and ``fy(y)``, which equals, bit for bit,
    ``min(stability_gaps(...))`` at the rates ``B log2(1 + gamma)`` of
    ``surrogate_gamma_h``/``surrogate_gamma_l`` at p = (y, P_max - x - y, x, 0):
    the float operations are the same and run in the same order.  Terms
    free of y are computed once per x (the whole LC gap and the
    interference c_d x + sigma^2 of HC states (1,0) and (1,1)), and terms
    free of both once per call, so each y costs three square roots and
    one log.  ``min(a, b)`` is written ``b if b < a else a`` and
    ``max(0, v)`` as ``v if 0 < v else 0``, the builtins' tie and NaN rules.
    """
    sqrt, log2, inf = math.sqrt, math.log2, math.inf
    B, P, alpha, s2 = cfg.B, cfg.P_max, cfg.alpha, budget.sigma_n2
    c_d, c_r = budget.c_d, budget.c_r
    tm = cfg.T / cfg.M
    k_h = (1.0 - outage.P_out_h) * tm
    k_l = (1.0 - outage.P_out_l) * tm
    a_h = alpha * cfg.A_bar
    a_l = (1.0 - alpha) * cfg.A_bar
    two_01, two_10, two_11 = 2.0 * mu.mu_h_01, 2.0 * mu.mu_h_10, 2.0 * mu.mu_h_11
    q_01 = mu.mu_h_01 * mu.mu_h_01 * s2
    sq_10, sq_11 = mu.mu_h_10 * mu.mu_h_10, mu.mu_h_11 * mu.mu_h_11
    two_l, q_l = 2.0 * mu.mu_l, mu.mu_l**2 * s2

    def at(x: float):
        rem = P - x
        itf = c_d * x + s2
        q_10, q_11 = sq_10 * itf, sq_11 * itf
        gam_l = two_l * sqrt(c_d * x) - q_l
        gam_l = gam_l if 0.0 < gam_l else 0.0
        if alpha == 1.0:
            d_l = inf
        else:
            d_l = (k_l * (B * log2(1.0 + gam_l)) - a_l) / (1.0 - alpha)
        if alpha == 0.0:
            const = d_l if d_l < inf else inf  # min(inf, d_l)
            return (lambda y: const), d_l

        def fy(y: float) -> float:
            sig_d, sig_r = c_d * y, c_r * (rem - y)
            v = two_01 * sqrt(sig_r) - q_01
            gam_h = v if v < inf else inf  # min(inf, v)
            v = two_10 * sqrt(sig_d) - q_10
            if v < gam_h:
                gam_h = v
            v = two_11 * sqrt(sig_d + sig_r) - q_11
            if v < gam_h:
                gam_h = v
            gam_h = gam_h if 0.0 < gam_h else 0.0
            d_h = (k_h * (B * log2(1.0 + gam_h)) - a_h) / alpha
            return d_l if d_l < d_h else d_h

        return fy, d_l

    return at


def solve_subproblem(
    mu: QuadTransformState,
    cfg: SystemConfig,
    budget: LinkBudget,
    outage: OutageProbs,
) -> SolveResult:
    """Maximize the surrogate objective over the power simplex at fixed mu,
    with the closed-form ``outage`` of ``cfg`` and ``budget``.

    The power budget binds and p_l_r = 0, leaving the 2-simplex
    {p_h_d + p_h_r + p_l_d = P_max}.  Nested golden-section search is
    exact here because the surrogate is jointly concave in the powers.

    The LC gap d_l(x) bounds every surrogate value at LC power x, since
    the surrogate is min(d_h, d_l) and d_l does not depend on y.  So an
    inner search stops at the first value that reaches d_l, and the
    outer search skips an x whose d_l already loses to the point it
    keeps (``_golden_max``'s ``cap`` and ``staged``).  Both bounds only
    skip evaluations whose outcome they already decide, so the powers
    and objective are those of the full nested search, bit for bit.
    The search at the chosen x, whose y gives the powers, runs in full.
    """
    P = cfg.P_max
    tol = 1e-8 * max(P, 1e-30)
    at = surrogate_objective(mu, cfg, budget, outage)

    def outer(x: float):
        # x = p_l_d; the inner search splits the rest between p_h_d and p_h_r
        fy, d_l = at(x)
        return d_l, lambda: _golden_max(fy, 0.0, P - x, tol, cap=d_l)[1]

    x_best, _ = _golden_max(outer, 0.0, P, tol, staged=True)
    y_best, obj = _golden_max(at(x_best)[0], 0.0, P - x_best, tol)
    p = PowerAllocation(y_best, P - x_best - y_best, x_best)
    R, d = _evaluate(p, cfg, budget, outage)
    return SolveResult(
        p=p, R=R, delta=d, objective=obj, iterations=1, converged=True
    )


def sca_solve(cfg: SystemConfig, budget: LinkBudget, trace_hook=None) -> SolveResult:
    """Alternate multiplier updates and subproblem solves, from the equal
    three-way power split, until the true objective stalls (a relative
    change of at most ``SCA_TOL``) or ``SCA_MAX_ITER`` iterations pass.

    The surrogate minorizes the true objective and is tight at the
    expansion point, so every accepted step is an ascent step; iterates
    that would decrease the true objective (inner-solver tolerance noise)
    are rejected, which makes the reported trace nondecreasing.

    Infeasibility (both queues unstabilizable) shows up as a negative
    final objective, not as an error.
    """
    outage = outage_probs(cfg, budget)
    p = PowerAllocation(cfg.P_max / 3.0, cfg.P_max / 3.0, cfg.P_max / 3.0)
    R, d = _evaluate(p, cfg, budget, outage)
    obj = min(d)
    trace = [obj]
    converged = False
    it = 0
    for it in range(1, SCA_MAX_ITER + 1):
        mu = update_mu(p, budget)
        sub = solve_subproblem(mu, cfg, budget, outage=outage)
        new_obj = min(sub.delta)
        if new_obj >= obj:
            p, R, d, prev, obj = sub.p, sub.R, sub.delta, obj, new_obj
        else:
            prev = obj  # reject the step; trace stays flat
        trace.append(obj)
        if trace_hook is not None:
            trace_hook(it, obj, mu, p)
        if abs(obj - prev) <= SCA_TOL * (1.0 + abs(obj)):
            converged = True
            break

    return SolveResult(
        p=p,
        R=R,
        delta=d,
        objective=obj,
        iterations=it,
        converged=converged,
        objective_trace=trace,
    )


class Frontier:
    """The max-min frontier at A_bar = 0 as a curve in the LC power x.

    With p_l_r = 0 and the power budget binding, two facts reduce the
    problem to x = p_l_d:

    1. HC state (1,1) never binds: it has the signal of state (1,0) plus
       the RIS signal over the same interference + noise
       I = c_d x + sigma^2.  The best split of the HC power P - x
       therefore equalizes states (1,0) and (0,1) (``split``).
    2. The served rates S = k R, k = (1 - P_out) T / M, are then, for
       c = c_d c_r and D = (c_d + c_r) sigma^2,
       R_h = B log2((D + c P) / (D + c x)), falling in x, and
       R_l = B log2(1 + c_d x / sigma^2), rising in x.

    At HC fraction alpha the gaps are equal at the optimum,
    (1 - alpha) S_h = alpha S_l, so alpha(x) = S_h / (S_h + S_l) falls
    from 1 at x = 0 to 0 at x = P, and A = S_h + S_l is the largest
    stabilizable arrival rate.
    """

    def __init__(self, cfg: SystemConfig, budget: LinkBudget):
        self.outage = out = outage_probs(cfg, budget)
        c_d, c_r, s2 = budget.c_d, budget.c_r, budget.sigma_n2
        self.c_d, self.c_r, self.s2 = c_d, c_r, s2
        self.c, self.D = c_d * c_r, (c_d + c_r) * s2
        tm = cfg.T / cfg.M
        self.k_h, self.k_l = (1.0 - out.P_out_h) * tm, (1.0 - out.P_out_l) * tm
        self.B, self.P = cfg.B, cfg.P_max
        self.top = self.D + self.c * self.P

    def split(self, x: float) -> PowerAllocation:
        """Powers at LC power x, ``p_h_d = c_r (P - x) I / (c_d sigma^2 + c_r I)``.
        Both HC powers come from the closed form: P - x - p_h_d would lose
        digits to cancellation when p_h_r is a small share of P - x."""
        c_d, c_r, s2 = self.c_d, self.c_r, self.s2
        rem, itf = self.P - x, c_d * x + s2
        den = c_d * s2 + c_r * itf
        return PowerAllocation(c_r * rem * itf / den, c_d * s2 * rem / den, x)

    def rate(self, x: float, w_h: float = 1.0, w_l: float = 1.0) -> float:
        """w_h S_h + w_l S_l at LC power x [packets/slot]."""
        log2, den = math.log2, self.D + self.c * x
        gain = self.c * (self.P - x) / den  # top / den - 1
        hc = log2(self.top / den) if gain >= 2.0**-20 else math.log1p(gain) / _LN2
        return (w_h * self.k_h * (self.B * hc)
                + w_l * self.k_l * (self.B * log2(1.0 + self.c_d * x / self.s2)))

    def alpha(self, x: float) -> float:
        """HC fraction whose optimum lies at x (0 where nothing is served)."""
        a = self.rate(x)
        return self.rate(x, 1.0, 0.0) / a if a > 0.0 else 0.0

    def argmax(self, w_h: float, w_l: float, hi: float) -> float:
        """The x in [0, hi] maximizing ``rate(x, w_h, w_l)``.

        The derivative of ``rate`` has the sign of a linear function of x
        with its root at x* = sigma^2 (b / ((a - b) c_r) - 1 / c_d),
        a = w_h k_h, b = w_l k_l: a maximum when a > b, negative
        otherwise.  So the argmax is x* clipped to [0, hi] or an
        endpoint; ties go to the largest x.
        """
        a, b = w_h * self.k_h, w_l * self.k_l
        x_star = self.s2 * (b / ((a - b) * self.c_r) - 1.0 / self.c_d) if a > b else 0.0
        return max((hi, min(max(x_star, 0.0), hi), 0.0), key=lambda x: self.rate(x, w_h, w_l))

    def bracket(self, alpha: float) -> tuple[float, float, int]:
        """``(lo, hi, steps)``: adjacent floats around the optimum at HC
        fraction alpha, with (1 - alpha) S_h >= alpha S_l at lo and not at
        hi, after ``steps`` bisection steps on [0, P].  (P, P, 0) at
        alpha = 0 and (0, 0, 0) at alpha = 1, where the other gap is vacuous.
        """
        if alpha == 0.0:
            return self.P, self.P, 0
        if alpha == 1.0:
            return 0.0, 0.0, 0
        lo, hi, it = 0.0, self.P, 0  # holds at 0, where S_l = 0; fails at P, where S_h = 0
        w_h, w_l = 1.0 - alpha, -alpha
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo, hi, it
            it += 1
            if self.rate(mid, w_h, w_l) >= 0.0:
                lo = mid
            else:
                hi = mid


def structural_solve(cfg: SystemConfig, budget: LinkBudget) -> SolveResult:
    """Exact max-min power allocation: the better end, by objective, of
    ``Frontier.bracket(cfg.alpha)``.  A_bar shifts both gaps alike and does
    not move the powers.  The objective is min(stability_gaps) at the
    returned powers, as in ``sca_solve``; ``iterations`` counts bisection
    steps."""
    frontier = Frontier(cfg, budget)
    lo, hi, it = frontier.bracket(cfg.alpha)
    p, (R, d) = max(((p, _evaluate(p, cfg, budget, frontier.outage))
                     for p in (frontier.split(lo), frontier.split(hi))),
                    key=lambda end: min(end[1][1]))
    return SolveResult(
        p=p, R=R, delta=d, objective=min(d), iterations=it, converged=True
    )


def random_config(rng: numpy.random.Generator, base: SystemConfig | None = None) -> SystemConfig:
    """Randomized config for solver-vs-oracle checks: spans blockage
    probabilities up to 0.5, pointing-error scales 0.02-0.3 m, and the
    full HC-fraction range."""
    base = base if base is not None else SystemConfig()
    sigma = float(rng.uniform(0.02, 0.3))
    return base.with_(
        q_d=float(rng.uniform(0.0, 0.5)),
        q_r=float(rng.uniform(0.0, 0.5)),
        sigma_md=sigma,
        sigma_mr=float(rng.uniform(sigma, 2.0 * sigma)),
        w_r=float(rng.uniform(0.2, 1.5)),
        alpha=float(rng.uniform(0.02, 0.98)),
        A_bar=float(rng.uniform(0.0, 1600.0)),
    )


def max_arrival_rate(cfg: SystemConfig, budget: LinkBudget, alpha: float) -> float:
    """Largest mean arrival rate stabilizing both queues at HC fraction
    alpha [packets/slot].

    The optimal powers do not depend on A_bar (it shifts both gaps
    equally), so this equals the max-min objective at A_bar = 0.
    """
    cfg0 = cfg.with_(alpha=alpha, A_bar=0.0)
    return sca_solve(cfg0, budget).objective
