"""Power-allocation solver tests: rate bounds, stability gaps,
quadratic-transform updates, SCA convergence, the structural solver and
the brute-force grids that check its premises."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risthz.channel import LinkBudget, derive_link_budget
from risthz.config import SystemConfig
from risthz.mcsc import OutageProbs, PowerAllocation, RateTargets, outage_probs
from risthz.optimizer import (
    Frontier,
    SolveResult,
    _argmax,
    _evaluate,
    _golden_max,
    hc_service_rate,
    hc_state_terms,
    lc_service_rate,
    max_arrival_rate,
    random_config,
    sca_solve,
    solve_subproblem,
    stability_gaps,
    structural_solve,
    surrogate_gamma_h,
    surrogate_gamma_l,
    surrogate_objective,
    update_mu,
)

# Independently scripted one-line evaluations for the default config at
# p = (P_max/3, P_max/3, P_max/3, 0).
RH_THIRD = 9783410934.457842      # bit/s
RL_THIRD = 50684780570.45611      # bit/s
MU_H = (252204.56516704857, 26949.3544925422, 27977.8224219818)
MU_L = 904299.5082902473
C_D = 3.888175363269705e-07
C_R = 3.0243158232908324e-08


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def third_point(cfg):
    return PowerAllocation(cfg.P_max / 3, cfg.P_max / 3, cfg.P_max / 3)


HC_STATES = ((0, 1), (1, 0), (1, 1))


def explicit_state_terms(p, b):
    """Reference for ``hc_state_terms``: each blockage state written out."""
    return tuple(
        (
            beta_d * b.c_d * p.p_h_d + beta_r * b.c_r * p.p_h_r,
            beta_d * b.c_d * p.p_l_d + beta_r * b.c_r * p.p_l_r + b.sigma_n2,
        )
        for beta_d, beta_r in HC_STATES
    )


def explicit_gaps(R_h, R_l, cfg, outage):
    """Reference for ``stability_gaps`` at one pair of rates."""
    tm = cfg.T / cfg.M
    d_h = math.inf if cfg.alpha == 0.0 else (
        (1.0 - outage.P_out_h) * tm * R_h - cfg.alpha * cfg.A_bar
    ) / cfg.alpha
    d_l = math.inf if cfg.alpha == 1.0 else (
        (1.0 - outage.P_out_l) * tm * R_l - (1.0 - cfg.alpha) * cfg.A_bar
    ) / (1.0 - cfg.alpha)
    return d_h, d_l


powers = st.floats(0.0, 0.01)
power_arrays = hnp.arrays(np.float64, (4, 25), elements=powers)
alphas = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
rates = st.floats(0.0, 1e11)


class TestServiceRates:
    def test_threshold_gains(self, budget):
        assert budget.c_d == budget.eta_d**2 * budget.rho_th_d
        assert budget.c_r == budget.eta_r**2 * budget.rho_th_r
        assert rel(budget.c_d, C_D) < 1e-11
        assert rel(budget.c_r, C_R) < 1e-11

    def test_zero_hc_power(self, cfg, budget):
        assert hc_service_rate(PowerAllocation(0, 0, cfg.P_max), cfg, budget) == 0.0

    def test_hc_needs_ris_power(self, cfg, budget):
        # Without RIS power the direct-blockage state has zero signal.
        p = PowerAllocation(cfg.P_max / 2, 0.0, cfg.P_max / 2)
        assert hc_service_rate(p, cfg, budget) == 0.0

    def test_equal_split_matches_script(self, cfg, budget):
        p = third_point(cfg)
        assert rel(hc_service_rate(p, cfg, budget), RH_THIRD) < 1e-11
        assert rel(lc_service_rate(p, cfg, budget), RL_THIRD) < 1e-11


class TestSharedHelpers:
    @given(p=st.tuples(*[powers] * 4))
    def test_state_terms_bit_exact_on_floats(self, budget, p):
        p = PowerAllocation(*p)
        assert hc_state_terms(p, budget) == explicit_state_terms(p, budget)

    @given(p=power_arrays)
    def test_state_terms_elementwise_on_arrays(self, budget, p):
        got = hc_state_terms(PowerAllocation(*p), budget)
        for t in range(p.shape[1]):
            want = explicit_state_terms(PowerAllocation(*p[:, t]), budget)
            for (sig, itf), (want_sig, want_itf) in zip(got, want):
                assert sig[t] == want_sig and itf[t] == want_itf

    @given(alpha=alphas, a_bar=st.floats(0.0, 1600.0), R_h=rates, R_l=rates)
    def test_gaps_bit_exact_on_floats(self, cfg, budget, alpha, a_bar, R_h, R_l):
        c = cfg.with_(alpha=alpha, A_bar=a_bar)
        out = outage_probs(c, budget)
        got = stability_gaps(RateTargets(R_h, R_l), c, out)
        assert got == explicit_gaps(R_h, R_l, c, out)

    @given(alpha=alphas, R=hnp.arrays(np.float64, (2, 25), elements=rates))
    def test_gaps_elementwise_on_arrays(self, cfg, budget, alpha, R):
        c = cfg.with_(alpha=alpha)
        out = outage_probs(c, budget)
        d_h, d_l = stability_gaps(RateTargets(R[0], R[1]), c, out)
        for t in range(R.shape[1]):
            want_h, want_l = explicit_gaps(float(R[0, t]), float(R[1, t]), c, out)
            assert np.broadcast_to(d_h, R[0].shape)[t] == want_h
            assert np.broadcast_to(d_l, R[1].shape)[t] == want_l


class TestStabilityGaps:
    def test_zero_gap_boundary(self, cfg, budget):
        out = outage_probs(cfg, budget)
        R_h = cfg.alpha * cfg.A_bar * cfg.M / (cfg.T * (1 - out.P_out_h))
        d_h, _ = stability_gaps(RateTargets(R_h, 0.0), cfg, out)
        assert abs(d_h) < 1e-9 * cfg.A_bar

    def test_alpha_sentinels(self, cfg, budget):
        out = outage_probs(cfg, budget)
        d = stability_gaps(RateTargets(1e9, 1e9), cfg.with_(alpha=0.0), out)
        assert d[0] == math.inf and math.isfinite(d[1])
        d = stability_gaps(RateTargets(1e9, 1e9), cfg.with_(alpha=1.0), out)
        assert d[1] == math.inf and math.isfinite(d[0])


class TestQuadraticTransform:
    def test_mu_zero_power(self, budget):
        mu = update_mu(PowerAllocation(0, 0, 0, 0), budget)
        assert (mu.mu_h_01, mu.mu_h_10, mu.mu_h_11, mu.mu_l) == (0, 0, 0, 0)

    def test_mu_matches_script(self, cfg, budget):
        mu = update_mu(third_point(cfg), budget)
        assert rel(mu.mu_h_01, MU_H[0]) < 1e-11
        assert rel(mu.mu_h_10, MU_H[1]) < 1e-11
        assert rel(mu.mu_h_11, MU_H[2]) < 1e-11
        assert rel(mu.mu_l, MU_L) < 1e-11

    def test_tightness_at_optimal_mu(self, cfg, budget):
        # At mu = mu*(p) the surrogate SINR bound recovers the exact ratio.
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = PowerAllocation(*(rng.dirichlet(np.ones(4)) * cfg.P_max))
            mu = update_mu(p, budget)
            gam_h_exact = min(sig / itf for sig, itf in explicit_state_terms(p, budget))
            gam_l_exact = budget.c_d * p.p_l_d / budget.sigma_n2
            assert rel(surrogate_gamma_h(p, mu, budget), gam_h_exact) < 1e-9
            assert rel(surrogate_gamma_l(p, mu, budget), gam_l_exact) < 1e-9


class TestSubproblem:
    def test_zero_mu_gives_minus_arrival_rate(self, cfg, budget):
        mu = update_mu(PowerAllocation(0, 0, 0, 0), budget)
        res = solve_subproblem(mu, cfg, budget, outage=outage_probs(cfg, budget))
        assert res.objective == pytest.approx(-cfg.A_bar, rel=1e-12)

    def test_sca_ascent_step(self, cfg, budget):
        out = outage_probs(cfg, budget)
        p0 = third_point(cfg)
        mu = update_mu(p0, budget)
        res = solve_subproblem(mu, cfg, budget, outage=out)
        assert min(res.delta) >= min(_evaluate(p0, cfg, budget, out)[1]) - 1e-9 * cfg.A_bar


def reference_surrogate(mu, cfg, budget, outage, x, y):
    """The surrogate objective at p = (y, P_max - x - y, x) from the
    readable per-point functions."""
    p = PowerAllocation(y, (cfg.P_max - x) - y, x)
    R = RateTargets(
        cfg.B * math.log2(1.0 + surrogate_gamma_h(p, mu, budget)),
        cfg.B * math.log2(1.0 + surrogate_gamma_l(p, mu, budget)),
    )
    return min(stability_gaps(R, cfg, outage))


class TestSurrogateObjective:
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([None, 0.0, 1.0]))
    def test_equals_reference_bit_for_bit(self, seed, alpha):
        # Each example checks the simplex corners and 16 random points: a
        # reordered float operation changes the result at only a few
        # percent of points.
        rng = np.random.default_rng(seed)
        c = random_config(rng)
        if alpha is not None:
            c = c.with_(alpha=alpha)
        b = derive_link_budget(c)
        out = outage_probs(c, b)
        mu = update_mu(PowerAllocation(*(rng.dirichlet(np.ones(4)) * c.P_max)), b)
        at = surrogate_objective(mu, c, b, out)
        corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        for u, v in corners + rng.random((16, 2)).tolist():
            x = u * c.P_max
            y = v * (c.P_max - x)
            assert at(x)(y).hex() == reference_surrogate(mu, c, b, out, x, y).hex()


def golden_max_reference(fn, lo, hi, tol):
    """``_golden_max`` as it was before it reused its last two
    evaluations for the final candidates."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    if hi - lo <= tol:
        x = 0.5 * (lo + hi)
        cands = [lo, x, hi] if hi > lo else [lo]
        vals = [fn(c) for c in cands]
        i = int(np.argmax(vals))
        return cands[i], vals[i]
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = fn(x2)
    cands = [lo, x1, x2, hi]
    vals = [fn(c) for c in cands]
    i = int(np.argmax(vals))
    return cands[i], vals[i]


def counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    return wrapped, calls


UNIMODAL = {
    "interior": (lambda x: -(x - 0.37) ** 2, 0.0, 1.0),
    "max_at_lo": (lambda x: -x, 0.0, 1.0),
    "max_at_hi": (lambda x: math.log1p(x), 0.0, 2.0),
    "kink": (lambda x: min(3.0 * x, 1.0 - x), 0.0, 1.0),
    "flat": (lambda x: 5.0, -1.0, 1.0),
    "plateau": (lambda x: min(x, 0.5), 0.0, 1.0),
    "power_scale": (lambda x: -abs(x - 0.004), 0.0, 0.01),
}


class TestGoldenMax:
    @pytest.mark.parametrize("name", sorted(UNIMODAL))
    def test_same_result_two_fewer_calls(self, name):
        fn, lo, hi = UNIMODAL[name]
        tol = 1e-8 * (hi - lo)
        new_fn, new_calls = counted(fn)
        old_fn, old_calls = counted(fn)
        got = _golden_max(new_fn, lo, hi, tol)
        want = golden_max_reference(old_fn, lo, hi, tol)
        assert got == want
        assert len(new_calls) == len(old_calls) - 2

    def test_argmax_follows_numpy(self):
        for vals in (
            [1.0, 3.0, 3.0, 2.0],
            [-math.inf, -math.inf],
            [0.0, -0.0],
            [-0.0, 0.0],
            [1.0, math.nan, 5.0, math.nan],
            [math.nan, 1.0],
            [2.0],
        ):
            assert _argmax(vals) == int(np.argmax(vals))


class TestScaSolve:
    def test_converges_quickly_at_zero_arrivals(self, cfg, budget):
        res = sca_solve(cfg.with_(A_bar=0.0), budget)
        assert res.converged
        assert res.objective > 0.0

    def test_trace_nondecreasing_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = random_config(rng)
            res = sca_solve(c, derive_link_budget(c))
            trace = res.objective_trace
            assert all(
                b >= a - 1e-8 * (1.0 + abs(a)) for a, b in zip(trace, trace[1:])
            )

    def test_power_constraint_binds(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            c = random_config(rng)
            if max_arrival_rate(c, derive_link_budget(c), c.alpha) <= 0:
                continue
            res = sca_solve(c, derive_link_budget(c))
            assert abs(res.p.total() - c.P_max) <= 1e-6 * c.P_max

    def test_matches_structural_solve(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            c = random_config(rng)
            b = derive_link_budget(c)
            sca = sca_solve(c, b)
            ref = structural_solve(c, b)
            assert abs(sca.objective - ref.objective) <= 1e-3 * (
                1.0 + abs(ref.objective)
            )


PINNED = json.loads((Path(__file__).parent / "data" / "sca_pinned.json").read_text())


class TestPinnedSca:
    """``sca_solve`` iterates recorded as ``float.hex`` before the inner
    objective was staged per probe: a change that moves any iterate, even
    by one ulp, shows here as an exact mismatch."""

    @pytest.mark.parametrize("case", PINNED, ids=lambda c: ",".join(
        f"{k}={float.fromhex(v):.4g}" for k, v in c["config"].items()
    ))
    def test_iterates_exact(self, case):
        c = SystemConfig().with_(
            **{k: float.fromhex(v) for k, v in case["config"].items()}
        )
        res = sca_solve(c, derive_link_budget(c))
        p = (res.p.p_h_d, res.p.p_h_r, res.p.p_l_d, res.p.p_l_r)
        assert [v.hex() for v in p] == case["p"]
        assert [v.hex() for v in res.objective_trace] == case["objective_trace"]
        assert res.iterations == case["iterations"]


def _grid_objective(
    p: PowerAllocation, cfg: SystemConfig, budget: LinkBudget, outage: OutageProbs
) -> np.ndarray:
    """Vectorized true objective over a power allocation of arrays."""
    gam_01, gam_10, gam_11 = (sig / itf for sig, itf in hc_state_terms(p, budget))
    gam_h = np.minimum(np.minimum(gam_01, gam_10), gam_11)
    R_h = cfg.B * np.log2(1.0 + gam_h)
    R_l = cfg.B * np.log2(1.0 + budget.c_d * p.p_l_d / budget.sigma_n2)
    return np.minimum(*stability_gaps(RateTargets(R_h, R_l), cfg, outage))


def grid_oracle_3d(
    cfg: SystemConfig, budget: LinkBudget, n_grid: int = 60
) -> SolveResult:
    """Coarse grid over the full 3-simplex including p_l_r, used to verify
    that the optimum never benefits from p_l_r > 0."""
    outage = outage_probs(cfg, budget)
    rng = np.arange(n_grid + 1)
    i, j, k = np.meshgrid(rng, rng, rng, indexing="ij")
    mask = i + j + k <= n_grid
    i, j, k = i[mask], j[mask], k[mask]
    P = cfg.P_max
    phd = i * (P / n_grid)
    phr = j * (P / n_grid)
    pld = k * (P / n_grid)
    plr = (n_grid - i - j - k) * (P / n_grid)
    obj = _grid_objective(PowerAllocation(phd, phr, pld, plr), cfg, budget, outage)
    m = int(np.argmax(obj))
    p = PowerAllocation(float(phd[m]), float(phr[m]), float(pld[m]), float(plr[m]))
    R = RateTargets(
        R_h=hc_service_rate(p, cfg, budget), R_l=lc_service_rate(p, cfg, budget)
    )
    d = stability_gaps(R, cfg, outage)
    return SolveResult(
        p=p, R=R, delta=d, objective=float(obj[m]), iterations=1, converged=True
    )


def simplex_scan_best(cfg, budget, n=500):
    """Best objective of a one-level n-step scan of the 2-simplex
    p_h_d + p_h_r + p_l_d = P_max, p_l_r = 0."""
    out = outage_probs(cfg, budget)
    P = cfg.P_max
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    mask = i + j <= n
    phd, phr = i[mask] * (P / n), j[mask] * (P / n)
    p = PowerAllocation(phd, phr, P - phd - phr, np.zeros_like(phd))
    return float(np.max(_grid_objective(p, cfg, budget, out)))


class TestStructuralSolve:
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([None, 0.0, 1.0]))
    def test_exact_optimum_against_sca(self, seed, alpha):
        c = random_config(np.random.default_rng(seed))
        if alpha is not None:
            c = c.with_(alpha=alpha)
        b = derive_link_budget(c)
        res = structural_solve(c, b)
        ref = sca_solve(c, b).objective
        # SCA stops at a feasible point, so the exact optimum is never below it
        assert res.objective >= ref - 1e-12 * (1.0 + abs(ref))
        assert abs(res.objective - ref) <= 1e-5 * (1.0 + abs(ref))

        p = res.p
        assert p.p_l_r == 0.0
        assert math.isclose(p.total(), c.P_max, rel_tol=1e-14)
        out = outage_probs(c, b)
        R = RateTargets(hc_service_rate(p, c, b), lc_service_rate(p, c, b))
        assert res.objective == min(stability_gaps(R, c, out))
        if c.alpha == 0.0:
            assert p.p_l_d == c.P_max
        elif c.alpha == 1.0:
            assert p.p_l_d == 0.0
        else:
            (s01, i01), (s10, i10), _ = explicit_state_terms(p, b)
            assert rel(s01 / i01, s10 / i10) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([None, 0.0, 1.0]))
    def test_never_below_brute_force_grids(self, seed, alpha):
        # brute force that assumes none of the solver's premises:
        # grid_oracle_3d lets p_l_r vary, and the 2-D scan lets the HC
        # split and the LC power vary independently
        c = random_config(np.random.default_rng(seed))
        if alpha is not None:
            c = c.with_(alpha=alpha)
        b = derive_link_budget(c)
        obj = structural_solve(c, b).objective
        for ref in (grid_oracle_3d(c, b, n_grid=60).objective, simplex_scan_best(c, b)):
            assert obj >= ref - 1e-12 * (1.0 + abs(ref))


class TestFrontier:
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
    def test_served_rates_match_service_rates(self, seed, t):
        # the closed-form R_h and R_l against the rate definitions at the
        # frontier's own split of the power
        c = random_config(np.random.default_rng(seed))
        b = derive_link_budget(c)
        frontier = Frontier(c, b)
        x = t * c.P_max
        p = frontier.split(x)
        out = outage_probs(c, b)
        k_h, k_l = ((1.0 - q) * c.T / c.M for q in (out.P_out_h, out.P_out_l))
        s_h, s_l = k_h * hc_service_rate(p, c, b), k_l * lc_service_rate(p, c, b)
        # relative to S + k B, not S: both forms lose digits in 1 + gamma
        # when gamma is tiny (x near P for the HC rate)
        assert abs(frontier.rate(x, 1.0, 0.0) - s_h) <= 1e-12 * (s_h + k_h * c.B)
        assert abs(frontier.rate(x, 0.0, 1.0) - s_l) <= 1e-12 * (s_l + k_l * c.B)


class TestGridOracle:
    def test_all_power_to_lc_at_alpha_zero(self, cfg, budget):
        res = grid_oracle_3d(cfg.with_(alpha=0.0), budget, n_grid=60)
        assert res.p.p_l_d == pytest.approx(cfg.P_max, rel=1e-9)

    def test_no_lc_ris_power_at_optimum(self, cfg, budget):
        res = grid_oracle_3d(cfg, budget, n_grid=60)
        assert res.p.p_l_r == 0.0


class TestMaxArrivalRate:
    def test_endpoint_throughputs(self, cfg, budget):
        # Reference endpoints of the feasibility region, +-10%.
        k = cfg.M / (cfg.T * cfg.B)
        assert max_arrival_rate(cfg, budget, 0.0) * k == pytest.approx(4.4, rel=0.1)
        assert max_arrival_rate(cfg, budget, 1.0) * k == pytest.approx(2.8, rel=0.1)

    def test_independent_of_configured_arrivals(self, cfg, budget):
        a = max_arrival_rate(cfg, budget, 0.5)
        b = max_arrival_rate(cfg.with_(A_bar=123.0), budget, 0.5)
        assert a == pytest.approx(b, rel=1e-9)

    def test_matches_structural_solve_at_half(self, cfg, budget):
        a = max_arrival_rate(cfg, budget, 0.5)
        ref = structural_solve(cfg.with_(alpha=0.5, A_bar=0.0), budget)
        assert a == pytest.approx(ref.objective, rel=1e-3)
