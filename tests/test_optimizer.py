"""Power-allocation solver tests: rate bounds, stability gaps,
quadratic-transform updates, SCA convergence, and the grid oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risthz.channel import derive_link_budget
from risthz.config import SystemConfig
from risthz.mcsc import PowerAllocation, RateTargets, outage_probs
from risthz.optimizer import (
    grid_oracle,
    grid_oracle_3d,
    hc_service_rate,
    hc_state_terms,
    lc_service_rate,
    max_arrival_rate,
    objective_value,
    random_config,
    sca_solve,
    solve_subproblem,
    stability_gaps,
    surrogate_gamma_h,
    surrogate_gamma_l,
    threshold_gains,
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


def explicit_state_terms(p, g):
    """Reference for ``hc_state_terms``: each blockage state written out."""
    return tuple(
        (
            beta_d * g.c_d * p.p_h_d + beta_r * g.c_r * p.p_h_r,
            beta_d * g.c_d * p.p_l_d + beta_r * g.c_r * p.p_l_r + g.sigma_n2,
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
        g = threshold_gains(budget)
        assert rel(g.c_d, C_D) < 1e-11
        assert rel(g.c_r, C_R) < 1e-11

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
        g = threshold_gains(budget)
        assert hc_state_terms(p, g) == explicit_state_terms(p, g)

    @given(p=power_arrays)
    def test_state_terms_elementwise_on_arrays(self, budget, p):
        g = threshold_gains(budget)
        got = hc_state_terms(PowerAllocation(*p), g)
        for t in range(p.shape[1]):
            want = explicit_state_terms(PowerAllocation(*p[:, t]), g)
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
        g = threshold_gains(budget)
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = PowerAllocation(*(rng.dirichlet(np.ones(4)) * cfg.P_max))
            mu = update_mu(p, budget)
            gam_h_exact = min(sig / itf for sig, itf in explicit_state_terms(p, g))
            gam_l_exact = g.c_d * p.p_l_d / g.sigma_n2
            assert rel(surrogate_gamma_h(p, mu, g), gam_h_exact) < 1e-9
            assert rel(surrogate_gamma_l(p, mu, g), gam_l_exact) < 1e-9


class TestSubproblem:
    def test_zero_mu_gives_minus_arrival_rate(self, cfg, budget):
        mu = update_mu(PowerAllocation(0, 0, 0, 0), budget)
        res = solve_subproblem(mu, cfg, budget)
        assert res.objective == pytest.approx(-cfg.A_bar, rel=1e-12)

    def test_sca_ascent_step(self, cfg, budget):
        out = outage_probs(cfg, budget)
        p0 = third_point(cfg)
        mu = update_mu(p0, budget)
        res = solve_subproblem(mu, cfg, budget, outage=out)
        assert objective_value(res.p, cfg, budget, out) >= objective_value(
            p0, cfg, budget, out
        ) - 1e-9 * cfg.A_bar


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

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            c = random_config(rng)
            b = derive_link_budget(c)
            sca = sca_solve(c, b)
            ref = grid_oracle(c, b, n_grid=500)
            assert abs(sca.objective - ref.objective) <= 1e-3 * (
                1.0 + abs(ref.objective)
            )


class TestGridOracle:
    def test_rejects_coarse_grid(self, cfg, budget):
        with pytest.raises(ValueError):
            grid_oracle(cfg, budget, n_grid=50)

    def test_all_power_to_lc_at_alpha_zero(self, cfg, budget):
        res = grid_oracle(cfg.with_(alpha=0.0), budget, n_grid=100)
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

    def test_matches_grid_oracle_at_half(self, cfg, budget):
        a = max_arrival_rate(cfg, budget, 0.5)
        ref = grid_oracle(cfg.with_(alpha=0.5, A_bar=0.0), budget, n_grid=500)
        assert a == pytest.approx(ref.objective, rel=1e-3)
