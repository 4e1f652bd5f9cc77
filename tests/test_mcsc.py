"""Superposition-coding SINRs, decoding, thresholds, and outage tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risthz.channel import derive_link_budget
from risthz.config import SystemConfig
from risthz.mcsc import (
    PowerAllocation,
    RateTargets,
    epsilon_threshold,
    outage_probs,
    sinr,
)
from risthz.queueing import SlotBuffers, decode_slots

EPS_TH_D = 0.24982458980940947  # hand evaluation for the default config
EPS_TH_R = 0.47099487402555823


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def scalar_decode(budget, beta, eps, hc, lc, targets, B):
    """Per-slot reference for ``decode_slots``: fading, gains, SINRs and the
    decoding rule written out with scalar math.  HC decodes at its phase's
    powers ``hc``, LC at ``lc``, after cancelling HC where ``lc`` carries
    HC power.  Returns (xi_h, xi_l) and the two rates."""
    rho_d = budget.A_d * math.exp(-2.0 * eps[0] ** 2 / budget.w_eq_d**2)
    rho_r = budget.A_RIS * budget.A_r * math.exp(-2.0 * eps[1] ** 2 / budget.w_eq_r**2)
    h2 = beta[0] * budget.eta_d**2 * rho_d
    g2 = beta[1] * budget.eta_r**2 * rho_r
    gam_h = (h2 * hc.p_h_d + g2 * hc.p_h_r) / (
        h2 * hc.p_l_d + g2 * hc.p_l_r + budget.sigma_n2
    )
    gam_l = (h2 * lc.p_l_d + g2 * lc.p_l_r) / budget.sigma_n2
    # log1p keeps an SINR below the float spacing at 1 from rounding to rate 0
    r_h = B * math.log1p(gam_h) / math.log(2.0)
    r_l = B * math.log1p(gam_l) / math.log(2.0)
    xi_h = int(r_h >= targets.R_h)
    sic = lc.p_h_d + lc.p_h_r > 0.0
    return (xi_h, int((xi_h or not sic) and r_l >= targets.R_l)), (r_h, r_l)


def decode_one(cfg, budget, beta, eps, hc, lc, targets):
    xi_h, xi_l = decode_slots(
        cfg, budget, hc, lc, targets, np.array([beta[0]], dtype=np.int8),
        np.array([beta[1]], dtype=np.int8), np.array([eps[0]]), np.array([eps[1]]),
        buf=SlotBuffers(1),
    )
    return int(xi_h[0]), int(xi_l[0])


class TestSinr:
    def test_no_interference_reduces_to_snr(self, budget):
        p = PowerAllocation(2e-3, 3e-3, 0.0, 0.0)
        h2 = budget.eta_d**2 * budget.A_d
        g2 = budget.eta_r**2 * budget.A_RIS * budget.A_r
        got, _ = sinr(h2, g2, p, p, budget.sigma_n2)
        assert rel(got, (h2 * p.p_h_d + g2 * p.p_h_r) / budget.sigma_n2) < 1e-14

    def test_full_blockage_zero(self, budget):
        p = PowerAllocation(2e-3, 3e-3, 5e-3)
        assert sinr(0.0, 0.0, p, p, budget.sigma_n2) == (0.0, 0.0)

    def test_generic_matches_scalar_evaluation(self, budget):
        rng = np.random.default_rng(5)
        n = 20
        p = PowerAllocation(*rng.uniform(0, 2.5e-3, (4, n)))
        beta_d, beta_r = rng.integers(2, size=(2, n))
        h2 = beta_d * budget.eta_d**2 * rng.uniform(0, budget.A_d, n)
        g2 = beta_r * budget.eta_r**2 * rng.uniform(0, budget.A_RIS * budget.A_r, n)
        gam_h, gam_l = sinr(h2, g2, p, p, budget.sigma_n2)
        for t in range(n):
            want = (h2[t] * p.p_h_d[t] + g2[t] * p.p_h_r[t]) / (
                h2[t] * p.p_l_d[t] + g2[t] * p.p_l_r[t] + budget.sigma_n2
            )
            assert rel(gam_h[t], want) < 1e-14
            want_l = (h2[t] * p.p_l_d[t] + g2[t] * p.p_l_r[t]) / budget.sigma_n2
            assert rel(gam_l[t], want_l) < 1e-14

    def test_phases_read_their_own_powers(self, budget):
        # HC at its phase's powers, LC at its own: bit for bit what each
        # phase's allocation gives when it decodes both streams
        rng = np.random.default_rng(7)
        h2 = budget.eta_d**2 * rng.uniform(0, budget.A_d, 20)
        g2 = budget.eta_r**2 * rng.uniform(0, budget.A_RIS * budget.A_r, 20)
        hc = PowerAllocation(2e-3, 3e-3, 1e-3, 5e-4)
        lc = PowerAllocation(1e-3, 0.0, 4e-3, 2e-3)
        gam_h, gam_l = sinr(h2, g2, hc, lc, budget.sigma_n2)
        assert np.array_equal(gam_h, sinr(h2, g2, hc, hc, budget.sigma_n2)[0])
        assert np.array_equal(gam_l, sinr(h2, g2, lc, lc, budget.sigma_n2)[1])

    def test_lc_zero_cases(self, budget):
        h2, g2 = budget.eta_d**2 * budget.A_d, 1e-12
        p0 = PowerAllocation(1e-3, 1e-3, 0.0, 0.0)
        assert sinr(h2, g2, p0, p0, budget.sigma_n2)[1] == 0.0
        p1 = PowerAllocation(1e-3, 1e-3, 1e-3, 0.0)
        assert sinr(0.0, g2, p1, p1, budget.sigma_n2)[1] == 0.0

    def test_monotonicity_probes(self, budget):
        # Gamma_h nondecreasing in HC powers, nonincreasing in LC powers;
        # Gamma_l nondecreasing in LC powers.
        rng = np.random.default_rng(11)
        n, h = 100, 1e-6
        vals = rng.uniform(1e-4, 2.5e-3, (4, n))
        h2 = budget.eta_d**2 * rng.uniform(1e-6, budget.A_d, n)
        g2 = budget.eta_r**2 * rng.uniform(1e-6, budget.A_RIS * budget.A_r, n)
        base = PowerAllocation(*vals)
        base_h, base_l = sinr(h2, g2, base, base, budget.sigma_n2)
        for k in range(4):
            up = vals.copy()
            up[k] += h
            p = PowerAllocation(*up)
            gam_h, gam_l = sinr(h2, g2, p, p, budget.sigma_n2)
            if k < 2:  # HC power
                assert np.all(gam_h >= base_h)
            else:  # LC power
                assert np.all(gam_h <= base_h)
                assert np.all(gam_l >= base_l)


class TestDecode:
    def test_zero_targets(self, cfg, budget):
        p = PowerAllocation(1e-3, 1e-3, 1e-3)
        xi = decode_one(cfg, budget, (1, 1), (0.0, 0.0), p, p, RateTargets(0.0, 0.0))
        assert xi == (1, 1)

    def test_full_blockage(self, cfg, budget):
        p = PowerAllocation(1e-3, 1e-3, 1e-3)
        xi = decode_one(cfg, budget, (0, 0), (0.0, 0.0), p, p, RateTargets(1e9, 0.0))
        assert xi == (0, 0)

    def test_rates_below_float_resolution(self, cfg, budget):
        # a positive rate whose target SINR underflows to 0 is not met at
        # SINR 0, and an SINR below the float spacing at 1 still carries
        # its rate of ~1.7e-41 bit/s
        silent = PowerAllocation(0.0, 0.0, 0.0)
        assert decode_one(cfg, budget, (1, 1), (0.0, 0.0), silent, silent,
                          RateTargets(5e-324, 5e-324)) == (0, 0)
        faint = PowerAllocation(0.0, 0.0, 6e-56)
        assert decode_one(cfg, budget, (1, 1), (0.0, 0.0), faint, faint,
                          RateTargets(0.0, 1e-239)) == (1, 1)

    def test_sic_dependency(self, cfg, budget):
        p = PowerAllocation(5e-3, 4e-3, 1e-3)
        # HC achievable, LC target far above what p_l_d can deliver -> (1, 0)
        xi = decode_one(cfg, budget, (1, 1), (0.0, 0.0), p, p, RateTargets(1e6, 1e15))
        assert xi == (1, 0)
        # HC target unreachable -> (0, 0) even though LC alone would succeed
        xi = decode_one(cfg, budget, (1, 1), (0.0, 0.0), p, p, RateTargets(1e15, 1e6))
        assert xi == (0, 0)
        # a superposed HC stream gates LC however weak it is
        weak = PowerAllocation(1e-12, 0.0, 1e-3)
        xi = decode_one(cfg, budget, (1, 1), (0.0, 0.0), weak, weak, RateTargets(1e15, 1e6))
        assert xi == (0, 0)
        # a silent HC stream (p_h = 0, R_h > 0) fails but leaves LC nothing
        # to cancel, and neither does an LC phase without HC power
        silent = PowerAllocation(0.0, 0.0, 1e-3)
        xi = decode_one(cfg, budget, (1, 1), (0.0, 0.0), silent, silent, RateTargets(1e6, 1e6))
        assert xi == (0, 1)
        xi = decode_one(cfg, budget, (1, 1), (0.0, 0.0), p, silent, RateTargets(1e15, 1e6))
        assert xi == (0, 1)

    def test_sic_consistency_random(self, cfg, budget):
        rng = np.random.default_rng(23)
        n = 200
        p = PowerAllocation(*rng.uniform(0, 2.5e-3, (4, n)))
        beta_d, beta_r = rng.integers(2, size=(2, n), dtype=np.int8)
        eps_d, eps_r = rng.rayleigh(0.2, (2, n))
        targets = RateTargets(*rng.uniform(0, 5e10, (2, n)))
        xi_h, xi_l = decode_slots(cfg, budget, p, p, targets, beta_d, beta_r, eps_d, eps_r,
                                  buf=SlotBuffers(n))
        assert np.all(xi_l <= xi_h)

    def test_overflowing_target_decodes_nowhere(self, cfg, budget):
        # 2^(R/B) overflows at R = 1e15, B = 10 GHz: the target SINR is
        # infinite and no slot reaches it, with no warning raised
        rng = np.random.default_rng(3)
        beta = np.ones((2, 500), dtype=np.int8)
        eps = rng.rayleigh(0.05, (2, 500))
        p = PowerAllocation(5e-3, 4e-3, 1e-3)
        silent = PowerAllocation(0.0, 0.0, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi_h, _ = decode_slots(cfg, budget, p, p, RateTargets(1e15, 0.0), *beta, *eps,
                                   buf=SlotBuffers(500))
            _, xi_l = decode_slots(cfg, budget, silent, silent, RateTargets(0.0, 1e15),
                                   *beta, *eps, buf=SlotBuffers(500))
            reachable = decode_slots(cfg, budget, p, p, RateTargets(1e6, 1e6), *beta, *eps,
                                     buf=SlotBuffers(500))
        assert not xi_h.any() and not xi_l.any()
        assert reachable[0].all() and reachable[1].all()

    def test_per_slot_targets_match_scalar_targets(self, cfg, budget):
        rng = np.random.default_rng(29)
        n = 400
        p = PowerAllocation(2e-3, 2e-3, 1e-3)
        beta = rng.integers(2, size=(2, n), dtype=np.int8)
        eps = rng.rayleigh(0.2, (2, n))
        levels = np.array([0.0, 1e9, 1e10, 4e10, 1e15])
        r_h, r_l = levels[rng.integers(len(levels), size=(2, n))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = decode_slots(cfg, budget, p, p, RateTargets(r_h, r_l), *beta, *eps,
                               buf=SlotBuffers(n))
            for a in levels:
                for b in levels:
                    want = decode_slots(cfg, budget, p, p, RateTargets(a, b), *beta, *eps,
                                        buf=SlotBuffers(n))
                    at = (r_h == a) & (r_l == b)
                    assert np.array_equal(got[0][at], want[0][at])
                    assert np.array_equal(got[1][at], want[1][at])
        assert 0 < got[0].sum() < n and 0 < got[1].sum() < n

    @given(
        p=st.tuples(*[st.floats(0.0, 2.5e-3)] * 4).map(lambda v: PowerAllocation(*v)),
        targets=st.tuples(*[st.floats(0.0, 8e10)] * 2).map(lambda v: RateTargets(*v)),
        blocks=hnp.arrays(np.int8, (2, 20), elements=st.integers(0, 1)),
        eps=hnp.arrays(np.float64, (2, 20), elements=st.floats(0.0, 1.0)),
        phased=st.booleans(),
    )
    # a positive rate whose target SINR underflows, at SINR 0 (all powers 0)
    @example(p=PowerAllocation(0.0, 0.0, 0.0, 0.0), targets=RateTargets(5e-324, 5e-324),
             blocks=np.ones((2, 20), np.int8), eps=np.zeros((2, 20)), phased=False)
    # an LC SNR below 2^-53, whose rate log2(1 + x) would round to 0; HC
    # is served, so the slot's LC outcome is compared
    @example(p=PowerAllocation(1e-3, 0.0, 6e-56, 0.0), targets=RateTargets(0.0, 1e-239),
             blocks=np.ones((2, 20), np.int8), eps=np.zeros((2, 20)), phased=True)
    def test_array_decode_matches_scalar_reference(self, cfg, budget, p, targets,
                                                   blocks, eps, phased):
        # phased: p split into an HC-only and an LC-only phase, as time
        # sharing decodes; otherwise both streams superposed, as MC-SC
        hc, lc = p, p
        if phased:
            hc = PowerAllocation(p.p_h_d, p.p_h_r, 0.0, 0.0)
            lc = PowerAllocation(0.0, 0.0, p.p_l_d, p.p_l_r)
        xi_h, xi_l = decode_slots(
            cfg, budget, hc, lc, targets, blocks[0], blocks[1], eps[0], eps[1],
            buf=SlotBuffers(20),
        )
        gated = lc.p_h_d + lc.p_h_r > 0.0
        for t in range(20):
            (want_h, want_l), (r_h, r_l) = scalar_decode(
                budget, blocks[:, t], eps[:, t], hc, lc, targets, cfg.B
            )
            # exp/log2 may round differently in the last ulp between numpy
            # and the C library, so a rate within 1e-12 of its target may
            # decide either way.
            if abs(r_h - targets.R_h) > 1e-12 * max(r_h, targets.R_h):
                assert xi_h[t] == want_h
                if (gated and not want_h) or abs(r_l - targets.R_l) > 1e-12 * max(
                        r_l, targets.R_l):
                    assert xi_l[t] == want_l


class TestEpsilonThreshold:
    def test_hand_values(self, budget):
        eps_d, eps_r = epsilon_threshold(budget)
        assert rel(eps_d, EPS_TH_D) < 1e-11
        assert rel(eps_r, EPS_TH_R) < 1e-11

    def test_half_power_defining_property(self, budget):
        from risthz.channel import fading_coefficient

        eps_d, eps_r = epsilon_threshold(budget)
        assert rel(
            fading_coefficient(eps_d, budget.A_d, budget.w_eq_d), budget.A_d / 2
        ) < 1e-12
        peak_r = budget.A_RIS * budget.A_r
        assert rel(
            fading_coefficient(eps_r, peak_r, budget.w_eq_r), peak_r / 2
        ) < 1e-12

    def test_scales_with_width(self, budget):
        eps_d, eps_r = epsilon_threshold(budget)
        assert eps_d / budget.w_eq_d == pytest.approx(eps_r / budget.w_eq_r)


class TestOutage:
    def test_blockage_only(self):
        # Vanishing pointing error -> misdetection underflows to exactly 0.
        cfg = SystemConfig(q_d=0.3, q_r=0.1, sigma_md=1e-4, sigma_mr=1e-4)
        budget = derive_link_budget(cfg)
        assert budget.q_md == 0.0 and budget.q_mr == 0.0
        out = outage_probs(cfg, budget)
        assert rel(out.P_out_l, 0.3) < 1e-14
        assert rel(out.P_out_h, 0.03) < 1e-14

    def test_certain_misdetection(self, cfg):
        # Huge pointing error -> q_m -> 1 -> both classes always in outage.
        bad = cfg.with_(sigma_md=1e6, sigma_mr=1e6)
        out = outage_probs(bad, derive_link_budget(bad))
        assert out.P_out_l == pytest.approx(1.0, abs=1e-9)
        assert out.P_out_h == pytest.approx(1.0, abs=1e-9)

    def test_factorization_bit_exact(self, cfg, budget):
        out = outage_probs(cfg, budget)
        fail_r = 1.0 - (1.0 - cfg.q_r) * (1.0 - budget.q_mr)
        assert out.P_out_h == out.P_out_l * fail_r
        assert out.P_out_h <= out.P_out_l

    def test_monte_carlo_availability(self, cfg, budget):
        # The threshold availability rule (unblocked AND eps <= eps_th)
        # reproduces the analytic outage probabilities within 3 sigma.
        rng = np.random.default_rng(99)
        n = 1_000_000
        eps_th_d, eps_th_r = epsilon_threshold(budget)
        avail_d = (rng.random(n) >= cfg.q_d) & (
            rng.rayleigh(cfg.sigma_md, n) <= eps_th_d
        )
        avail_r = (rng.random(n) >= cfg.q_r) & (
            rng.rayleigh(cfg.sigma_mr, n) <= eps_th_r
        )
        out = outage_probs(cfg, budget)
        for est, ana in (
            (np.mean(~avail_d), out.P_out_l),
            (np.mean(~avail_d & ~avail_r), out.P_out_h),
        ):
            sigma3 = 3 * math.sqrt(ana * (1 - ana) / n)
            assert abs(est - ana) < sigma3
