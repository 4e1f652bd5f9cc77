"""Link-budget and channel-sampling tests.

Numeric reference values were computed by an independent script that
evaluates each formula directly from the definitions (no package code).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risthz.channel import (
    channel_gains,
    collection_fraction,
    derive_link_budget,
    equivalent_width_sq,
    fading_coefficient,
    misalignment_cdf,
    misalignment_pdf,
    ris_gain,
)
from risthz.config import ConfigError, SystemConfig, parse_config_text
from risthz.queueing import SlotBuffers, sample_channel_slots

# Independently scripted one-line evaluations for the default config.
ETA_D = 0.0295658402901406
ETA_R = 0.0988935712392683
W_D = 0.4242640687119285
A_U = 0.0089499401608891
A_RIS_RADIUS = 0.05
A_D = 0.00088960125435841
A_RIS = 0.02471084810903715
A_R = 0.0002502841603133133
W_EQ_D = 0.4243629407462871
W_EQ_R = 0.8000524286676317
Q_MD = 0.04412996346164151
Q_MR = 0.06247729039308393
SIGMA_N2 = 3.981071705534985e-11


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def scalar_gains(budget, beta_d, beta_r, eps_d, eps_r):
    """Per-slot reference for ``channel_gains``: the fading coefficient and
    |h|^2, |g|^2 written out with scalar math."""
    rho_d = budget.A_d * math.exp(-2.0 * eps_d**2 / budget.w_eq_d**2)
    rho_r = budget.A_RIS * budget.A_r * math.exp(-2.0 * eps_r**2 / budget.w_eq_r**2)
    return beta_d * budget.eta_d**2 * rho_d, beta_r * budget.eta_r**2 * rho_r


class TestDeriveLinkBudget:
    def test_direct_beam_radius(self, budget):
        assert rel(budget.w_d, W_D) < 1e-12

    def test_path_gain_coefficients(self, budget):
        assert rel(budget.eta_d, ETA_D) < 1e-12
        assert rel(budget.eta_r, ETA_R) < 1e-12

    def test_apertures(self, budget):
        assert rel(budget.a_U, A_U) < 1e-12
        assert rel(budget.a_RIS, A_RIS_RADIUS) < 1e-12

    def test_collection_fractions(self, budget):
        assert rel(budget.A_d, A_D) < 1e-11
        assert rel(budget.A_RIS, A_RIS) < 1e-11
        assert rel(budget.A_r, A_R) < 1e-11
        assert 0.0 < budget.A_d <= 1.0
        assert 0.0 < budget.A_RIS * budget.A_r <= 1.0

    def test_equivalent_widths_and_misdetection(self, budget):
        assert rel(budget.w_eq_d, W_EQ_D) < 1e-11
        assert rel(budget.w_eq_r, W_EQ_R) < 1e-11
        assert rel(budget.q_md, Q_MD) < 1e-10
        assert rel(budget.q_mr, Q_MR) < 1e-10

    def test_noise_power(self, budget):
        assert rel(budget.sigma_n2, SIGMA_N2) < 1e-12

    def test_equivalent_width_at_least_beam_width(self, budget):
        assert budget.w_eq_d >= budget.w_d
        assert budget.w_eq_r >= 0.8

    def test_gain_beamwidth_relation_exact(self, cfg, budget):
        assert budget.G_R * cfg.w_r**2 == 8.0 * cfg.d_RU**2

    def test_half_power_thresholds(self, budget):
        assert budget.rho_th_d == budget.A_d / 2.0
        assert budget.rho_th_r == budget.A_RIS * budget.A_r / 2.0

    def test_pure_function(self, cfg):
        assert derive_link_budget(cfg) == derive_link_budget(cfg)

    def test_small_v_limits(self):
        # A -> 0 and w_eq^2/w^2 -> 1 as the aperture shrinks.
        A, v = collection_fraction(1e-8, 1.0)
        assert A < 1e-15
        assert abs(equivalent_width_sq(1.0, v) - 1.0) < 1e-16

    def test_narrow_beam_limit(self, cfg):
        # at w_r = 0.3 mm, v ~ 37 and e^{-v^2} underflows to 0: the
        # equivalent width takes its limit, so the RIS path never misdetects
        # and its fading factor stays at the peak
        budget = derive_link_budget(cfg.with_(w_r=0.0003))
        assert budget.w_eq_r == math.inf
        assert budget.q_mr == 0.0
        assert fading_coefficient(0.5, 1.0, budget.w_eq_r) == 1.0
        assert all(math.isfinite(v) for k, v in vars(budget).items()
                   if k not in ("w_eq_r", "gamma_ma_r"))

    def test_misdetection_from_shape_two(self):
        # w_eq = 0.4 m, sigma = 0.1 m -> shape 2, misdetection 0.5^4.
        gamma = 0.4 / (2 * 0.1)
        assert gamma == 2.0
        assert 0.5 ** (gamma * gamma) == 0.0625

    def test_eta_r_monotone_in_w_r(self, cfg):
        etas = [
            derive_link_budget(cfg.with_(w_r=w)).eta_r for w in (0.4, 0.8, 1.6)
        ]
        assert etas[0] > etas[1] > etas[2]
        for w in (0.4, 0.8, 1.6):
            assert ris_gain(cfg.d_RU, w) * w * w == 8.0 * cfg.d_RU**2


class TestMisalignmentDistribution:
    def test_cdf_normalization(self):
        for gamma in (0.5, 1.0, 2.0, 3.7):
            assert misalignment_cdf(A_D, A_D, gamma) == 1.0

    def test_cdf_half_power_equals_misdetection(self):
        assert misalignment_cdf(A_D / 2, A_D, 2.0) == 0.0625

    def test_misdetection_identity_bit_exact(self, budget):
        # cdf at the half-power point reproduces q_m for every shape value.
        for A, gamma in (
            (budget.A_d, budget.gamma_ma_d),
            (budget.A_RIS * budget.A_r, budget.gamma_ma_r),
        ):
            assert misalignment_cdf(A / 2, A, gamma) == 0.5 ** (gamma * gamma)

    def test_pdf_integrates_to_one(self):
        from scipy.integrate import quad

        for A, gamma in ((A_D, 2.12), (1.0, 0.8), (0.3, 3.0)):
            total, err = quad(misalignment_pdf, 0.0, A, args=(A, gamma))
            assert abs(total - 1.0) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            misalignment_pdf(-0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            misalignment_cdf(1.5, 1.0, 2.0)

    def test_sampled_fading_matches_cdf(self, cfg, budget):
        # Kolmogorov-Smirnov against the closed form at significance 0.01.
        rng = np.random.default_rng(42)
        n = 100_000
        eps = rng.rayleigh(cfg.sigma_md, n)
        rho = budget.A_d * np.exp(-2.0 * eps**2 / budget.w_eq_d**2)
        x = np.sort(rho)
        cdf = (x / budget.A_d) ** (budget.gamma_ma_d**2)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        d_stat = max(np.max(ecdf_hi - cdf), np.max(cdf - ecdf_lo))
        d_crit = 1.628 / math.sqrt(n)  # asymptotic critical value at 0.01
        assert d_stat < d_crit


class TestSampling:
    def test_degenerate_blockage(self):
        always = SystemConfig(q_d=0.0, q_r=1.0)
        rng = np.random.default_rng(0)
        beta_d, beta_r, _, _ = sample_channel_slots(always, rng, SlotBuffers(50))
        assert np.all(beta_d == 1)
        assert np.all(beta_r == 0)

    def test_blockage_marginals(self, cfg):
        n = 1_000_000
        beta_d, beta_r, _, _ = sample_channel_slots(cfg, np.random.default_rng(1), SlotBuffers(n))
        for beta, q in ((beta_d, cfg.q_d), (beta_r, cfg.q_r)):
            sigma3 = 3 * math.sqrt(q * (1 - q) / n)
            assert abs(np.mean(1 - beta) - q) < sigma3

    def test_pointing_error_determinism_and_positivity(self, cfg):
        a = sample_channel_slots(cfg, np.random.default_rng(7), SlotBuffers(100))
        b = sample_channel_slots(cfg, np.random.default_rng(7), SlotBuffers(100))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert np.all(a[2] >= 0) and np.all(a[3] >= 0)


class TestFadingAndGains:
    def test_perfect_alignment(self):
        assert fading_coefficient(0.0, 0.5, 0.4) == 0.5

    def test_half_power_point(self, budget):
        eps_th = math.sqrt(math.log(math.sqrt(2.0))) * budget.w_eq_d
        rho = fading_coefficient(eps_th, budget.A_d, budget.w_eq_d)
        assert rel(rho, budget.A_d / 2) < 1e-12

    def test_large_displacement_vanishes(self):
        assert fading_coefficient(100.0, 1.0, 0.4) == 0.0

    def test_full_blockage(self, budget):
        h2, g2 = channel_gains(budget, 0, 0, 0.0, 0.01)
        assert (h2, g2) == (0.0, 0.0)

    def test_peak_gains(self, budget):
        h2, g2 = channel_gains(budget, 1, 1, 0.0, 0.0)
        assert rel(h2, budget.eta_d**2 * budget.A_d) < 1e-14
        assert rel(g2, budget.eta_r**2 * budget.A_RIS * budget.A_r) < 1e-14

    def test_factorization(self, budget):
        # |h|^2 = beta_d eta_d^2 rho_d elementwise, with blocked slots exactly 0.
        rng = np.random.default_rng(3)
        beta_d, beta_r = rng.integers(2, size=(2, 20), dtype=np.int8)
        eps_d, eps_r = rng.rayleigh(0.2, size=(2, 20))
        h2, g2 = channel_gains(budget, beta_d, beta_r, eps_d, eps_r)
        rho_d = fading_coefficient(eps_d, budget.A_d, budget.w_eq_d)
        rho_r = fading_coefficient(eps_r, budget.A_RIS * budget.A_r, budget.w_eq_r)
        assert np.array_equal(h2, beta_d * budget.eta_d**2 * rho_d)
        assert np.array_equal(g2, beta_r * budget.eta_r**2 * rho_r)
        assert np.all(h2[beta_d == 0] == 0.0) and np.all(g2[beta_r == 0] == 0.0)

    @given(
        blocks=hnp.arrays(np.int8, (2, 30), elements=st.integers(0, 1)),
        eps=hnp.arrays(np.float64, (2, 30), elements=st.floats(0.0, 3.0)),
    )
    def test_array_kernel_matches_scalar_reference(self, budget, blocks, eps):
        h2, g2 = channel_gains(budget, blocks[0], blocks[1], eps[0], eps[1])
        for t in range(30):
            want_h2, want_g2 = scalar_gains(
                budget, int(blocks[0, t]), int(blocks[1, t]), float(eps[0, t]),
                float(eps[1, t]),
            )
            assert h2[t] == pytest.approx(want_h2, rel=1e-14, abs=1e-300)
            assert g2[t] == pytest.approx(want_g2, rel=1e-14, abs=1e-300)


class TestConfig:
    def test_db_keys_and_overrides(self):
        cfg = parse_config_text("G_B_db = 40\nP_max_dbm = 10\nq_d = 0.2\n")
        assert rel(cfg.G_B, 1e4) < 1e-12
        assert rel(cfg.P_max, 0.01) < 1e-12
        assert cfg.q_d == 0.2

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_text("bogus = 3\nq_d = 0.1\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\n\nq_r = 0.05  # inline\n")
        assert cfg.q_r == 0.05

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(P_max=0.0)
        with pytest.raises(ConfigError):
            SystemConfig(q_d=1.5)
        with pytest.raises(ConfigError):
            SystemConfig(N_R=40001)  # not a perfect square
        for text in (
            "f = abc",                    # not a number
            "N_R = 4e4",                  # not an integer
            "A_bar = nan",
            "P_max = inf",
            "d_BU = -inf",
            "G_B_db = 1e5",               # overflows in the dB conversion
            "q_d = 0.1\nq_d = 0.2",       # duplicate key
            "G_B = 1e4\nG_B_db = 40",     # linear and dB form of one field
        ):
            with pytest.raises(ConfigError):
                parse_config_text(text)
        for name in ("f", "A_bar", "k_a", "q_r"):
            with pytest.raises(ConfigError, match="finite"):
                SystemConfig(**{name: math.nan})

    @pytest.mark.parametrize("n_r", [40000.5, math.inf, math.nan])
    def test_non_integral_element_count_rejected(self, n_r):
        with pytest.raises(ConfigError, match="N_R must be a positive perfect square"):
            SystemConfig(N_R=n_r)

    def test_frequency_validity_warning(self):
        with pytest.warns(UserWarning, match="GHz"):
            SystemConfig(f=600e9)
