"""Sweep-driver and derived-analysis tests."""

import math

import numpy as np
import pytest

from risthz.channel import derive_link_budget
from risthz.config import SystemConfig
from risthz.mcsc import outage_probs
from risthz.optimizer import max_arrival_rate, random_config, sca_solve
from risthz import experiments
from risthz.experiments import (
    DEFAULT_ALPHA_TOL,
    BeamAdaptationError,
    W_R_MIN,
    adapt_beamwidth,
    alpha_sum_star,
    alpha_tradeoff_star,
    argmax_unimodal,
    blockage_sweep,
    config_hash,
    delay_sweep,
    feasibility_region,
    misalignment_sweep,
    operating_point,
    strict_hc_sweep,
    time_sharing_point,
)


class TestFeasibilityRegion:
    def test_single_point_grid(self, cfg, budget):
        res = feasibility_region(cfg, [0.5])
        assert len(res.records) == 1
        direct = max_arrival_rate(cfg, budget, 0.5)
        assert res.records[0]["A_max"] == pytest.approx(direct, rel=1e-9)

    def test_normalization_identity(self, cfg):
        pt = operating_point(cfg, 0.4)
        assert pt.throughput_total * cfg.T * cfg.B / cfg.M == pytest.approx(
            pt.A_max, rel=1e-12
        )
        assert pt.throughput_hc == pytest.approx(0.4 * pt.throughput_total)

    def test_synergy_then_tradeoff_shape(self, cfg, budget):
        # Nondecreasing up to the maximizer, nonincreasing after (21 points).
        vals = [max_arrival_rate(cfg, budget, a) for a in np.linspace(0, 1, 21)]
        k = int(np.argmax(vals))
        slack = 1e-6 * (1 + abs(vals[k]))
        assert all(vals[i + 1] >= vals[i] - slack for i in range(k))
        assert all(vals[i + 1] <= vals[i] + slack for i in range(k, 20))

    def test_parallel_matches_serial(self, cfg):
        grid = [0.2, 0.6]
        a = feasibility_region(cfg, grid, jobs=1)
        b = feasibility_region(cfg, grid, jobs=2)
        assert a.records == b.records


class TestArgmaxUnimodal:
    def test_constant_returns_left_boundary(self):
        assert argmax_unimodal(lambda x: 1.0, 0.0, 1.0, 1e-4) == 0.0

    def test_quadratic_peak(self):
        got = argmax_unimodal(lambda x: -(x - 0.37) ** 2, 0.0, 1.0, 1e-5)
        assert got == pytest.approx(0.37, abs=1e-3)

    def test_non_unimodal_fallback(self):
        # Two peaks: the fine-grid fallback must find the taller one.
        def fn(x):
            return math.exp(-200 * (x - 0.2) ** 2) + 1.2 * math.exp(
                -200 * (x - 0.8) ** 2
            )

        with pytest.warns(RuntimeWarning, match=r"\[0\.0, 1\.0\] is not unimodal"):
            got = argmax_unimodal(fn, 0.0, 1.0, 1e-4)
        assert got == pytest.approx(0.8, abs=0.01)


def sca_a_max_fn(cfg):
    """The HC-fraction searches' objective driven by SCA, through
    ``max_arrival_rate``: the reference for the structural solver."""
    budget = derive_link_budget(cfg)
    cache = {}

    def fn(alpha):
        if alpha not in cache:
            cache[alpha] = max_arrival_rate(cfg, budget, alpha)
        return cache[alpha]

    return fn


_rng = np.random.default_rng(5)
SEARCH_CONFIGS = [SystemConfig()] + [random_config(_rng) for _ in range(4)]


class TestAlphaSearches:
    @pytest.mark.parametrize("i", range(len(SEARCH_CONFIGS)))
    def test_match_sca_driven_search(self, monkeypatch, i):
        c = SEARCH_CONFIGS[i]
        a_sum = alpha_sum_star(c)
        a_t = alpha_tradeoff_star(c, alpha_sum=a_sum)
        monkeypatch.setattr(experiments, "_a_max_fn", sca_a_max_fn)
        ref_sum = alpha_sum_star(c)
        ref_t = alpha_tradeoff_star(c, alpha_sum=ref_sum)
        assert abs(a_sum - ref_sum) <= DEFAULT_ALPHA_TOL
        assert abs(a_t - ref_t) <= DEFAULT_ALPHA_TOL


class TestSweeps:
    def test_blockage_sweep_structure(self, cfg):
        res = blockage_sweep(cfg, [0.0, 0.3])
        assert len(res.records) == 6  # three alpha records per grid point
        labels = [r["alpha_label"] for r in res.records[:3]]
        assert labels == ["0", "alpha_T", "1"]
        assert res.records[0]["q_d"] == 0.0

    def test_misalignment_outage_ordering_and_monotonicity(self, cfg):
        grid = [0.05, 0.1, 0.2, 0.3]
        outs = []
        for s in grid:
            c = cfg.with_(sigma_md=s, sigma_mr=2 * s)
            outs.append(outage_probs(c, derive_link_budget(c)))
        for o in outs:
            assert o.P_out_h < o.P_out_l
        for a, b in zip(outs, outs[1:]):
            assert b.P_out_h > a.P_out_h
            assert b.P_out_l > a.P_out_l

    def test_misalignment_sweep_sets_scales(self, cfg):
        res = misalignment_sweep(cfg, [0.08])
        assert res.records[0]["sigma_m"] == 0.08
        assert len(res.records) == 3

    def test_csv_round_trip(self, cfg, tmp_path):
        res = feasibility_region(cfg, [0.1, 0.9])
        path = tmp_path / "sweep.csv"
        res.write_csv(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert "A_max" in header and "alpha" in header
        # shortest round-trip float formatting preserves exact values
        idx = header.index("A_max")
        assert float(lines[1].split(",")[idx]) == res.records[0]["A_max"]

    def test_config_hash_stable(self, cfg):
        assert config_hash(cfg) == config_hash(SystemConfig())
        assert config_hash(cfg) != config_hash(cfg.with_(q_d=0.31))


class TestAdaptBeamwidth:
    def test_vacuous_target_returns_narrowest_beam(self, cfg):
        w_r, G_R = adapt_beamwidth(cfg, 1.0)
        assert w_r == W_R_MIN
        assert G_R == 8 * cfg.d_RU**2 / W_R_MIN**2

    def test_target_below_blockage_floor(self, cfg):
        with pytest.raises(BeamAdaptationError, match="floor"):
            adapt_beamwidth(cfg, 1e-6)

    def test_non_monotone_branch_raises(self, cfg, monkeypatch):
        # a wiggle past the minimum breaks the bisection's premise; this
        # must raise even under ``python -O``, so it is no assert
        monkeypatch.setattr(
            experiments, "_log_w_eq_of_w_r",
            lambda c, w: math.log(w) ** 2 + 0.1 * math.sin(20.0 * math.log(w)),
        )
        with pytest.raises(BeamAdaptationError, match="not monotone"):
            adapt_beamwidth(cfg, 0.05)

    def test_round_trip_random_pairs(self, cfg):
        rng = np.random.default_rng(13)
        done = 0
        for _ in range(200):
            if done >= 10:
                break
            c = cfg.with_(
                q_d=float(rng.uniform(0.0, 0.5)),
                q_r=float(rng.uniform(0.0, 0.3)),
                sigma_md=float(rng.uniform(0.05, 0.3)),
                sigma_mr=float(rng.uniform(0.1, 0.5)),
            )
            budget = derive_link_budget(c)
            fail_d = 1 - (1 - c.q_d) * (1 - budget.q_md)
            floor = fail_d * (1 - (1 - c.q_r))
            target = float(rng.uniform(floor + 1e-3, fail_d * 0.95))
            if not floor + 1e-3 < fail_d * 0.95:
                continue
            try:
                w_r, _ = adapt_beamwidth(c, target)
            except BeamAdaptationError:
                continue
            adapted = c.with_(w_r=w_r)
            out = outage_probs(adapted, derive_link_budget(adapted))
            assert abs(out.P_out_h - target) <= 1e-6
            done += 1
        assert done >= 10


class TestTimeSharing:
    def test_pure_lc_matches_mcsc_at_alpha_zero(self, cfg):
        ts = time_sharing_point(cfg, 0.0)
        assert ts.lam == 0.0
        mc = operating_point(cfg, 0.0)
        assert ts.A_max == pytest.approx(mc.A_max, rel=1e-6)

    def test_boundary_collinear(self, cfg):
        pts = [
            (p.throughput_total, p.throughput_hc)
            for p in (time_sharing_point(cfg, a) for a in (0.25, 0.5, 0.75))
        ]
        (x1, y1), (x2, y2), (x3, y3) = pts
        cross = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
        assert abs(cross) < 1e-9 * max(abs(x1 * y3), 1.0)

    def test_mcsc_dominates_time_sharing(self, cfg):
        for a in (0.2, 0.5, 0.8):
            mc = operating_point(cfg, a)
            ts = time_sharing_point(cfg, a)
            assert mc.throughput_total >= ts.throughput_total - 1e-9
            assert mc.throughput_hc >= ts.throughput_hc - 1e-9


class TestStrictHc:
    def test_vacuous_target_keeps_beamwidth(self, cfg):
        res = strict_hc_sweep(cfg, [0.1], target=1.0)
        for rec in res.records:
            assert rec["w_r"] == cfg.w_r

    def test_strategies_present(self, cfg):
        res = strict_hc_sweep(cfg, [0.14])
        strategies = {r["strategy"] for r in res.records}
        assert strategies == {"time_sharing", "mcsc", "all_hc"}


class TestDelaySweep:
    def test_record_fields_and_determinism(self, cfg):
        a = delay_sweep(cfg, [0.3], "mcsc", n_slots=2000, n_reps=2, master_seed=5)
        b = delay_sweep(cfg, [0.3], "mcsc", n_slots=2000, n_reps=2, master_seed=5)
        assert a.records == b.records
        rec = a.records[0]
        for key in ("tau_h", "tau_l", "peak_q_h_norm", "peak_q_l_norm",
                    "stable_h", "stable_l"):
            assert key in rec

    def test_time_sharing_scheme_runs(self, cfg):
        res = delay_sweep(cfg, [0.1], "time_sharing", n_slots=2000, n_reps=1)
        assert res.records[0]["scheme"] == "time_sharing"
        assert math.isfinite(res.records[0]["tau_l"])

    def test_unknown_scheme_rejected(self, cfg):
        with pytest.raises(ValueError, match="scheme"):
            delay_sweep(cfg, [0.1], "bogus", n_slots=500)
