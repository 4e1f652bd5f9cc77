"""Sweep-driver and derived-analysis tests."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from risthz.channel import derive_link_budget
from risthz.config import SystemConfig
from risthz.mcsc import outage_probs
from risthz.optimizer import (
    Frontier,
    _golden_max,
    max_arrival_rate,
    random_config,
    sca_solve,
    structural_solve,
)
from risthz import SlotBuffers, channel, cli, config, experiments, mcsc, optimizer, queueing
from risthz.experiments import (
    BeamAdaptationError,
    V_STAR,
    W_R_MAX,
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
    simulate_time_sharing,
    strict_hc_sweep,
    time_sharing_point,
)


SIGMA_NOT_POSITIVE = "sigma_md must be strictly positive; sigma_mr must be strictly positive"


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

    def test_parallel_matches_serial(self, cfg, tmp_path):
        # the one sweep with a pool path, compared as CSV bytes
        outs = []
        for jobs in (1, 2):
            path = tmp_path / f"{jobs}.csv"
            delay_sweep(cfg, [0.3, 0.7], "time_sharing", n_slots=500, n_reps=2,
                        jobs=jobs).write_csv(str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


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


DEFAULT_ALPHA_TOL = 1e-3  # tolerance of the reference searches


def a_max_fn(cfg, solve=structural_solve):
    """Largest stabilizable arrival rate as a function of the HC fraction
    (A_bar does not move the powers), from ``solve``; cached."""
    budget = derive_link_budget(cfg)
    cache = {}

    def fn(alpha):
        if alpha not in cache:
            cache[alpha] = solve(cfg.with_(alpha=alpha, A_bar=0.0), budget).objective
        return cache[alpha]

    return fn


def search_alpha_sum(fn):
    """Reference alpha_sum*: golden-section search of A(alpha)."""
    return argmax_unimodal(fn, 0.0, 1.0, DEFAULT_ALPHA_TOL)


def tradeoff_fn(fn, alpha_sum):
    a_ref, a_one = fn(alpha_sum), fn(1.0)
    return lambda alpha: fn(alpha) / a_ref + alpha * fn(alpha) / a_one


def search_alpha_tradeoff(fn, alpha_sum):
    """Reference alpha_T*: golden-section search over [alpha_sum, 1]."""
    return argmax_unimodal(tradeoff_fn(fn, alpha_sum), alpha_sum, 1.0, DEFAULT_ALPHA_TOL)


_rng = np.random.default_rng(5)
SEARCH_CONFIGS = [SystemConfig()] + [random_config(_rng) for _ in range(4)]


class TestAlphaSearches:
    @pytest.mark.parametrize("i", range(len(SEARCH_CONFIGS)))
    def test_match_sca_driven_search(self, i):
        c = SEARCH_CONFIGS[i]
        a_sum = alpha_sum_star(c)
        a_t = alpha_tradeoff_star(c, alpha_sum=a_sum)
        fn = a_max_fn(c, sca_solve)
        ref_sum = search_alpha_sum(fn)
        ref_t = search_alpha_tradeoff(fn, ref_sum)
        assert abs(a_sum - ref_sum) <= DEFAULT_ALPHA_TOL
        assert abs(a_t - ref_t) <= DEFAULT_ALPHA_TOL


def frontier_point(c, t):
    """(alpha, A) of the closed-form frontier at the LC power x = t P."""
    frontier = Frontier(c, derive_link_budget(c))
    return frontier.alpha(t * c.P_max), frontier.rate(t * c.P_max)


class TestFrontier:
    """The closed-form HC fractions against golden-section searches over
    ``structural_solve`` and against alpha grids.  The solver and the
    closed forms both read ``optimizer.Frontier``, so these tests check
    the argmax and tradeoff algebra, not the frontier itself: SCA
    (``TestAlphaSearches``), the brute-force grids and the service-rate
    property in ``test_optimizer`` stay the independent references."""

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
    def test_rate_matches_structural_solve(self, seed, t):
        c = random_config(np.random.default_rng(seed))
        alpha, a = frontier_point(c, t)
        ref = a_max_fn(c)(alpha)
        assert abs(a - ref) <= 1e-9 * (1.0 + abs(ref))

    @given(seed=st.integers(0, 2**32 - 1), given_sum=st.booleans())
    def test_matches_golden_section_reference(self, seed, given_sum):
        c = random_config(np.random.default_rng(seed))
        fn = a_max_fn(c)
        ref_sum = search_alpha_sum(fn)
        assert abs(alpha_sum_star(c) - ref_sum) <= DEFAULT_ALPHA_TOL
        a_t = alpha_tradeoff_star(c, alpha_sum=ref_sum if given_sum else None)
        assert abs(a_t - search_alpha_tradeoff(fn, ref_sum)) <= DEFAULT_ALPHA_TOL

    @given(seed=st.integers(0, 2**32 - 1), given_sum=st.booleans())
    def test_never_beaten_by_alpha_grid(self, seed, given_sum):
        c = random_config(np.random.default_rng(seed))
        fn = a_max_fn(c)
        grid = [float(a) for a in np.linspace(0.0, 1.0, 201)]
        a_sum = alpha_sum_star(c)
        best = max(fn(a) for a in grid)
        assert fn(a_sum) >= best - 1e-12 * (1.0 + abs(best))
        a_t = alpha_tradeoff_star(c, alpha_sum=a_sum if given_sum else None)
        assert a_t >= a_sum
        tradeoff = tradeoff_fn(fn, a_sum)
        best = max(tradeoff(a) for a in grid if a >= a_sum)
        assert tradeoff(a_t) >= best - 1e-12 * (1.0 + abs(best))

    def test_equal_outage_weights(self, cfg):
        # q_r = 1: HC has only the direct path, so k_h = k_l and the total
        # rate rises up to x = P (all power to LC)
        c = cfg.with_(q_r=1.0)
        out = outage_probs(c, derive_link_budget(c))
        assert out.P_out_h == out.P_out_l
        fn = a_max_fn(c)
        assert alpha_sum_star(c) == search_alpha_sum(fn) == 0.0
        for a_sum in (None, 0.0):
            a_t = alpha_tradeoff_star(c, alpha_sum=a_sum)
            assert abs(a_t - search_alpha_tradeoff(fn, 0.0)) <= DEFAULT_ALPHA_TOL

    def test_lc_always_in_outage(self, cfg):
        # q_d = 1: k_l = 0 < k_h, so every rate goes to HC
        c = cfg.with_(q_d=1.0)
        assert outage_probs(c, derive_link_budget(c)).P_out_l == 1.0
        assert alpha_sum_star(c) == search_alpha_sum(a_max_fn(c)) == 1.0
        assert alpha_tradeoff_star(c) == alpha_tradeoff_star(c, alpha_sum=1.0) == 1.0

    def test_nothing_served(self, cfg):
        # q_d = q_r = 1: A = 0 at every alpha; the tradeoff drops both
        # normalized terms instead of dividing by zero
        c = cfg.with_(q_d=1.0, q_r=1.0)
        assert all(a_max_fn(c)(a) == 0.0 for a in (0.0, 0.5, 1.0))
        assert alpha_sum_star(c) == search_alpha_sum(a_max_fn(c)) == 0.0
        for a_sum in (None, 0.0, 0.5):
            assert alpha_tradeoff_star(c, alpha_sum=a_sum) == (a_sum or 0.0)


RISTHZ_MODULES = (channel, cli, config, experiments, mcsc, optimizer, queueing)
SOLVERS = ("sca_solve", "solve_subproblem", "structural_solve", "max_arrival_rate")


class TestCallBudgets:
    """The closed forms must stay closed: no solver inside the searches'
    hot path and one link budget per beam adaptation."""

    @staticmethod
    def counted(monkeypatch, *names):
        """Log each call of the functions ``names`` through every
        ``risthz`` module that binds them."""
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            fn = next(getattr(m, name) for m in RISTHZ_MODULES if hasattr(m, name))
            wrapper = counting(name, fn)
            for m in RISTHZ_MODULES:
                if getattr(m, name, None) is fn:
                    monkeypatch.setattr(m, name, wrapper)
        return calls

    def test_alpha_searches(self, monkeypatch, cfg):
        calls = self.counted(monkeypatch, *SOLVERS)
        a_sum = alpha_sum_star(cfg)
        alpha_tradeoff_star(cfg)
        alpha_tradeoff_star(cfg, alpha_sum=a_sum)
        assert calls == []
        operating_point(cfg, 0.5)  # the patches do see a solve
        assert {"sca_solve", "solve_subproblem"} <= set(calls)

    def test_adapt_beamwidth(self, monkeypatch, cfg):
        calls = self.counted(monkeypatch, "derive_link_budget")
        adapt_beamwidth(cfg.with_(sigma_md=0.14, sigma_mr=0.28), 0.05)
        assert len(calls) <= 2

    @pytest.mark.parametrize("target", [0.05, 1.0], ids=["adapted", "met"])
    def test_strict_hc_point(self, monkeypatch, cfg, target):
        # one budget each for adapt_beamwidth, alpha_sum_star, time
        # sharing and the two operating points: the point itself derives
        # no budget and evaluates no outage, met target or not
        calls = self.counted(monkeypatch, "derive_link_budget", "outage_probs")
        strict_hc_sweep(cfg, [0.14], target=target)
        assert calls.count("derive_link_budget") == 5
        assert calls.count("outage_probs") == 7


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

    def test_pool_has_at_most_one_worker_per_point(self, pools):
        # a pool forks all its workers at its first submit
        def point(i, v, c):
            return [{"i": i, "v": v, "c": c}]

        def at(v):
            return -v

        res = experiments._sweep(point, [0.1, 0.2, 0.3], at, jobs=64)
        assert res.records == [{"i": 0, "v": 0.1, "c": -0.1}, {"i": 1, "v": 0.2, "c": -0.2},
                               {"i": 2, "v": 0.3, "c": -0.3}]
        assert pools == [3]
        assert experiments._sweep(point, [0.5], at, jobs=8).records == [
            {"i": 0, "v": 0.5, "c": -0.5}]
        assert pools == [3]

    @pytest.mark.parametrize("sweep, grid, match", [
        (feasibility_region, [0.2, 0.5, 1.25], r"alpha must lie in \[0, 1\], got 1.25"),
        (blockage_sweep, [0.0, 0.3, 1.5], r"q_d must lie in \[0, 1\], got 1.5"),
        (misalignment_sweep, [0.08, 0.1, -0.1], SIGMA_NOT_POSITIVE),
        (strict_hc_sweep, [0.04, 0.09, -0.1], SIGMA_NOT_POSITIVE),
        (lambda cfg, grid: delay_sweep(cfg, grid, experiments.SCHEMES, n_slots=500, jobs=2),
         [0.2, 0.5, 1.25], r"alpha must lie in \[0, 1\], got 1.25"),
    ], ids=["feasibility", "blockage", "misalignment", "strict-hc", "delay"])
    def test_bad_grid_value_rejected_before_any_point(self, cfg, monkeypatch, pools,
                                                      sweep, grid, match):
        calls = []
        for name in ("operating_point", "_delay_point"):
            def counting(*args, fn=getattr(experiments, name), **kwargs):
                calls.append(fn)
                return fn(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counting)
        with pytest.raises(config.ConfigError, match=f"^{match}$"):
            sweep(cfg, grid)
        assert calls == []
        assert pools == []

    def test_config_hash_stable(self, cfg):
        assert config_hash(cfg) == config_hash(SystemConfig())
        assert config_hash(cfg) != config_hash(cfg.with_(q_d=0.31))


class TestAdaptBeamwidth:
    def test_vacuous_target_keeps_configured_beam(self, cfg):
        w_r, G_R = adapt_beamwidth(cfg, 1.0)
        assert w_r == cfg.w_r
        assert G_R == 8 * cfg.d_RU**2 / cfg.w_r**2

    def test_target_below_blockage_floor(self, cfg):
        with pytest.raises(BeamAdaptationError, match="floor"):
            adapt_beamwidth(cfg, 1e-6)

    def test_direct_path_that_never_fails_meets_every_target(self):
        # P_out_l = 0: every target holds for every beam, so the configured
        # beam is kept instead of dividing by the zero failure rate
        cfg = SystemConfig(q_d=0.0, sigma_md=1e-3, sigma_mr=2e-3)
        assert outage_probs(cfg, derive_link_budget(cfg)).P_out_l == 0.0
        for target in (0.05, 1e-12, 1.0):
            assert adapt_beamwidth(cfg, target) == (cfg.w_r, 8 * cfg.d_RU**2 / cfg.w_r**2)

    # a_U grows with sqrt(G_U) / f; at G_U = 0.2 and 300 GHz the analytic
    # minimum lies below W_R_MIN, so w_min clamps to it
    @given(log10_G_U=st.floats(-1.0, 5.0), f=st.floats(config.F_VALID_MIN, config.F_VALID_MAX))
    @example(log10_G_U=math.log10(0.2), f=300e9)
    def test_wide_branch_starts_at_analytic_minimum(self, cfg, log10_G_U, f):
        # the bisection's premise: w_eq rises on [w_min, W_R_MAX] and
        # an unclamped w_min is the minimum, where g' of
        # g(v) = log erf v - 3 log v + v^2 changes sign
        def dg(v):
            return 2.0 * math.exp(-v * v) / (math.sqrt(math.pi) * math.erf(v)) - 3.0 / v + 2.0 * v

        assert dg(V_STAR * (1.0 - 1e-9)) < 0.0 < dg(V_STAR * (1.0 + 1e-9))
        a_U = derive_link_budget(cfg.with_(G_U=10.0**log10_G_U, f=f)).a_U
        w_star = a_U * math.sqrt(math.pi / 2.0) / V_STAR
        w_min = max(W_R_MIN, w_star)

        def w_eq_sq(w):
            return channel.equivalent_width_sq(w, channel.collection_fraction(a_U, w)[1])

        sq = [w_eq_sq(float(w)) for w in np.geomspace(w_min, W_R_MAX, 200)]
        assert all(b > a for a, b in zip(sq, sq[1:]))
        if w_min == w_star:
            assert w_eq_sq(w_min * (1.0 - 1e-4)) > sq[0]

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


def golden_hc_rate(cfg):
    """Time-sharing HC rate from a golden-section search on the worst
    single-path state, min(c_d y, c_r (P - y)) / sigma^2."""
    b = derive_link_budget(cfg)
    P = cfg.P_max

    def worst_hc(y):
        return min(b.c_d * y, b.c_r * (P - y)) / b.sigma_n2

    y, _ = _golden_max(worst_hc, 0.0, P, 1e-10 * P)
    return cfg.B * math.log2(1.0 + worst_hc(y))


class TestTimeSharing:
    @given(seed=st.integers(0, 2**32 - 1))
    def test_closed_form_split(self, seed):
        c = random_config(np.random.default_rng(seed))
        ts = time_sharing_point(c, c.alpha)
        b = derive_link_budget(c)
        sig_d, sig_r = b.c_d * ts.p_h_d, b.c_r * ts.p_h_r
        assert abs(sig_d - sig_r) <= 1e-15 * max(sig_d, sig_r)
        assert math.isclose(ts.p_h_d + ts.p_h_r, c.P_max, rel_tol=1e-15)
        assert ts.R_h >= golden_hc_rate(c)

    def test_pure_lc_matches_mcsc_at_alpha_zero(self, cfg):
        # and, at alpha = 1, the pure HC phase matches SCA's all-HC point
        for alpha in (0.0, 1.0):
            ts = time_sharing_point(cfg, alpha)
            assert ts.lam == alpha
            mc = operating_point(cfg, alpha)
            assert ts.A_max == pytest.approx(mc.A_max, rel=1e-6)

    def test_nothing_served(self, cfg):
        # q_d = q_r = 1: both phases are always in outage, so every split
        # serves nothing; lam = alpha by convention
        c = cfg.with_(q_d=1.0, q_r=1.0)
        for alpha in (0.0, 0.3, 1.0):
            ts = time_sharing_point(c, alpha)
            assert (ts.lam, ts.A_max, ts.throughput_total) == (alpha, 0.0, 0.0)

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

    def test_unreachable_point_is_a_record(self, cfg):
        # at sigma_m = 0.24 the direct-path failure times the RIS blockage
        # floor exceeds the 0.05 target, so no beam meets it
        res = strict_hc_sweep(cfg, [0.24, 0.14])
        assert [r["strategy"] for r in res.records] == ["time_sharing", "mcsc", "all_hc"] * 2
        assert all(list(r) == list(res.records[0]) for r in res.records)
        assert [r["feasible"] for r in res.records] == [0] * 3 + [1] * 3
        for r in res.records[:3]:
            assert r["sigma_m"] == 0.24
            assert all(math.isnan(v) for k, v in r.items()
                       if k not in ("sigma_m", "strategy", "feasible"))
        assert res.records[3:] == strict_hc_sweep(cfg, [0.14]).records


def time_sharing_reference(cfg, budget, tsp, n_slots, seed):
    """Per-slot scalar reference for ``simulate_time_sharing``: the HC
    phase decodes over both paths at its own split with no LC
    interference, the LC phase decodes on the direct path at P_max with
    no SIC, and each queue is served in its share (lam or 1 - lam) of the
    slot.  Draws the channel in ``simulate_time_sharing``'s order."""
    rng = np.random.default_rng(seed)
    arrivals = rng.poisson(cfg.A_bar, n_slots).astype(float)
    beta_d = rng.random(n_slots) >= cfg.q_d
    beta_r = rng.random(n_slots) >= cfg.q_r
    eps_d = rng.rayleigh(cfg.sigma_md, n_slots)
    eps_r = rng.rayleigh(cfg.sigma_mr, n_slots)
    tm, s2 = cfg.T / cfg.M, budget.sigma_n2
    ref = {"q_h": [], "q_l": [], "xi_h": [], "xi_l": []}
    q_h = q_l = 0.0
    for t in range(n_slots):
        h2 = beta_d[t] * budget.eta_d**2 * budget.A_d * math.exp(
            -2.0 * eps_d[t] ** 2 / budget.w_eq_d**2)
        g2 = beta_r[t] * budget.eta_r**2 * budget.A_RIS * budget.A_r * math.exp(
            -2.0 * eps_r[t] ** 2 / budget.w_eq_r**2)
        xi_h = int(cfg.B * math.log2(1.0 + (h2 * tsp.p_h_d + g2 * tsp.p_h_r) / s2) >= tsp.R_h)
        xi_l = int(cfg.B * math.log2(1.0 + h2 * cfg.P_max / s2) >= tsp.R_l)
        q_h = max(q_h - xi_h * tsp.lam * tm * tsp.R_h, 0.0) + cfg.alpha * arrivals[t]
        q_l = max(q_l - xi_l * (1.0 - tsp.lam) * tm * tsp.R_l, 0.0) + (
            1.0 - cfg.alpha) * arrivals[t]
        for key, v in (("q_h", q_h), ("q_l", q_l), ("xi_h", xi_h), ("xi_l", xi_l)):
            ref[key].append(v)
    return {k: np.array(v) for k, v in ref.items()}, arrivals


class TestSimulateTimeSharing:
    def test_matches_per_slot_reference(self, cfg):
        # at the baseline's own split an LC success implies an HC success;
        # with all HC power on the RIS path the phases disagree
        c = cfg.with_(alpha=0.4)
        budget = derive_link_budget(c)
        tsp = dataclasses.replace(time_sharing_point(c, c.alpha),
                                  p_h_d=0.0, p_h_r=c.P_max)
        c = c.with_(A_bar=0.9 * tsp.A_max)
        trace = experiments.simulate_time_sharing(
            c, budget, tsp, queueing.draw_slots(c, SlotBuffers(3000), seed=11))
        ref, arrivals = time_sharing_reference(c, budget, tsp, 3000, seed=11)
        assert np.array_equal(trace.arrivals, arrivals)
        assert np.array_equal(trace.xi_h, ref["xi_h"])
        assert np.array_equal(trace.xi_l, ref["xi_l"])
        # slots where the two phases disagree: LC served after an HC outage
        # (no SIC) and HC served over the RIS path alone (not LC)
        assert np.any((ref["xi_h"] == 0) & (ref["xi_l"] == 1))
        assert np.any((ref["xi_h"] == 1) & (ref["xi_l"] == 0))
        # the closed-form Lindley recursion rounds its running sums in
        # another order than the slot loop (see test_queueing)
        tol = 8 * len(arrivals) * np.finfo(float).eps * (1.0 + 2.0 * np.sum(arrivals))
        assert np.all(np.abs(trace.q_h - ref["q_h"]) <= tol)
        assert np.all(np.abs(trace.q_l - ref["q_l"]) <= tol)


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

    def test_schemes_share_one_pool(self, cfg, pools):
        # both schemes' points go through one sweep engine run, and so
        # through one pool, in the order and under the seeds of two sweeps
        grid = [0.2, 0.6]
        want = [rec for scheme in experiments.SCHEMES
                for rec in delay_sweep(cfg, grid, scheme, n_slots=500, n_reps=2,
                                       master_seed=4).records]
        got = delay_sweep(cfg, grid, experiments.SCHEMES, n_slots=500, n_reps=2,
                          master_seed=4, jobs=2)
        assert pools == [2]
        assert got.records == want

    def test_records_match_fresh_buffer_reference(self, cfg):
        # the thread's workspace is made again whenever n_slots changes
        def reference(alpha, n_slots, seed, n_reps):
            c = cfg.with_(alpha=alpha)
            b = derive_link_budget(c)
            draws = (queueing.draw_slots(c, SlotBuffers(n_slots),
                                         np.random.SeedSequence([seed, 0, rep]))
                     for rep in range(n_reps))
            traces = [simulate_time_sharing(c, b, time_sharing_point(c, alpha), work)
                      for work in draws]
            rec = {"scheme": "time_sharing", "alpha": alpha}
            for key in ("tau_h", "tau_l", "peak_q_h_norm", "peak_q_l_norm",
                        "outage_rate_h", "outage_rate_l"):
                rec[key] = float(np.mean([getattr(t, key) for t in traces]))
            verdict = queueing.stability_diagnostic(traces[0])
            return {**rec, "stable_h": int(verdict["hc"]), "stable_l": int(verdict["lc"])}

        for n_slots, seed in ((2000, 1), (3000, 2), (2000, 3)):
            got = delay_sweep(cfg, [0.4], "time_sharing", n_slots=n_slots, n_reps=3,
                              master_seed=seed)
            assert got.records == [reference(0.4, n_slots, seed, 3)]

    def test_concurrent_sweeps_match_serial(self, cfg):
        # each thread runs in its own workspace; a shared one would mix
        # the two sweeps' slots without raising
        def sweep(seed, start=None):
            if start is not None:
                start.wait()
            return delay_sweep(cfg, [0.2, 0.4, 0.6, 0.8], experiments.SCHEMES,
                               n_slots=4000, n_reps=3, master_seed=seed).records

        want = {seed: sweep(seed) for seed in (11, 12, 13)}  # more threads than cores
        got = {}
        start = threading.Barrier(len(want))
        threads = [threading.Thread(target=lambda s=seed: got.__setitem__(s, sweep(s, start)))
                   for seed in want]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter over within each simulation
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_unknown_scheme_rejected(self, cfg, monkeypatch):
        with pytest.raises(ValueError, match="scheme"):
            delay_sweep(cfg, [0.1], "bogus", n_slots=500)
        with pytest.raises(ValueError, match="scheme"):
            delay_sweep(cfg, [], "bogus")
        with pytest.raises(ValueError, match="'bogus'"):
            delay_sweep(cfg, [0.1], ("mcsc", "bogus"), n_slots=500)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(experiments, "_process_pool", no_pool)
        with pytest.raises(ValueError, match="scheme"):
            delay_sweep(cfg, [0.1, 0.2], "bogus", n_slots=500, jobs=2)

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_reps": 0}, "n_reps must be >= 1, got 0"),
        ({"n_reps": -2}, "n_reps must be >= 1, got -2"),
        ({"n_slots": -5}, "n_slots must be >= 100, got -5"),
        ({"n_slots": 0}, "n_slots must be >= 100, got 0"),
        ({"n_slots": 50}, "n_slots must be >= 100, got 50"),
        ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
    ])
    def test_bad_sizes_rejected_before_any_point(self, cfg, monkeypatch, kwargs, match):
        def no_call(*_args, **_kwargs):
            raise AssertionError("a point or a pool started")

        monkeypatch.setattr(experiments, "_delay_point", no_call)
        monkeypatch.setattr(experiments, "_process_pool", no_call)
        for jobs in (1, 2):
            with pytest.raises(ValueError, match=match):
                delay_sweep(cfg, [0.1, 0.2], experiments.SCHEMES, jobs=jobs, **kwargs)

    def test_one_draw_per_replication(self, cfg, monkeypatch):
        # both schemes of a grid point serve each replication's one draw
        calls = {}

        def counting(name):
            stage = getattr(queueing, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return stage(*args, **kwargs)
            return wrapper

        stages = ("sample_arrivals", "sample_channel_slots", "decode_slots", "run_queues")
        for name in stages:
            monkeypatch.setattr(queueing, name, counting(name))
        delay_sweep(cfg, [0.2, 0.6], experiments.SCHEMES, n_reps=3)
        assert calls == {"sample_arrivals": 6, "sample_channel_slots": 6,
                         "decode_slots": 12, "run_queues": 12}

    def test_out_of_range_alpha_rejected_before_any_point(self, cfg, monkeypatch, pools):
        def no_call(*_args, **_kwargs):
            raise AssertionError("a queue ran")

        monkeypatch.setattr(queueing, "run_queues", no_call)
        grid = [0, 0.25, 0.5, 0.75, 1, 1.25]
        for jobs in (1, 2):
            with pytest.raises(config.ConfigError, match=r"^alpha must lie in \[0, 1\], got 1.25$"):
                delay_sweep(cfg, grid, experiments.SCHEMES, n_slots=500, jobs=jobs)
        assert pools == []

    def test_undrawable_arrival_rate_rejected_before_any_point(self, cfg, monkeypatch, pools):
        def no_call(*_args, **_kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(experiments, "_delay_point", no_call)
        for a_bar in (1e19, 9.3e18):
            for jobs in (1, 2):
                with pytest.raises(config.ConfigError, match="^A_bar = .* cannot be drawn: "):
                    delay_sweep(cfg.with_(A_bar=a_bar), [0.2, 0.6], experiments.SCHEMES,
                                jobs=jobs)
        assert pools == []

    def test_shortest_diagnostic_trace_accepted(self, cfg):
        n = queueing.MIN_DIAGNOSTIC_SLOTS
        rec = delay_sweep(cfg, [0.4], "time_sharing", n_slots=n).records[0]
        assert rec["scheme"] == "time_sharing" and rec["stable_h"] in (0, 1)
