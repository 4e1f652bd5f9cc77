"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n>: PASS|FAIL - <summary>`` before
asserting, so the verdicts are visible in the captured run log either
way.  Coarse reference values carry the stated tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from risthz.channel import derive_link_budget
from risthz.cli import main, run_from_manifest
from risthz.config import SystemConfig
from risthz.mcsc import PowerAllocation, outage_probs
from risthz.optimizer import (
    max_arrival_rate,
    random_config,
    sca_solve,
    structural_solve,
    surrogate_gamma_h,
    surrogate_gamma_l,
    update_mu,
)
from risthz.experiments import (
    alpha_sum_star,
    alpha_tradeoff_star,
    blockage_sweep,
    delay_sweep,
    strict_hc_sweep,
)

JOBS = 4


def report(n, ok, summary):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def test_criterion_1_feasibility_endpoints(cfg, budget):
    t0 = time.time()
    k = cfg.M / (cfg.T * cfg.B)
    thr0 = max_arrival_rate(cfg, budget, 0.0) * k
    thr1 = max_arrival_rate(cfg, budget, 1.0) * k
    elapsed = time.time() - t0
    ok = abs(thr0 - 4.4) <= 0.44 and abs(thr1 - 2.8) <= 0.28 and elapsed < 5.0
    report(
        1, ok,
        f"endpoints {thr0:.3f}/{thr1:.3f} bit/s/Hz "
        f"(want 4.4+-0.44 / 2.8+-0.28), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_tradeoff_anchors(cfg):
    t0 = time.time()
    a_sum = alpha_sum_star(cfg)
    a_t = alpha_tradeoff_star(cfg, alpha_sum=a_sum)
    budget = derive_link_budget(cfg)

    def fn(alpha):  # largest stabilizable arrival rate at alpha
        return structural_solve(cfg.with_(alpha=alpha, A_bar=0.0), budget).objective

    hc_ratio = (a_t * fn(a_t)) / (a_sum * fn(a_sum))
    reduction = 1.0 - fn(a_t) / fn(a_sum)
    elapsed = time.time() - t0
    ok = (
        abs(a_sum - 0.28) <= 0.05
        and abs(a_t - 0.62) <= 0.07
        and abs(hc_ratio - 2.0) <= 0.35  # "nearly doubles"
        and abs(reduction - 0.12) <= 0.05
        and elapsed < 60.0
    )
    report(
        2, ok,
        f"alpha_sum*={a_sum:.3f} (0.28+-0.05), alpha_T*={a_t:.3f} "
        f"(0.62+-0.07), HC ratio {hc_ratio:.2f} (~2x), total reduction "
        f"{reduction * 100:.1f}% (12+-5pp), {elapsed:.1f}s (<60s)",
    )


def test_criterion_3_blockage_sweep(cfg):
    res = blockage_sweep(cfg, [0.0, 0.5], jobs=2)
    rec = {(r["q_d"], r["alpha_label"]): r for r in res.records}
    thr_q0 = rec[(0.0, "0")]["throughput_total"]
    thr_q5 = rec[(0.5, "0")]["throughput_total"]
    drop = 1.0 - rec[(0.5, "1")]["throughput_total"] / rec[(0.0, "1")][
        "throughput_total"
    ]
    ok = (
        abs(thr_q0 - 6.3) <= 0.63
        and abs(thr_q5 - 3.2) <= 0.32
        and abs(drop - 0.074) <= 0.03
    )
    report(
        3, ok,
        f"alpha=0 throughput {thr_q0:.2f}@q_d=0 (6.3+-0.63), "
        f"{thr_q5:.2f}@q_d=0.5 (3.2+-0.32); alpha=1 drop {drop * 100:.2f}% "
        f"(7.4+-3pp)",
    )


def test_criterion_4_strict_hc(cfg):
    res = strict_hc_sweep(cfg, [0.14], target=0.05)
    by = {r["strategy"]: r for r in res.records}
    ratio_all_hc = by["mcsc"]["throughput_total"] / by["all_hc"]["throughput_total"]
    ratio_ts = by["mcsc"]["throughput_total"] / by["time_sharing"][
        "throughput_total"
    ]
    # round trip: every strategy record is evaluated at the adapted beam
    c_ad = cfg.with_(sigma_md=0.14, sigma_mr=0.28, w_r=by["mcsc"]["w_r"])
    rt_err = abs(outage_probs(c_ad, derive_link_budget(c_ad)).P_out_h - 0.05)
    ok = ratio_all_hc >= 2.5 and ratio_ts >= 1.25 and rt_err <= 1e-6
    report(
        4, ok,
        f"MC-SC/all-HC {ratio_all_hc:.2f}x (>=2.5x), MC-SC/time-sharing "
        f"{ratio_ts:.2f}x (>=1.25x), round-trip error {rt_err:.2e} (<=1e-6)",
    )


def test_criterion_5_queueing(cfg):
    t0 = time.time()
    # LC delay at alpha = 0, 20 replications x 2e4 slots
    tau_l0 = delay_sweep(
        cfg, [0.0], "mcsc", n_reps=20, master_seed=0, jobs=JOBS
    ).records[0]["tau_l"]

    def onset(scheme, grid):
        res = delay_sweep(
            cfg, grid, scheme, n_reps=1, master_seed=0, jobs=JOBS
        )
        for rec in res.records:
            if not (rec["stable_h"] and rec["stable_l"]):
                return rec["alpha"]
        return math.nan

    onset_mc = onset("mcsc", [round(a, 2) for a in np.arange(0.50, 0.81, 0.02)])
    onset_ts = onset(
        "time_sharing", [round(a, 2) for a in np.arange(0.08, 0.31, 0.02)]
    )

    # overall per-packet delay alpha*tau_h + (1-alpha)*tau_l over the
    # stable range; the minimizer should land in [0.30, 0.48]
    grid = [round(a, 2) for a in np.arange(0.10, 0.61, 0.02)]
    res = delay_sweep(cfg, grid, "mcsc", n_reps=20, master_seed=0, jobs=JOBS)
    overall = [
        r["alpha"] * r["tau_h"] + (1 - r["alpha"]) * r["tau_l"]
        for r in res.records
    ]
    alpha_min_delay = grid[int(np.argmin(overall))]
    elapsed = time.time() - t0

    ok = (
        abs(tau_l0 - 2.5) <= 0.5
        and abs(onset_mc - 0.63) <= 0.05
        and abs(onset_ts - 0.18) <= 0.05
        and 0.30 <= alpha_min_delay <= 0.48
        and elapsed < 600.0
    )
    report(
        5, ok,
        f"tau_l(0)={tau_l0:.2f} (2.5+-0.5); onsets MC-SC {onset_mc:.2f} "
        f"(0.63+-0.05) vs TS {onset_ts:.2f} (0.18+-0.05); delay min at "
        f"alpha={alpha_min_delay:.2f} (in [0.30,0.48]); {elapsed:.0f}s (<600s)",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    ok = True
    for _ in range(50):
        c = random_config(rng)
        b = derive_link_budget(c)
        sca = sca_solve(c, b)
        ref = structural_solve(c, b)
        gap = abs(sca.objective - ref.objective) / (1.0 + abs(ref.objective))
        worst = max(worst, gap)
        trace = sca.objective_trace
        monotone = all(
            b2 >= a2 - 1e-8 * (1.0 + abs(a2)) for a2, b2 in zip(trace, trace[1:])
        )
        if gap > 1e-3 or not monotone:
            ok = False
    report(
        6, ok,
        f"50 random configs: worst |SCA-exact| gap {worst:.2e} "
        f"(<=1e-3 scaled), all traces nondecreasing",
    )


def test_criterion_7_quadratic_transform_tightness():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        c = random_config(rng)
        b = derive_link_budget(c)
        p = PowerAllocation(*(rng.dirichlet(np.ones(4)) * c.P_max))
        mu = update_mu(p, b)
        exact_h = min(
            (bd * b.c_d * p.p_h_d + br * b.c_r * p.p_h_r)
            / (bd * b.c_d * p.p_l_d + br * b.c_r * p.p_l_r + b.sigma_n2)
            for bd, br in ((0, 1), (1, 0), (1, 1))
        )
        exact_l = b.c_d * p.p_l_d / b.sigma_n2
        err_h = abs(surrogate_gamma_h(p, mu, b) - exact_h) / (1e-300 + exact_h)
        err_l = abs(surrogate_gamma_l(p, mu, b) - exact_l) / (1e-300 + exact_l)
        worst = max(worst, err_h, err_l)
    ok = worst <= 1e-9
    report(7, ok, f"1000 pairs: worst relative recovery error {worst:.2e} (<=1e-9)")


def test_criterion_8_distribution_fidelity(cfg, budget):
    n = 100_000
    rng = np.random.default_rng(2)
    eps = rng.rayleigh(cfg.sigma_md, n)
    rho = np.sort(budget.A_d * np.exp(-2 * eps**2 / budget.w_eq_d**2))
    cdf = (rho / budget.A_d) ** (budget.gamma_ma_d**2)
    d_stat = max(
        np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n)
    )
    d_crit = 1.628 / math.sqrt(n)  # Kolmogorov critical value, alpha = 0.01

    m = 1_000_000
    from risthz.mcsc import epsilon_threshold

    eps_th_d, eps_th_r = epsilon_threshold(budget)
    avail_d = (rng.random(m) >= cfg.q_d) & (
        rng.rayleigh(cfg.sigma_md, m) <= eps_th_d
    )
    avail_r = (rng.random(m) >= cfg.q_r) & (
        rng.rayleigh(cfg.sigma_mr, m) <= eps_th_r
    )
    ana_d = (1 - cfg.q_d) * (1 - budget.q_md)
    ana_r = (1 - cfg.q_r) * (1 - budget.q_mr)
    err_d = abs(np.mean(avail_d) - ana_d)
    err_r = abs(np.mean(avail_r) - ana_r)
    tol_d = 3 * math.sqrt(ana_d * (1 - ana_d) / m)
    tol_r = 3 * math.sqrt(ana_r * (1 - ana_r) / m)
    ok = d_stat < d_crit and err_d < tol_d and err_r < tol_r
    report(
        8, ok,
        f"KS D={d_stat:.4f} (<{d_crit:.4f} at 0.01); availability errors "
        f"{err_d:.2e}/{err_r:.2e} (<3 sigma {tol_d:.2e}/{tol_r:.2e})",
    )


def test_criterion_9_manifest_determinism(tmp_path):
    checks = []
    out_a = tmp_path / "queue.csv"
    rc = main([
        "queue-sim", "--alpha-grid", "0.2:0.2:0.6", "--slots", "3000",
        "--reps", "2", "--seed", "17", "--jobs", "1", "--out", str(out_a),
    ])
    out_b = tmp_path / "queue_rerun.csv"
    rc2 = run_from_manifest(str(out_a) + ".manifest.json", str(out_b))
    checks.append(rc == 0 and rc2 == 0 and out_a.read_bytes() == out_b.read_bytes())

    out_c = tmp_path / "region.csv"
    rc = main(["feasibility", "--alpha-grid", "0:0.5:1", "--jobs", "2",
               "--out", str(out_c)])
    out_d = tmp_path / "region_rerun.csv"
    rc2 = run_from_manifest(str(out_c) + ".manifest.json", str(out_d))
    checks.append(rc == 0 and rc2 == 0 and out_c.read_bytes() == out_d.read_bytes())

    ok = all(checks)
    report(
        9, ok,
        f"manifest reruns byte-identical: queue-sim={checks[0]}, "
        f"feasibility={checks[1]}",
    )
