"""Queue-recursion, simulation, and stability-diagnostic tests."""

import math
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risthz.channel import channel_gains, derive_link_budget
from risthz.config import SystemConfig
from risthz.experiments import delay_sweep, simulate_time_sharing, time_sharing_point
from risthz.optimizer import sca_solve
from risthz.queueing import (
    InsufficientDataError,
    SlotBuffers,
    _lindley,
    decode_slots,
    draw_slots,
    run_queues,
    sample_arrivals,
    sample_channel_slots,
    simulate,
    stability_diagnostic,
    thread_buffers,
)


def loop_recursion(service, arrivals):
    """Reference for ``_lindley``: the slot loop Q_t = max(Q_{t-1} - s_t, 0) + a_t
    from an empty queue (Lindley 1952)."""
    q = np.empty(len(arrivals))
    backlog = 0.0
    for t in range(len(arrivals)):
        backlog = max(backlog - service[t], 0.0) + arrivals[t]
        q[t] = backlog
    return q


def queues(cfg, arrivals, service_h, service_l):
    """Run both queues over a few slots with every slot decoded."""
    ones = np.ones(len(arrivals), dtype=np.int8)
    return run_queues(
        cfg, np.asarray(arrivals, float), np.asarray(service_h, float),
        np.asarray(service_l, float), ones, ones, SlotBuffers(len(arrivals)),
    )


class TestStep:
    def test_direct_formula(self, cfg):
        # backlog 10 after slot 0; slot 1 serves 5 and admits 2 -> 7
        trace = queues(cfg.with_(alpha=1.0), [10.0, 2.0], [0.0, 5.0], [0.0, 0.0])
        assert trace.q_h[1] == 7.0

    def test_positive_part_clamp(self, cfg):
        # service 5 exceeds the backlog 3: the queue empties, never negative
        trace = queues(cfg.with_(alpha=1.0), [3.0, 0.0], [0.0, 5.0], [0.0, 0.0])
        assert trace.q_h[1] == 0.0

    def test_no_service_grows_by_arrivals(self, cfg):
        trace = queues(cfg.with_(alpha=0.25), [16.0, 8.0], [0.0, 0.0], [0.0, 0.0])
        assert list(trace.q_h) == [4.0, 4.0 + 0.25 * 8.0]
        assert list(trace.q_l) == [12.0, 12.0 + 0.75 * 8.0]


class TestLindley:
    amounts = hnp.arrays(
        np.float64, st.integers(1, 300), elements=st.floats(0.0, 2000.0)
    )

    @given(data=st.data())
    def test_matches_loop(self, data):
        arrivals = data.draw(self.amounts)
        service = data.draw(hnp.arrays(
            np.float64, len(arrivals), elements=st.floats(0.0, 2000.0)
        ))
        got = _lindley(service, arrivals)
        # cumsum rounds its partial sums in another order than the loop, so
        # the two agree to a few ulps of the running total.
        tol = 8 * len(arrivals) * np.finfo(float).eps * (
            1.0 + np.sum(arrivals) + np.sum(service)
        )
        assert np.all(np.abs(got - loop_recursion(service, arrivals)) <= tol)
        assert np.all(got >= 0.0)

    @given(amounts=amounts)
    def test_zero_service_accumulates(self, amounts):
        # without service both forms add the same arrivals in the same order
        zero = np.zeros_like(amounts)
        assert np.array_equal(_lindley(zero, amounts), loop_recursion(zero, amounts))

    @given(amounts=amounts)
    def test_zero_arrivals_stay_empty(self, amounts):
        assert np.all(_lindley(amounts, np.zeros_like(amounts)) == 0.0)


class TestSimulate:
    def test_zero_arrivals_all_zero(self, cfg, budget):
        res = sca_solve(cfg, budget)
        idle = cfg.with_(A_bar=0.0)
        trace = simulate(idle, budget, res, draw_slots(idle, SlotBuffers(500), seed=0))
        assert np.all(trace.q_h == 0.0)
        assert np.all(trace.q_l == 0.0)

    def test_seed_determinism(self, cfg, budget):
        # each trace in its own workspace, so they cannot be the same arrays
        res = sca_solve(cfg, budget)
        a = simulate(cfg, budget, res, draw_slots(cfg, SlotBuffers(2000), seed=123))
        b = simulate(cfg, budget, res, draw_slots(cfg, SlotBuffers(2000), seed=123))
        assert not np.shares_memory(a.q_h, b.q_h)
        assert np.array_equal(a.q_h, b.q_h)
        assert np.array_equal(a.q_l, b.q_l)
        assert np.array_equal(a.arrivals, b.arrivals)

    @pytest.mark.parametrize("entry", ["simulate", "simulate_time_sharing"])
    def test_no_slots_rejected(self, cfg, budget, entry):
        if entry == "simulate":
            run = partial(simulate, cfg, budget, sca_solve(cfg, budget))
        else:
            run = partial(simulate_time_sharing, cfg, budget, time_sharing_point(cfg, cfg.alpha))
        for n_slots in (0, -1):
            with pytest.raises(ValueError, match="n_slots must be >= 1"):
                run(draw_slots(cfg, SlotBuffers(n_slots), seed=0))

    def test_all_lc_point_decodes_hc_every_slot(self, cfg):
        # at alpha = 0 the solve leaves HC silent with R_h = 0, a rate every
        # slot meets, so LC never waits on an HC outage
        c = cfg.with_(alpha=0.0)
        b = derive_link_budget(c)
        res = sca_solve(c, b)
        assert (res.p.p_h_d, res.p.p_h_r, res.R.R_h) == (0.0, 0.0, 0.0)
        trace = simulate(c, b, res, draw_slots(c, SlotBuffers(2000), seed=3))
        assert np.all(trace.xi_h == 1)
        assert 0 < np.mean(trace.xi_l) < 1

    def test_queues_never_negative(self, cfg, budget):
        res = sca_solve(cfg, budget)
        trace = simulate(cfg, budget, res, draw_slots(cfg, SlotBuffers(5000), seed=5))
        assert np.min(trace.q_h) >= 0.0
        assert np.min(trace.q_l) >= 0.0

    def test_bounded_under_reliable_service(self, budget):
        # No blockage, negligible misalignment, service above arrivals:
        # the queue mean does not grow between the two trace halves.
        cfg = SystemConfig(q_d=0.0, q_r=0.0, sigma_md=1e-4, sigma_mr=1e-4)
        b = derive_link_budget(cfg)
        res = sca_solve(cfg, b)
        assert res.objective > 0  # stabilizable operating point
        trace = simulate(cfg, b, res, draw_slots(cfg, SlotBuffers(10000), seed=9))
        assert np.all(trace.xi_h == 1)
        first = np.mean(trace.q_h[:5000])
        second = np.mean(trace.q_h[5000:])
        assert second < first + 0.05 * cfg.A_bar

    def test_waiting_time_small_under_fast_service(self, budget):
        # Deterministic service far above the arrival rate: packets wait
        # less than ~1 slot (single-slot residual).
        cfg = SystemConfig(q_d=0.0, q_r=0.0, sigma_md=1e-4, sigma_mr=1e-4,
                           A_bar=100.0)
        b = derive_link_budget(cfg)
        res = sca_solve(cfg.with_(A_bar=0.0), b)
        trace = simulate(cfg, b, res, draw_slots(cfg, SlotBuffers(20000), seed=2))
        assert trace.tau_h <= 1.5
        assert trace.tau_l <= 1.5

    def test_decode_rate_matches_standalone_oracle(self, cfg, budget):
        # Empirical HC success rate over 1e5 slots vs an independent
        # vectorized Monte-Carlo evaluation of the decode rule (1e6 draws).
        res = sca_solve(cfg, budget)
        trace = simulate(cfg, budget, res, draw_slots(cfg, SlotBuffers(100_000), seed=77))

        rng = np.random.default_rng(123456)
        n = 1_000_000
        beta_d = rng.random(n) >= cfg.q_d
        beta_r = rng.random(n) >= cfg.q_r
        eps_d = rng.rayleigh(cfg.sigma_md, n)
        eps_r = rng.rayleigh(cfg.sigma_mr, n)
        h2 = beta_d * budget.eta_d**2 * budget.A_d * np.exp(
            -2 * eps_d**2 / budget.w_eq_d**2
        )
        g2 = beta_r * budget.eta_r**2 * budget.A_RIS * budget.A_r * np.exp(
            -2 * eps_r**2 / budget.w_eq_r**2
        )
        gam = (h2 * res.p.p_h_d + g2 * res.p.p_h_r) / (
            h2 * res.p.p_l_d + g2 * res.p.p_l_r + budget.sigma_n2
        )
        p_hat = np.mean(cfg.B * np.log2(1 + gam) >= res.R.R_h)
        observed = float(np.mean(trace.xi_h))
        tol = 4 * math.sqrt(p_hat * (1 - p_hat) / 100_000)
        assert abs(observed - p_hat) < tol


TRACE_ARRAYS = ("arrivals", "q_h", "q_l", "xi_h", "xi_l")
SUMMARY = ("mean_q_h", "mean_q_l", "tau_h", "tau_l", "peak_q_h_norm", "peak_q_l_norm",
           "outage_rate_h", "outage_rate_l")


def servers(cfg, budget):
    """The two public simulations at the default operating points, each
    serving the draw its workspace holds."""
    return {
        "simulate": partial(simulate, cfg, budget, sca_solve(cfg, budget)),
        "simulate_time_sharing": partial(simulate_time_sharing, cfg, budget,
                                         time_sharing_point(cfg, cfg.alpha)),
    }


def entries(cfg, budget):
    """The two public simulations as ``run(buffers, seed)``: draw the
    slots of ``seed`` into ``buffers``, then serve them."""
    return {name: lambda buffers, seed, serve=serve: serve(draw_slots(cfg, buffers, seed))
            for name, serve in servers(cfg, budget).items()}


class TestSlotBuffers:
    def test_one_workspace_per_thread_and_length(self):
        a = thread_buffers(1500)
        assert thread_buffers(1500) is a
        b = thread_buffers(1700)
        assert b is not a and len(b.q_h) == 1700
        assert thread_buffers(1500) is not a  # made again for the new length
        other = []
        worker = threading.Thread(target=lambda: other.append(thread_buffers(1500)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert other[0] is not thread_buffers(1500)

    @pytest.mark.parametrize("entry", ["simulate", "simulate_time_sharing"])
    def test_workspace_trace_equals_fresh_trace(self, cfg, budget, entry):
        run = entries(cfg, budget)[entry]
        work = SlotBuffers(3000)
        for seed in (4, 5):  # the second run overwrites the first in place
            got, want = run(work, seed), run(SlotBuffers(3000), seed)
            for name in TRACE_ARRAYS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert np.shares_memory(getattr(got, name), getattr(work, name)), name
            assert [getattr(got, k) for k in SUMMARY] == [getattr(want, k) for k in SUMMARY]

    @pytest.mark.parametrize("entry", ["simulate", "simulate_time_sharing"])
    def test_public_trace_owns_its_arrays(self, cfg, budget, entry):
        # a trace keeps its workspace's arrays through simulations elsewhere
        runs = entries(cfg, budget)
        trace = runs[entry](SlotBuffers(2000), seed=1)
        kept = {name: getattr(trace, name).copy() for name in TRACE_ARRAYS}
        for run in runs.values():
            others = [run(SlotBuffers(2000), seed=2), run(SlotBuffers(3000), seed=3),
                      run(thread_buffers(2000), seed=4)]
            for other in others:
                for a in TRACE_ARRAYS:
                    for b in TRACE_ARRAYS:
                        assert not np.shares_memory(getattr(trace, a), getattr(other, b))
        delay_sweep(cfg, [0.4], "mcsc", n_slots=2000, n_reps=2)
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(trace, name), kept[name]), name

    def test_stages_return_workspace_arrays(self, cfg, budget):
        p = sca_solve(cfg, budget)
        work = SlotBuffers(500)
        rng = np.random.default_rng(6)
        assert sample_arrivals(cfg, rng, work) is work.arrivals
        slots = sample_channel_slots(cfg, rng, work)
        names = ("beta_d", "beta_r", "eps_d", "eps_r")
        assert all(x is getattr(work, name) for x, name in zip(slots, names))
        xi = decode_slots(cfg, budget, p.p, p.p, p.R, *slots, buf=work)
        assert xi[0] is work.xi_h and xi[1] is work.xi_l
        assert {x.dtype for x in (*slots[:2], *xi)} == {np.dtype(np.int8)}

    def test_decode_and_gains_leave_inputs_unchanged(self, cfg, budget):
        p = sca_solve(cfg, budget)
        work = SlotBuffers(1000)
        # the pipeline's own layout: the slots sit in the workspace they decode in
        slots = sample_channel_slots(cfg, np.random.default_rng(8), work)
        kept = [x.copy() for x in slots]
        want = decode_slots(cfg, budget, p.p, p.p, p.R, *kept, buf=SlotBuffers(1000))
        got = decode_slots(cfg, budget, p.p, p.p, p.R, *slots, buf=work)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        gains = channel_gains(budget, *slots, out=(work.h2, work.g2, work.work_a))
        assert all(np.array_equal(a, b) for a, b in zip(gains, channel_gains(budget, *kept)))
        for before, after in zip(kept, slots):
            assert np.array_equal(before, after)


class TestDraw:
    DRAW_ARRAYS = ("arrivals", "beta_d", "beta_r", "eps_d", "eps_r")

    @pytest.mark.parametrize("entry", ["simulate", "simulate_time_sharing"])
    def test_serving_leaves_the_draw_unchanged(self, cfg, budget, entry):
        # every scheme of a delay-sweep point serves the one draw
        work = draw_slots(cfg, SlotBuffers(2000), seed=6)
        kept = {name: getattr(work, name).copy() for name in self.DRAW_ARRAYS}
        servers(cfg, budget)[entry](work)
        for name in self.DRAW_ARRAYS:
            assert getattr(work, name).tobytes() == kept[name].tobytes(), name

    @pytest.mark.parametrize("entry", ["simulate", "simulate_time_sharing"])
    def test_serving_without_a_draw_rejected(self, cfg, budget, entry):
        serve = servers(cfg, budget)[entry]
        with pytest.raises(ValueError, match="draw_slots"):
            serve(SlotBuffers(500))  # np.empty arrays, never drawn
        work = draw_slots(cfg.with_(q_d=0.1), SlotBuffers(500), seed=1)
        with pytest.raises(ValueError, match="draw_slots"):
            serve(work)

    @pytest.mark.parametrize("entry", ["simulate", "simulate_time_sharing"])
    def test_draw_serves_another_alpha(self, cfg, budget, entry):
        # alpha splits the arrivals only when the queues run
        other = cfg.with_(alpha=0.3)
        serve = servers(other, budget)[entry]
        got = serve(draw_slots(cfg, SlotBuffers(2000), seed=8))
        want = serve(draw_slots(other, SlotBuffers(2000), seed=8))
        for name in TRACE_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert [getattr(got, k) for k in SUMMARY] == [getattr(want, k) for k in SUMMARY]


class TestStabilityDiagnostic:
    def test_stable_at_feasible_point(self, cfg, budget):
        res = sca_solve(cfg, budget)
        assert min(res.delta) > 0
        trace = simulate(cfg, budget, res, draw_slots(cfg, SlotBuffers(10000), seed=4))
        verdict = stability_diagnostic(trace)
        assert verdict == {"hc": True, "lc": True}

    def test_unstable_above_capacity(self, cfg, budget):
        hot = cfg.with_(A_bar=3000.0)  # far above the feasible rate
        res = sca_solve(hot, budget)
        assert res.objective < 0
        trace = simulate(hot, budget, res, draw_slots(hot, SlotBuffers(10000), seed=4))
        verdict = stability_diagnostic(trace)
        assert not (verdict["hc"] and verdict["lc"])

    def test_zero_arrivals_stable(self, cfg, budget):
        res = sca_solve(cfg, budget)
        idle = cfg.with_(A_bar=0.0)
        trace = simulate(idle, budget, res, draw_slots(idle, SlotBuffers(1000), seed=0))
        assert stability_diagnostic(trace) == {"hc": True, "lc": True}

    def test_short_trace_rejected(self, cfg, budget):
        res = sca_solve(cfg, budget)
        trace = simulate(cfg, budget, res, draw_slots(cfg, SlotBuffers(50), seed=0))
        with pytest.raises(InsufficientDataError):
            stability_diagnostic(trace)
