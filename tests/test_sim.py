import math

import numpy as np
import pytest

from rborch.near_rt import ServiceSpec
from rborch.rt import ConfigError
from rborch.sim import (
    CCDF_GRID,
    AnomalyConfig,
    ScenarioConfig,
    ccdf,
    controller_for,
    measure_fifo_delays,
    qldr_allocate,
    run,
)
from rborch.traces import ArrivalTrace, SyntheticModel


def svc(sid, w_th, eps, arrival, channel):
    return ServiceSpec(sid, w_th, eps, arrival, channel)


def mk(kind, *args):
    if kind == "constant":
        return SyntheticModel("constant", (args[0],))
    if kind == "uniform":
        return SyntheticModel("uniform-integer", (args[0], args[1]))
    return SyntheticModel(kind, args[0], args[1])


def small_config(**kw):
    services = kw.pop(
        "services",
        [
            svc(0, 5.0, 1e-3, mk("two-point", (0, 200), (0.5, 0.5)), mk("constant", 25)),
            svc(1, 10.0, 1e-3, mk("constant", 100), mk("constant", 25)),
            svc(2, 15.0, 1e-2, mk("uniform", 0, 160), mk("two-point", (20, 30), (0.5, 0.5))),
        ],
    )
    defaults = dict(
        n_cell=30, horizon=4000, services=services, t_obs=2000, t_out=1000,
        seed=3, check_invariants=True,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestControllerFor:
    def test_known_kinds(self):
        assert controller_for("marea").mitigates
        assert not controller_for("ref4").mitigates and controller_for("ref4").shares
        assert not controller_for("ref3").shares and controller_for("ref3").guarantee == "model"
        assert controller_for("ref2").guarantee == "qldr"
        assert controller_for("ref1").guarantee != "model"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            controller_for("ref9")


class TestQldr:
    def test_equal_scores(self):
        assert qldr_allocate([10, 10, 10], [2, 2, 2], [5, 5, 5], 99) == [33, 33, 33]

    def test_proportional(self):
        assert qldr_allocate([20, 10, 10], [2, 2, 2], [5, 5, 5], 100) == [50, 25, 25]

    def test_all_zero_scores(self):
        assert qldr_allocate([0, 0, 0], [2, 2, 2], [5, 5, 5], 99) == [33, 33, 33]

    def test_largest_remainder_total(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(1, 6))
            q = rng.uniform(0, 50, m)
            c = rng.uniform(1, 10, m)
            t = rng.uniform(1, 20, m)
            n = int(rng.integers(m, 60))
            out = qldr_allocate(q, c, t, n)
            assert sum(out) == n and all(v >= 0 for v in out)


class TestCcdf:
    def test_half_budget_delays(self):
        curve = dict(ccdf([2.5] * 10, 5.0))
        for x in CCDF_GRID:
            assert curve[x] == (1.0 if x < -0.5 else 0.0)

    def test_minus_one_is_one_for_positive_delays(self):
        curve = dict(ccdf([0.1, 4.0, 9.0], 5.0))
        assert curve[-1.0] == 1.0

    def test_violation_prob_at_zero(self):
        curve = dict(ccdf([2.5, 7.5], 5.0))
        assert curve[0.0] == 0.5

    def test_non_increasing(self):
        rng = np.random.default_rng(1)
        vals = rng.exponential(5.0, 500)
        curve = ccdf(vals, 5.0)
        for (_, a), (_, b) in zip(curve, curve[1:]):
            assert b <= a + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([], 5.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ccdf([1.0, math.nan], 5.0)

    def test_matches_mask_formula(self):
        # binary fractions of the budget: (d - w) / w lands exactly on a grid point
        at_grid = [1.0 + x for x in CCDF_GRID if (4 * x).is_integer()]
        assert all(d - 1.0 in CCDF_GRID for d in at_grid)
        rng = np.random.default_rng(4)
        cases = [
            (at_grid, 1.0),
            (at_grid * 3 + [2.0] * 5, 1.0),  # ties, on and off the grid
            ([0.7], 1.0),  # one sample
            ([1.0], 1.0),  # one sample at x = 0
            ([math.inf, 3.0, 3.0], 3.0),  # a pending violation scored as inf
            (rng.choice([1.0, 2.5, 4.0, 11.0], 301).tolist() + rng.exponential(4.0, 400).tolist(), 4.0),
        ]
        for delays, w in cases:
            rel = (np.asarray(delays, dtype=np.float64) - w) / w
            assert ccdf(delays, w) == [(x, float(np.mean(rel > x))) for x in CCDF_GRID]


class TestRunBasics:
    def test_zero_traffic(self):
        cfg = small_config(
            services=[
                svc(0, 5.0, 1e-3, mk("constant", 0), mk("constant", 25)),
                svc(1, 10.0, 1e-3, mk("constant", 0), mk("constant", 25)),
            ]
        )
        m = run(cfg)
        for s in m.services:
            assert s.packets == 0 and s.violation_prob == 0.0
        assert m.rb_utilization == 0.0

    def test_capacity_dominates_one_slot_delays(self):
        cfg = small_config(
            services=[svc(0, 5.0, 1e-3, mk("constant", 100), mk("constant", 25))],
            n_cell=4,
        )
        m = run(cfg)
        s = m.services[0]
        assert s.completed == cfg.horizon - cfg.t_obs
        assert np.all(s.delays_ms == 1.0)
        assert s.violation_prob == 0.0

    def test_deterministic_metrics(self):
        cfg = small_config()
        a, b = run(cfg), run(small_config())
        for sa, sb in zip(a.services, b.services):
            assert np.array_equal(sa.delays_ms, sb.delays_ms)
            assert sa.violation_prob == sb.violation_prob
        assert a.alloc_rows == b.alloc_rows

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            small_config(horizon=100).validate()
        with pytest.raises(ValueError):
            small_config(n_cell=2).validate()
        with pytest.raises(ValueError):
            small_config(controller="nope").validate()
        cfg = small_config()
        cfg.services[0] = svc(0, 0.5, 1e-3, mk("constant", 0), mk("constant", 25))
        with pytest.raises(ValueError):
            cfg.validate()

    def test_budget_off_slot_grid_rejected(self):
        for kind in ("marea", "ref2"):
            cfg = small_config(controller=kind, t_slot_ms=0.1)
            cfg.services[0] = svc(0, 0.75, 1e-3, mk("constant", 0), mk("constant", 25))
            with pytest.raises(ConfigError):
                cfg.validate()
            cfg.services[0] = svc(0, 0.7, 1e-3, mk("constant", 0), mk("constant", 25))
            cfg.validate()

    def test_all_controllers_run_clean(self):
        for kind in ("marea", "ref1", "ref2", "ref3", "ref4"):
            cfg = small_config(controller=kind, horizon=3500)
            m = run(cfg)
            assert len(m.services) == 3  # invariant checks were on throughout

    def test_anomaly_applies(self):
        an = AnomalyConfig(0, 2500, 3000, 4.0)
        cfg = small_config(anomaly=an)
        base = run(small_config())
        bumped = run(cfg)
        assert bumped.services[0].packets >= base.services[0].packets

    def test_debug_log_rows(self):
        cfg = small_config(horizon=3100, debug_log=True)
        m = run(cfg)
        assert len(m.debug_rows) == 3 * cfg.horizon
        tti, sid, state, n_req, n_min_i, rbs_used, queue_bits, head_wait = m.debug_rows[0]
        assert state in "ABC" and rbs_used >= 0


class TestControllerRelations:
    def test_ref3_equals_marea_single_service(self):
        services = [svc(0, 8.0, 1e-3, mk("two-point", (0, 300), (0.6, 0.4)), mk("constant", 25))]
        a = run(small_config(services=list(services), controller="marea", n_cell=10))
        b = run(small_config(services=list(services), controller="ref3", n_cell=10))
        assert np.array_equal(a.services[0].delays_ms, b.services[0].delays_ms)

    def test_ref4_equals_marea_when_uncongested(self):
        a = run(small_config(controller="marea"))
        b = run(small_config(controller="ref4"))
        for sa, sb in zip(a.services, b.services):
            assert np.array_equal(sa.delays_ms, sb.delays_ms)

    def test_ref1_uses_whole_cell(self):
        cfg = small_config(
            controller="ref1",
            services=[
                svc(0, 5.0, 1e-3, mk("constant", 500), mk("constant", 25)),
                svc(1, 10.0, 1e-3, mk("constant", 200), mk("constant", 25)),
            ],
            n_cell=20,
        )
        m = run(cfg)  # demand 700 bits vs 500 capacity: saturated, EDF shares all
        assert m.rb_utilization > 0.99


class TestFifoFastPath:
    def test_matches_full_sim_single_service(self):
        from rborch.traces import sample_many

        arrival = mk("two-point", (0, 220), (0.5, 0.5))
        channel = mk("uniform", 20, 30)
        n_cell = 8
        cfg = small_config(
            services=[svc(0, 10.0, 1e-3, arrival, channel)],
            n_cell=n_cell,
            horizon=6000,
            t_obs=2000,
        )
        m = run(cfg)
        rng_a = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 0, 0]))
        rng_c = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1, 0, 0]))
        arr = sample_many(arrival, rng_a, cfg.horizon)
        rates = sample_many(channel, rng_c, cfg.horizon)
        delays, pending = measure_fifo_delays(arr, n_cell * rates, cfg.t_slot_ms)
        t_arr = np.nonzero(arr > 0)[0]
        mask = t_arr >= cfg.t_obs
        assert np.array_equal(np.sort(m.services[0].delays_ms), np.sort(delays[mask[: len(delays)]]))

    def test_lindley_identity_small(self):
        arr = np.array([100, 0, 300, 0, 0, 50])
        svc_bits = np.full(6, 100)
        delays, pending = measure_fifo_delays(arr, svc_bits)
        # manual trace: packet@0 done in tti0 (delay 1); packet@2 of 300 bits
        # needs ttis 2,3,4 (delay 3); packet@5 done in tti5 (delay 1)
        assert delays.tolist() == [1.0, 3.0, 1.0]
        assert pending.size == 0

    def test_pending_detection(self):
        arr = np.array([0, 1000, 0])
        svc_bits = np.full(3, 100)
        delays, pending = measure_fifo_delays(arr, svc_bits)
        assert delays.size == 0 and pending.tolist() == [1]


class TestMetricsShape:
    def congested(self, controller="ref3"):
        return small_config(
            services=[
                svc(0, 3.0, 1e-3, mk("two-point", (0, 400), (0.5, 0.5)), mk("constant", 25)),
                svc(1, 5.0, 1e-3, mk("uniform", 0, 300), mk("constant", 25)),
            ],
            n_cell=14,
            controller=controller,
            horizon=4000,
            t_obs=2000,
        )

    def test_ccdf_at_zero_equals_violation_prob(self):
        m = run(self.congested())
        saw_violations = False
        for s in m.services:
            if not s.packets:
                continue
            curve = dict(s.ccdf)
            assert curve[0.0] == pytest.approx(s.violation_prob, abs=1e-12)
            saw_violations = saw_violations or s.violation_prob > 0
        assert saw_violations  # scenario must actually stress the queues

    def test_gmm_estimator_path(self):
        cfg = self.congested(controller="marea")
        cfg.estimator = "gmm"
        cfg.gmm_components = 2
        a = run(cfg)
        cfg2 = self.congested(controller="marea")
        cfg2.estimator = "gmm"
        cfg2.gmm_components = 2
        b = run(cfg2)
        assert len(a.alloc_rows) > 0
        assert a.alloc_rows == b.alloc_rows  # EM seeding keeps decisions reproducible


class TestTraceDrivenRun:
    def test_trace_sources(self):
        tr = ArrivalTrace(0, np.array([100, 0, 200, 0]), ((rv := (60, 40)), (), (200,), ()))
        cfg = small_config(
            services=[svc(0, 5.0, 1e-3, tr, mk("constant", 25))],
            n_cell=12,
            horizon=3100,
            t_obs=2000,
        )
        m = run(cfg)
        assert m.services[0].completed > 0
        assert m.services[0].violation_prob == 0.0
