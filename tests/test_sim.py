import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rborch import rt, sim
from rborch.near_rt import ServiceSpec
from rborch.rt import STATE_A, STATE_C, ConfigError, FsmRecord, RtThresholds, fsm_step
from rborch.sim import (
    CCDF_GRID,
    AnomalyConfig,
    ScenarioConfig,
    _gen_service_streams,
    ccdf,
    controller_for,
    measure_fifo_delays,
    qldr_allocate,
    run,
)
from rborch.traces import ArrivalTrace, ChannelTrace, SyntheticModel


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
            small_config(horizon=100)
        with pytest.raises(ValueError):
            small_config(n_cell=2)
        with pytest.raises(ValueError):
            small_config(controller="nope")
        cfg = small_config()
        with pytest.raises(ValueError):
            dataclasses.replace(
                cfg, services=(svc(0, 0.5, 1e-3, mk("constant", 0), mk("constant", 25)), *cfg.services[1:])
            )

    def test_offered_bits_bound(self):
        # n_cell x largest bits per RB x horizon bounds every queue's offered
        # bits; at 2^62 a guaranteed stretch of the warm-up would wrap in int64
        cfg = small_config(n_cell=4)
        top = (2**62 - 1) // (cfg.n_cell * cfg.horizon)
        for channel in (mk("constant", top), ChannelTrace(0, [25, top])):
            dataclasses.replace(cfg, services=(svc(0, 5.0, 1e-3, mk("constant", 100), channel),))
        for channel in (mk("two-point", (1, top + 1), (0.5, 0.5)), ChannelTrace(0, [25, top + 1])):
            with pytest.raises(ValueError) as err:
                dataclasses.replace(cfg, services=(svc(0, 5.0, 1e-3, mk("constant", 100), channel),))
            assert err.value.args[0] == "service 0: n_cell x largest bits per RB x horizon must be below 2^62"

    def test_budget_off_slot_grid_rejected(self):
        for kind in ("marea", "ref2"):
            cfg = small_config(controller=kind, t_slot_ms=0.1)
            rest = cfg.services[1:]
            with pytest.raises(ConfigError):
                dataclasses.replace(cfg, services=(svc(0, 0.75, 1e-3, mk("constant", 0), mk("constant", 25)), *rest))
            dataclasses.replace(cfg, services=(svc(0, 0.7, 1e-3, mk("constant", 0), mk("constant", 25)), *rest))

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



def window_figures(w):
    """Everything a decision reads from one service's window."""
    return (w.arrivals.samples.tolist(), w.per_rb.bits.tolist(), w.per_rb.rbs.tolist(), w.extra_rb_usage.tolist())


class TestDecisionWindows:
    def test_any_order_reads_the_same_windows(self, monkeypatch):
        # each window spans four decision periods, as in criterion 8, so
        # consecutive windows share most of their packets
        cfg = small_config(horizon=2400, t_obs=400, t_out=100)
        queues, seen = [], []

        def make_queue(*columns):
            queues.append(rt.PacketQueue(*columns))
            return queues[-1]

        def allocate(specs, windows, *args):
            seen.append([window_figures(w) for w in windows])
            return real_allocate(specs, windows, *args)

        real_allocate = sim.allocate
        monkeypatch.setattr(sim, "PacketQueue", make_queue)
        monkeypatch.setattr(sim, "allocate", allocate)
        metrics = run(cfg)
        n_min = [row[2] for row in metrics.alloc_rows]
        m_count = len(queues)
        bases = [[cfg.n_cell // m_count] * m_count] + [n_min[k : k + m_count] for k in range(0, len(n_min), m_count)]
        decisions = range(cfg.t_obs, cfg.horizon, cfg.t_out)
        assert len(seen) == len(decisions) > 4

        def value(v):
            return np.asarray(v).tolist() if isinstance(v, memoryview) else v

        def state():
            return [{slot: value(getattr(q, slot)) for slot in rt.PacketQueue.__slots__} for q in queues]

        def windows(k):
            t = decisions[k]
            return [
                window_figures(sim._service_window(q, t - cfg.t_obs, t - cfg.t_out, t, bases[k][m]))
                for m, q in enumerate(queues)
            ]

        before = state()
        forward = [windows(k) for k in range(len(decisions))]
        backward = [windows(k) for k in reversed(range(len(decisions)))][::-1]
        assert forward == backward == seen
        assert state() == before


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


def fifo_loop(arr, svc, t_slot_ms):
    """One FIFO queue stepped TTI by TTI: a packet of arr[t] bits arrives at
    the start of TTI t when arr[t] > 0, and TTI t sends up to svc[t] bits from
    the head packet on.  Returns (delays in ms, arrival TTIs still queued)."""
    queue, delays = [], []
    for t, (a, s) in enumerate(zip(arr, svc)):
        if a:
            queue.append([t, int(a)])
        budget = int(s)
        while queue and budget:
            head = queue[0]
            bits = min(budget, head[1])
            head[1] -= bits
            budget -= bits
            if not head[1]:
                delays.append((t - head[0] + 1) * t_slot_ms)
                queue.pop(0)
    return delays, [t for t, _ in queue]


def fifo_streams():
    """(arrival bits, service bits) per TTI: small and large packets, idle
    stretches and TTIs without service, so packets stay queued over many
    blocks, complete long after they arrived and whole blocks are zero."""
    return st.integers(0, 120).flatmap(
        lambda n: st.tuples(
            st.lists(st.one_of(st.just(0), st.integers(1, 40), st.integers(200, 2000)), min_size=n, max_size=n),
            st.lists(st.one_of(st.just(0), st.integers(1, 60)), min_size=n, max_size=n),
        )
    )


class TestBlockedFifo:
    """measure_fifo_delays walks its stream in blocks of sim._FIFO_BLOCK TTIs;
    the result must not depend on the block length."""

    @given(
        stream=fifo_streams(),
        block=st.sampled_from([1, 2, 3, 64]),
        dtype=st.sampled_from([np.int64, np.int32]),
        t_slot_ms=st.sampled_from([1.0, 0.125]),
    )
    def test_matches_per_tti_loop(self, stream, block, dtype, t_slot_ms):
        arr, svc = (np.asarray(x, dtype=dtype) for x in stream)
        with mock.patch.object(sim, "_FIFO_BLOCK", block):
            delays, pending = measure_fifo_delays(arr, svc, t_slot_ms)
        want_delays, want_pending = fifo_loop(stream[0], stream[1], t_slot_ms)
        assert delays.dtype == np.float64 and delays.tolist() == want_delays
        assert pending.dtype == np.intp and pending.tolist() == want_pending

    @given(stream=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40), block=st.sampled_from([1, 2, 3, 64]))
    def test_bool_streams(self, stream, block):
        arr = np.array([a for a, _ in stream], dtype=bool)
        svc = np.array([s for _, s in stream], dtype=bool)
        with mock.patch.object(sim, "_FIFO_BLOCK", block):
            delays, pending = measure_fifo_delays(arr, svc)
        assert (delays.tolist(), pending.tolist()) == fifo_loop(arr.tolist(), svc.tolist(), 1.0)

    def test_packet_completing_many_blocks_later(self, monkeypatch):
        monkeypatch.setattr(sim, "_FIFO_BLOCK", 2)
        arr = np.array([50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0, 7])
        # 50 bits at 5 per TTI end in TTI 9, five blocks on; the last packet is left queued
        delays, pending = measure_fifo_delays(arr, np.full(15, 5), 0.125)
        assert delays.tolist() == [1.25, 0.125, 0.125] and pending.tolist() == [14]

    def test_empty_stream(self):
        delays, pending = measure_fifo_delays(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert delays.shape == pending.shape == (0,)
        assert delays.dtype == np.float64 and pending.dtype == np.intp

    @pytest.mark.parametrize(
        "arr, svc",
        [
            (np.ones((2, 3), np.int64), np.ones((2, 3), np.int64)),
            (np.int64(5), np.int64(5)),
            (np.ones(3, np.int64), np.ones(4, np.int64)),
            (np.array([5, 1, 3, 0, -1]), np.full(5, 10)),
            (np.array([5, 1, 3, 0, 1]), np.array([10, 10, 10, 10, -10])),
        ],
        ids=["2d", "scalar", "lengths", "negative-arrival", "negative-service"],
    )
    def test_awkward_inputs_rejected(self, arr, svc, monkeypatch):
        # the negative bits sit inside the second block, not at its start
        monkeypatch.setattr(sim, "_FIFO_BLOCK", 3)
        with pytest.raises(ValueError):
            measure_fifo_delays(arr, svc)

    def test_huge_service_tti_in_a_varying_block(self):
        # three full blocks of 90 or 110 bits per TTI; the second also offers
        # 2^47 bits in one TTI, just after a packet of 2^46 + 5 bits, so its
        # len x max reaches 2^62 while the exact total stays far below
        block = sim._FIFO_BLOCK
        rng = np.random.default_rng(7)
        arr = rng.choice([0, 200], 3 * block)
        svc = rng.choice([90, 110], 3 * block)
        arr[block + 500], svc[block + 1000] = 2**46 + 5, 2**47
        delays, pending = measure_fifo_delays(arr, svc)
        want_delays, want_pending = fifo_loop(arr.tolist(), svc.tolist(), 1.0)
        assert delays.tolist() == want_delays and pending.tolist() == want_pending
        assert max(want_delays) > 500  # the huge packet waited for the huge TTI

    def test_service_total_reaching_2_62_in_the_third_block(self):
        # 2^61, 2^60 and 2^60 bits in one TTI of each block, 1 bit in every
        # other TTI: the exact total first reaches 2^62 in the third block
        block = sim._FIFO_BLOCK
        svc = np.ones(3 * block, dtype=np.int64)
        svc[[5, block + 5, 2 * block + 5]] = [2**61, 2**60, 2**60]
        arr = np.zeros(3 * block, dtype=np.int64)
        arr[::7] = 3
        with pytest.raises(ValueError, match=f"less than 2\\^62, not so by TTI {3 * block}$"):
            measure_fifo_delays(arr, svc)
        svc[2 * block + 5] -= 3 * block - 2  # one bit short of 2^62 in all
        assert svc.sum(dtype=object) == 2**62 - 1
        delays, pending = measure_fifo_delays(arr, svc)
        assert (delays.tolist(), pending.tolist()) == fifo_loop(arr.tolist(), svc.tolist(), 1.0)

    def test_run_scoring_does_not_depend_on_block(self, monkeypatch):
        cfg = small_config(
            services=[
                svc(0, 3.0, 1e-3, mk("two-point", (0, 400), (0.4, 0.6)), mk("constant", 25)),
                svc(1, 5.0, 1e-3, mk("uniform", 0, 300), mk("constant", 25)),
            ],
            n_cell=12,
            controller="ref3",
            horizon=4000,
            t_obs=2000,
        )
        want = run(cfg)
        monkeypatch.setattr(sim, "_FIFO_BLOCK", 3)
        got = run(cfg)
        # the overloaded service ends with packets queued past their budget
        assert want.services[0].pending_violations > 0
        for g, w in zip(got.services, want.services):
            assert np.array_equal(g.delays_ms, w.delays_ms)
            g.delays_ms = w.delays_ms = None
            assert repr(g) == repr(w)



def blocked_streams():
    """(block length, arrival bits, service bits) over 3 to 8 blocks of that
    length, the last one maybe short.  The capacity is one value in every
    TTI, or one value per block (zero included) changing between blocks, or,
    now and then, varying inside a block; packets of up to 2000 bits are
    carried over several blocks."""

    def streams(block, n_blocks, per_block):
        n = st.integers((n_blocks - 1) * block + 1, n_blocks * block)
        return n.flatmap(
            lambda n: st.tuples(
                st.just(block),
                st.lists(st.one_of(st.just(0), st.integers(1, 40), st.integers(200, 2000)), min_size=n, max_size=n),
                per_block.map(lambda caps: np.repeat(caps, block)[:n].tolist()) if per_block is not None
                else st.lists(st.integers(0, 60), min_size=n, max_size=n),
            )
        )

    capacity = st.one_of(st.just(0), st.integers(1, 60))
    return st.tuples(st.integers(1, 6), st.integers(3, 8)).flatmap(
        lambda bn: st.one_of(
            streams(*bn, capacity.map(lambda c: [c] * bn[1])),
            streams(*bn, st.lists(capacity, min_size=bn[1], max_size=bn[1])),
            streams(*bn, None),
        )
    )


class TestConstantCapacityFifo:
    """A block whose every TTI offers the same bits completes its packets in
    closed form; the result must equal the search of the sent bits on the
    same blocks, and the per-TTI loop."""

    @given(stream=blocked_streams(), t_slot_ms=st.sampled_from([1.0, 0.125]))
    # a packet in the first TTI of the second block, carried into the third;
    # then a block of zero capacity between two of 7 bits
    @example(stream=(3, [5, 0, 0, 40, 0, 0, 3, 0, 0], [10] * 9), t_slot_ms=0.125)
    @example(stream=(2, [9, 0, 30, 4, 0, 1, 0], [7, 7, 0, 0, 7, 7, 7]), t_slot_ms=1.0)
    def test_equals_search_path(self, stream, t_slot_ms):
        block, arr, svc = stream
        block_rate = sim._block_rate
        rates = []

        def recorded(s, s_max):
            rates.append(block_rate(s, s_max))
            return rates[-1]

        with mock.patch.object(sim, "_FIFO_BLOCK", block):
            with mock.patch.object(sim, "_block_rate", recorded):
                got = measure_fifo_delays(np.array(arr), np.array(svc), t_slot_ms)
            # rate 0 in every block: one Lindley pass over every TTI and a search of the sent bits
            with mock.patch.object(sim, "_block_rate", lambda s, s_max: 0):
                want = measure_fifo_delays(np.array(arr), np.array(svc), t_slot_ms)
        assert (got[0].tolist(), got[1].tolist()) == (want[0].tolist(), want[1].tolist())
        assert (got[0].tolist(), got[1].tolist()) == fifo_loop(arr, svc, t_slot_ms)
        # the closed form was taken in every block whose TTIs all offer the same positive bits
        offered = [svc[t0 : t0 + block] for t0 in range(0, len(svc), block)]
        assert rates == [b[0] if len(set(b)) == 1 else 0 for b in offered]


def block_streams(arrival, capacity, sizes=st.integers(1, 6)):
    """(block length, arrival bits, service bits) over 2 to 8 blocks: each
    block's TTIs drawn by arrival(length) and capacity(length)."""
    def streams(block):
        one = st.tuples(arrival(block), capacity(block))
        return st.lists(one, min_size=2, max_size=8).map(
            lambda blocks: (block, [b for a, _ in blocks for b in a], [c for _, s in blocks for c in s])
        )

    return sizes.flatmap(streams)


def packets(block):
    return st.lists(st.one_of(st.just(0), st.integers(1, 40), st.integers(200, 2000)), min_size=block, max_size=block)


def constant(block):
    return st.integers(1, 60).map(lambda c: [c] * block)


def varying(block):
    return st.lists(st.integers(0, 60), min_size=block, max_size=block)


class TestLindleyPoints:
    """A block whose every TTI offers the same bits evaluates Lindley's
    recursion only at the TTI before each of its packets and at its last TTI;
    the delays must equal the per-TTI loop's."""

    @staticmethod
    def check(stream, t_slot_ms=1.0):
        block, arr, svc = stream
        with mock.patch.object(sim, "_FIFO_BLOCK", block):
            delays, pending = measure_fifo_delays(np.array(arr), np.array(svc), t_slot_ms)
        assert (delays.tolist(), pending.tolist()) == fifo_loop(arr, svc, t_slot_ms)

    @given(block_streams(lambda b: st.lists(st.integers(1, 400), min_size=b, max_size=b), constant))
    def test_dense(self, stream):
        # a packet in every TTI: as many points as TTIs
        self.check(stream)

    @given(block_streams(lambda b: st.one_of(st.just([0] * b), packets(b)), constant))
    @example((2, [0, 0, 30, 0, 0, 0, 4, 0], [7] * 8))
    def test_blocks_without_packets(self, stream):
        # such a block has its last TTI as its one point
        self.check(stream)

    @given(block_streams(lambda b: st.tuples(st.integers(1, 2000), packets(b - 1)).map(lambda x: [x[0], *x[1]]), constant),
           st.sampled_from([1.0, 0.125]))
    def test_packet_in_first_tti(self, stream, t_slot_ms):
        # the point before it is the block's start, where the bits sent are those sent before the block
        self.check(stream, t_slot_ms)

    @given(block_streams(lambda b: st.one_of(st.just([0] * b), packets(b)),
                         lambda b: st.integers(1, 8).map(lambda c: [c] * b), st.integers(1, 3)))
    # 900 bits at 100 per TTI end in TTI 8, four blocks on, and hold the 5-bit packet back to TTI 9
    @example((2, [900, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 7], [100] * 12))
    def test_carried_over_constant_blocks(self, stream):
        # packets of up to 2000 bits at up to 8 bits per TTI stay queued over many blocks
        self.check(stream)

    @given(block_streams(packets, lambda b: st.one_of(constant(b), varying(b))))
    @example((2, [50, 0, 3, 0, 9, 1], [5, 5, 0, 7, 5, 5]))
    def test_constant_and_varying_blocks(self, stream):
        self.check(stream)


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
        a = run(dataclasses.replace(self.congested(controller="marea"), estimator="gmm", gmm_components=2))
        b = run(dataclasses.replace(self.congested(controller="marea"), estimator="gmm", gmm_components=2))
        assert len(a.alloc_rows) > 0
        assert a.alloc_rows == b.alloc_rows  # EM seeding keeps decisions reproducible


class TestTraceDrivenRun:
    def test_trace_sources(self):
        tr = ArrivalTrace(0, np.array([0, 0, 2]), np.array([60, 40, 200]), 4)
        cfg = small_config(
            services=[svc(0, 5.0, 1e-3, tr, mk("constant", 25))],
            n_cell=12,
            horizon=3100,
            t_obs=2000,
        )
        m = run(cfg)
        assert m.services[0].completed > 0
        assert m.services[0].violation_prob == 0.0


class TestShortBudgetHold:
    """With a budget of at most 3 slots at tau = 0.3, q_lower is 0 and no wait
    falls below it, so a marea record that enters B stays in C while its queue
    is empty and keeps the RBs that mitigation moves to it.  Ending the hold at
    a wait of 0 would bring service 0's violation probability in this scenario
    close to ref4's, so the hold is pinned as the FSM gives it."""

    def test_q_lower_is_zero_up_to_three_slots(self):
        held = FsmRecord(STATE_C, 2)
        for q_t in (2, 3):
            thr = RtThresholds(q_t, 0.75, 0.3)
            assert thr.q_lower == 0
            assert fsm_step(0, held, thr) == held

    def test_marea_keeps_borrowed_rbs_over_an_empty_queue_after_a_burst(self):
        cfg = ScenarioConfig(
            n_cell=30, horizon=20_000, t_slot_ms=1.0, t_obs=2000, t_out=2000, seed=3, controller="marea",
            services=[
                svc(0, 2.0, 1e-3, mk("two-point", (0, 200), (0.5, 0.5)), mk("constant", 25)),
                svc(1, 5.0, 1e-3, mk("uniform", 0, 300), mk("constant", 25)),
                svc(2, 10.0, 1e-2, mk("empirical-table", (0, 150, 600), (0.5, 0.4, 0.1)), mk("constant", 25)),
            ],
            anomaly=AnomalyConfig(0, 8000, 9000, 3.5), debug_log=True,
        )
        m = run(cfg)
        n_min = {(period, sid): n for period, sid, n, *_ in m.alloc_rows}
        after = [row for row in m.debug_rows if row[1] == 0 and row[0] >= 9000]
        assert len(after) == cfg.horizon - 9000
        for tti, _, state, n_req, rt_alloc, _, queue_bits, _ in after:
            assert state == STATE_C and n_req > 0 and queue_bits == 0
            assert rt_alloc > n_min[(tti - cfg.t_obs) // cfg.t_out, 0]


class TestInvariantChecks:
    """`check_invariants` reads the logs of stepped TTIs and of bulk stretches."""

    # warm-up is served in bulk for every controller, ref3's periods too, and
    # the stretches that a 16-RB cell clears from empty queues between the
    # TTIs it must step.  A Lindley stretch is corrupted at `tti` itself; a
    # cleared one in the middle of the first stretch of 3 or more TTIs from
    # `tti` on, so that neither its first nor its last TTI is hit
    @pytest.mark.parametrize(
        "controller, serve, tti",
        [("marea", "serve_guaranteed", 1999), ("ref3", "serve_guaranteed", 2500), ("marea", "serve_cleared", 2100)],
        ids=["marea-1999", "ref3-2500", "marea-cleared-2100"],
    )
    def test_bulk_stretch_checked(self, controller, serve, tti, monkeypatch):
        real = getattr(sim, serve)
        hit = []

        def leaky(queue, t0, t1, *args):
            real(queue, t0, t1, *args)
            if serve == "serve_cleared":
                bad = (t0 + t1) // 2 if t0 >= tti and t1 - t0 >= 3 else -1
            else:
                bad = tti
            if t0 <= bad < t1 and not hit:
                hit.append(t0)
                queue.sent_log[bad] = queue.arrived[bad] + 1  # sends a bit that never arrived

        monkeypatch.setattr(sim, serve, leaky)
        with pytest.raises(AssertionError, match="flow conservation violated") as err:
            run(small_config(controller=controller, n_cell=16))
        assert err.value.args[0].startswith(f"flow conservation violated in ttis [{hit[0]},")
        run(small_config(controller=controller, n_cell=16, check_invariants=False))  # only the checks look

    def test_stepped_tti_checked(self, monkeypatch):
        # overbook the first TTI from 2100 on that the 16-RB cell steps
        real = sim.schedule_tti
        hit = []

        def overbooked(tti, queues, *args):
            out = real(tti, queues, *args)
            if tti >= 2100 and not hit:
                hit.append(tti)
                queues[0].used_log[tti] = 31  # above n_cell on its own
            return out

        monkeypatch.setattr(sim, "schedule_tti", overbooked)
        with pytest.raises(AssertionError, match="RB ledger violated at tti") as err:
            run(small_config(controller="marea", n_cell=16))
        assert err.value.args[0].startswith(f"RB ledger violated at tti {hit[0]}:")


class TestSteppedTtis:
    """A sharing controller steps a post-warm-up TTI exactly when the cell may
    not clear it: its arrivals do not fit in the cell, or the TTI before it
    ended with queued bits or, for marea, a record outside A.  Every other TTI
    is served in bulk, so stepping more of them would go unseen by the CSVs."""

    @pytest.mark.parametrize("controller", ["marea", "ref1", "ref4"])
    def test_stepped_ttis_are_the_ones_that_may_not_clear(self, controller, monkeypatch):
        # service 0's 2-slot budget puts q_lower at 0, so after the burst its
        # marea record is held in C over an empty queue
        cfg = small_config(
            controller=controller, n_cell=16, debug_log=True,
            services=[
                svc(0, 2.0, 1e-3, mk("two-point", (0, 200), (0.5, 0.5)), mk("constant", 25)),
                svc(1, 10.0, 1e-3, mk("constant", 100), mk("constant", 25)),
                svc(2, 15.0, 1e-2, mk("uniform", 0, 160), mk("two-point", (20, 30), (0.5, 0.5))),
            ],
            anomaly=AnomalyConfig(0, 2500, 2600, 3.5),
        )
        stepped = []
        real = sim.schedule_tti
        monkeypatch.setattr(sim, "schedule_tti", lambda t, *a: stepped.append(t) or real(t, *a))
        metrics = run(cfg)

        need = np.zeros(cfg.horizon, dtype=np.int64)  # sum over services of ceil(a / c)
        for m in range(len(cfg.services)):
            t_arr, sizes, rates = _gen_service_streams(cfg, m)
            bits = np.zeros(cfg.horizon, dtype=np.int64)
            np.add.at(bits, t_arr, sizes)
            need += -(-bits // rates)
        queued = np.zeros(cfg.horizon + 1, dtype=bool)  # queued[t + 1]: TTI t ended with queued bits
        stressed = np.zeros(cfg.horizon + 1, dtype=bool)  # stressed[t + 1]: TTI t ended outside A
        for t, _, state, _, _, _, bits, _ in metrics.debug_rows:
            queued[t + 1] |= bits > 0
            stressed[t + 1] |= state != STATE_A
        ttis = np.arange(cfg.t_obs, cfg.horizon)
        blocked = need[ttis] > cfg.n_cell
        carried, held = queued[ttis], stressed[ttis]
        assert stepped == ttis[blocked | carried | held].tolist()
        # each reason to step shows up on its own, and some TTIs clear
        assert (blocked & ~carried).any() and (carried & ~blocked).any()
        assert (held & ~blocked & ~carried).any() == (controller == "marea")
        assert len(stepped) < len(ttis)


def test_mitigation_conservation_checked(monkeypatch):
    # a mitigation that hands out one more RB per service than the guarantees
    # hold; the record step of the first TTI it runs in refuses it
    stepped = []
    schedule_tti = sim.schedule_tti
    monkeypatch.setattr(sim, "mitigate", lambda n_min, records: [n + 1 for n in n_min])
    monkeypatch.setattr(sim, "schedule_tti", lambda t, *a: stepped.append(t) or schedule_tti(t, *a))
    with pytest.raises(AssertionError) as err:
        run(small_config(controller="marea", n_cell=16, anomaly=AnomalyConfig(0, 2500, 2600, 3.5)))
    assert err.value.args[0] == f"mitigation broke conservation at tti {stepped[-1]}"
    assert stepped[-1] >= 2000
