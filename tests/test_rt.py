import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rborch import rt
from rborch.capacity import ConcatPerRbVector
from rborch.rt import (
    IDLE,
    STATE_A,
    STATE_B,
    STATE_C,
    ConfigError,
    FsmRecord,
    PacketQueue,
    RtThresholds,
    completion_ttis,
    drain_queue,
    fsm_step,
    mitigate,
    packet_rbs,
    schedule_tti,
    serve_cleared,
    serve_guaranteed,
    slot_count,
)
from rborch.sim import measure_fifo_delays
from rborch.traces import ArrivalTrace, ChannelTrace


THR = RtThresholds(q_t=10, eta=0.75, tau=0.3)  # q_upper=7, q_lower=3


class TestThresholds:
    def test_derived_values(self):
        assert THR.q_upper == 7 and THR.q_lower == 3

    def test_budget_constructor(self):
        t = RtThresholds.for_budget(10.0, 1.0, 0.75, 0.3)
        assert t.q_t == 10

    def test_budget_on_decimal_slot_grid(self):
        # 0.7 / 0.1 is 6.999..., which truncation turned into 6 slots
        assert RtThresholds.for_budget(0.7, 0.1, 0.75, 0.3).q_t == 7
        assert slot_count(0.3, 0.1) == 3
        assert slot_count(3.0, 0.125) == 24

    def test_budget_off_slot_grid_rejected(self):
        with pytest.raises(ConfigError):
            slot_count(0.75, 0.1)
        with pytest.raises(ConfigError):
            RtThresholds.for_budget(2.5, 1.0, 0.75, 0.3)

    def test_upper_must_exceed_lower(self):
        with pytest.raises(ValueError):
            RtThresholds(q_t=1, eta=0.75, tau=0.3)

    def test_state_a_requires_zero_request(self):
        with pytest.raises(ValueError):
            FsmRecord(STATE_A, 2)


class TestFsmStep:
    def test_idle_stays_a(self):
        assert fsm_step(0, FsmRecord(), THR) == FsmRecord(STATE_A, 0)

    def test_b_increments_request(self):
        out = fsm_step(8, FsmRecord(STATE_B, 2), THR)
        assert out == FsmRecord(STATE_B, 3)

    def test_b_to_c_holds_then_relaxes(self):
        mid = fsm_step(5, FsmRecord(STATE_B, 3), THR)
        assert mid == FsmRecord(STATE_C, 3)
        assert fsm_step(2, mid, THR) == FsmRecord(STATE_A, 0)

    def test_a_in_band_stays_a(self):
        assert fsm_step(5, FsmRecord(), THR) == FsmRecord(STATE_A, 0)

    def test_a_above_upper_enters_b(self):
        assert fsm_step(8, FsmRecord(), THR) == FsmRecord(STATE_B, 1)

    def test_c_holds_in_band(self):
        assert fsm_step(4, FsmRecord(STATE_C, 2), THR) == FsmRecord(STATE_C, 2)

    def test_hysteresis_never_leaves_a(self):
        rng = np.random.default_rng(0)
        rec = FsmRecord()
        for q in rng.integers(0, THR.q_upper + 1, 2000):
            rec = fsm_step(int(q), rec, THR)
            assert rec.state == STATE_A and rec.n_req == 0
            assert rec is IDLE

    def test_every_a_result_is_the_shared_idle_record(self):
        for q, prev in [(0, FsmRecord()), (5, IDLE), (2, FsmRecord(STATE_C, 3)), (1, FsmRecord(STATE_B, 2))]:
            assert fsm_step(q, prev, THR) is IDLE
        with pytest.raises(dataclasses.FrozenInstanceError):
            IDLE.n_req = 1

    def test_b_and_c_results_are_fresh_records(self):
        b1, b2 = fsm_step(8, IDLE, THR), fsm_step(8, IDLE, THR)
        assert b1 == b2 == FsmRecord(STATE_B, 1) and b1 is not b2 and b1 is not IDLE
        b3 = fsm_step(9, b1, THR)
        assert b3.n_req == 2 and b1.n_req == 1
        c = fsm_step(5, b3, THR)
        assert c == FsmRecord(STATE_C, 2) and c is not b3


class TestMitigate:
    def test_no_borrowers_identity(self):
        out = mitigate([4, 6], [FsmRecord(), FsmRecord()])
        assert out == [4, 6]

    def test_no_donors_identity(self):
        out = mitigate([4, 6], [FsmRecord(STATE_B, 1), FsmRecord(STATE_C, 2)])
        assert out == [4, 6]

    def test_single_donor_hand_trace(self):
        out = mitigate([10, 5], [FsmRecord(), FsmRecord(STATE_B, 2)])
        assert out == [8, 7]

    def test_round_robin_hand_trace(self):
        recs = [FsmRecord(), FsmRecord(STATE_B, 3), FsmRecord()]
        out = mitigate([3, 4, 3], recs)
        assert out == [1, 7, 2]

    def test_donors_exhausted_stops_early(self):
        recs = [FsmRecord(), FsmRecord(STATE_B, 10)]
        out = mitigate([2, 5], recs)
        assert out == [0, 7]
        assert sum(out) == 7

    def test_zero_donor_skipped(self):
        recs = [FsmRecord(), FsmRecord(), FsmRecord(STATE_B, 2)]
        out = mitigate([0, 4, 1], recs)
        assert out == [0, 2, 3]

    def test_conservation_and_non_negativity_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            m = int(rng.integers(1, 7))
            alloc = rng.integers(0, 12, m).tolist()
            recs = []
            for _ in range(m):
                s = rng.choice([STATE_A, STATE_B, STATE_C])
                recs.append(FsmRecord(s, 0 if s == STATE_A else int(rng.integers(0, 6))))
            out = mitigate(alloc, recs)
            assert sum(out) == sum(alloc)
            assert all(v >= 0 for v in out)
            # state-B services never donate
            for i, r in enumerate(recs):
                if r.state != STATE_A:
                    assert out[i] >= alloc[i]


H = 16  # horizon of the hand-built queues


def mkq(*pkts, rate=25):
    """Queue of (arrival_tti, size) packets over H TTIs at a constant `rate` bits per RB."""
    return PacketQueue([p[0] for p in pkts], [p[1] for p in pkts], [rate] * H)


def queued(q, tti):
    """(packets, bits) queued at `tti`, counted from the packet table: the
    packets from the head on that have arrived, and the bits arrived by
    `tti` less the bits sent."""
    n = sum(1 for a in q.arrival[q.head : -1] if a <= tti)
    return n, q.arrived[tti] - q.sent


def head_rem(q):
    """Bits the head packet still owes."""
    return q.ends[q.head] - q.sent


def done_ttis(q, tti):
    """Completion TTIs of the packets completed by the end of `tti`, from the sent log."""
    return completion_ttis(np.asarray(q.sent_log)[: tti + 1], np.asarray(q.ends)[:-1]).tolist()


def done_rbs(q, tti):
    """RB counts of the packets completed by the end of `tti`, from the sent log."""
    return packet_rbs(q, 0, q.head, tti + 1).tolist()


class TestPacketQueue:
    def test_admit_counts_arrived_bits(self):
        q = mkq((0, 10), (2, 20), (2, 30), (5, 40))
        assert queued(q, 1) == (1, 10) and q.head_wait(1) == 1
        assert queued(q, 4) == (3, 60) and q.head_wait(4) == 4

    def test_completions_recorded_in_fifo_order(self):
        q = mkq((0, 30), (0, 20), (1, 25), rate=10)
        done = []
        assert drain_queue(q, 40, 0, 7, done) == 40  # 30 + 10 of the next
        assert done == [(7, 0)] and done_ttis(q, 0) == [0] and done_rbs(q, 0) == [3]
        assert head_rem(q) == 10 and queued(q, 0) == (1, 10) and q.sent == 40
        drain_queue(q, 100, 1, 7, done)
        assert done == [(7, 0), (7, 1), (7, 2)]
        assert done_ttis(q, 1) == [0, 1, 1] and done_rbs(q, 1) == [3, 2, 3]  # 20 bits over two TTIs: 2 RBs
        assert queued(q, 2) == (0, 0) and q.head_wait(2) == 0 and q.head == 3
        assert list(q.sent_log[:2]) == [40, 75]

    def test_packet_after_tti_neither_served_nor_waiting(self):
        q = mkq((0, 10), (3, 20), rate=10)
        done = []
        assert drain_queue(q, 100, 1, 0, done) == 10  # the packet of TTI 3 is not yet queued
        assert done == [(0, 0)] and q.head == 1 and head_rem(q) == 20
        assert queued(q, 1) == (0, 0) and q.head_wait(1) == 0 and q.head_wait(3) == 0
        assert queued(q, 3) == (1, 20) and q.head_wait(5) == 2
        used, done = schedule_tti(2, [q], [5], 5, [5])
        assert used == [0] and done == [] and q.sent == 10

    def test_zero_budget_and_empty_queue_send_nothing(self):
        # the guaranteed phase drains every queue, so both cases must only
        # write the bits sent so far to the sent log
        q = mkq((0, 30), (3, 20), rate=10)
        done = []
        assert drain_queue(q, 100, 0, 4, done) == 30 and done == [(4, 0)]
        for tti, budget in ((1, 100), (2, 0), (3, 0)):  # empty, empty, 20 bits queued
            q.sent_log[tti] = -1
            assert drain_queue(q, budget, tti, 4, done) == 0
            assert q.sent_log[tti] == q.sent == 30 and q.head == 1 and done == [(4, 0)]
        assert queued(q, 3) == (1, 20)

    def test_table_checked(self):
        rate = [25] * H
        with pytest.raises(ValueError):
            PacketQueue([0, 1], [10], rate)
        with pytest.raises(ValueError):
            PacketQueue([2, 1], [10, 10], rate)  # out of order
        with pytest.raises(ValueError):
            PacketQueue([0, H], [10, 10], rate)  # past the horizon
        with pytest.raises(ValueError):
            PacketQueue([0, 1], [10, 0], rate)  # an empty packet

    @pytest.mark.parametrize(
        "rate", [[], [[25] * H, [25] * H], [25] * 5 + [0] + [25] * (H - 6)], ids=["empty", "2-d", "zero"]
    )
    def test_rate_column_checked(self, rate):
        with pytest.raises(ValueError, match="rate column"):
            PacketQueue([0, 1], [10, 10], rate)

    def test_rate_column_sets_horizon_and_is_read_only(self):
        q = PacketQueue([0, 4], [10, 10], [7, 8, 9, 10, 11])
        assert len(q.sent_log) == len(q.used_log) == len(q.arrived) == 5
        with pytest.raises(ValueError):
            PacketQueue([0, 5], [10, 10], [7, 8, 9, 10, 11])  # past the horizon the column sets
        with pytest.raises(TypeError):
            q.rate[0] = 1
        with pytest.raises(ValueError):
            np.asarray(q.rate)[0] = 1


class TestScheduleTti:
    def test_all_empty(self):
        queues = [mkq(), mkq()]
        used, done = schedule_tti(0, queues, [5, 5], 10, [5, 5])
        assert used == [0, 0] and done == []

    def test_exact_rb_consumption(self):
        queues = [mkq((0, 100))]
        used, done = schedule_tti(0, queues, [10], 10, [5])
        assert used == [4]
        assert len(done) == 1 and queues[0].arrival[done[0][1]] == 0 and done_rbs(queues[0], 0) == [4]
        assert queued(queues[0], 0) == (0, 0)
        assert queues[0].used_log[0] == 4 and queues[0].sent_log[0] == 100

    def test_partial_rb_rounds_up(self):
        queues = [mkq((0, 90))]
        used, _ = schedule_tti(0, queues, [10], 10, [5])
        assert used == [4]  # ceil(90/25)

    def test_edf_picks_smallest_slack(self):
        # heads with waits 4 and 1 against q_t 5 and 9 -> slacks 1 and 8
        queues = [mkq((1, 500)), mkq((4, 500))]
        used, _ = schedule_tti(5, queues, [0, 0], 1, [5, 9])
        assert used == [1, 0]

    def test_edf_tie_breaks_lowest_index(self):
        queues = [mkq((0, 500)), mkq((0, 500))]
        used, _ = schedule_tti(3, queues, [0, 0], 1, [5, 5])
        assert used == [1, 0]

    def test_rb_straddles_packets(self):
        # one RB of 25 bits finishes a 10-bit packet and starts the next
        queues = [mkq((0, 10), (0, 30))]
        used, done = schedule_tti(0, queues, [1], 1, [5])
        assert used == [1]
        assert len(done) == 1
        assert head_rem(queues[0]) == 15  # 30 - (25 - 10)

    def test_budget_respected(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n_cell = int(rng.integers(m, 20))
            alloc = [int(v) for v in rng.multinomial(n_cell, np.ones(m) / m)]
            pkts = [[(0, int(b)) for b in rng.integers(1, 400, rng.integers(0, 4))] for _ in range(m)]
            rates = [int(v) for v in rng.integers(10, 40, m)]
            queues = [mkq(*p, rate=c) for p, c in zip(pkts, rates)]
            used, _ = schedule_tti(0, queues, alloc, n_cell, [5] * m)
            assert sum(used) <= n_cell
            assert all(u >= 0 for u in used)

    def test_work_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n_cell = int(rng.integers(m, 16))
            alloc = [0] * m
            pkts = [[(0, int(b)) for b in rng.integers(1, 200, rng.integers(0, 3))] for _ in range(m)]
            rates = [int(v) for v in rng.integers(5, 30, m)]
            queues = [mkq(*p, rate=c) for p, c in zip(pkts, rates)]
            used, _ = schedule_tti(0, queues, alloc, n_cell, [5] * m)
            if any(queued(q, 0)[0] for q in queues):
                assert sum(used) == n_cell  # backlog remains only if all RBs spent

    def test_sharing_skipped_without_backlog(self, monkeypatch):
        calls = []
        real = rt.drain_queue

        def logged(q, budget, t, m, done):
            calls.append((m, budget))
            return real(q, budget, t, m, done)

        monkeypatch.setattr(rt, "drain_queue", logged)
        queues = [mkq((0, 50)), mkq((0, 20)), mkq((3, 10))]
        used, done = schedule_tti(0, queues, [2, 1, 4], 10, [5, 5, 5])
        assert used == [2, 1, 0] and len(done) == 2
        # phase 1 drains every queue once, in index order, with its guaranteed
        # RBs x 25 bits; service 2 has nothing queued and no queue is left to
        # share with, so no grant is made
        assert calls == [(0, 50), (1, 25), (2, 100)]
        # a backlog left by phase 1 is shared out: service 0's head owes 10
        # bits, so it is granted one RB of 25 bits
        calls.clear()
        queues = [mkq((0, 60)), mkq((0, 20))]
        used, done = schedule_tti(0, queues, [2, 1], 10, [5, 5])
        assert used == [3, 1] and len(done) == 2 and calls == [(0, 50), (1, 25), (0, 25)]

    def test_grant_ends_at_head_on_whole_rbs(self):
        # service 0's head owes 20 bits, exactly 2 RBs, and its next packet
        # (one TTI more slack) waits behind it; service 1's head is due first
        # after that, so the 4-RB pool splits 2/2 and no RB of the grant
        # reaches the packet behind the head
        queues = [mkq((0, 20), (1, 100), rate=10), mkq((0, 40), rate=10)]
        used, done = schedule_tti(1, queues, [0, 0], 4, [5, 5])
        assert used == [2, 2] and done == [(0, 0)]
        assert queues[0].sent == 20 and queues[0].head == 1 and queues[1].sent == 20

    def test_no_sharing_keeps_pool_idle(self):
        queues = [mkq((0, 1000)), mkq()]
        used, _ = schedule_tti(0, queues, [2, 2], 10, [5, 5], share=False)
        assert used == [2, 0]


@st.composite
def served_tables(draw):
    """A packet table served TTI by TTI on a one-queue cell: (queue, horizon).
    Rates stay at most 16 bits per RB, so a share that is not whole is at
    least 1 / lcm(1..16) (about 1.4e-6) above an integer, far beyond the
    kernel's 1e-9 slack."""
    horizon = draw(st.integers(1, 24))
    n = draw(st.integers(1, 12))
    arrival = sorted(draw(st.lists(st.integers(0, horizon - 1), min_size=n, max_size=n)))
    size = draw(st.lists(st.integers(1, 120), min_size=n, max_size=n))
    rate = draw(st.lists(st.integers(1, 16), min_size=horizon, max_size=horizon))
    n_cell = draw(st.integers(1, 6))
    guarantee = draw(st.lists(st.integers(0, n_cell), min_size=horizon, max_size=horizon))
    return table_served(arrival, size, rate, guarantee, n_cell, draw(st.booleans())), horizon


def table_served(arrival, size, rate, guarantee, n_cell, share):
    q = PacketQueue(arrival, size, rate)
    for t, n in enumerate(guarantee):
        schedule_tti(t, [q], [n], n_cell, [4], share)
    return q


def exact_rbs(q, i, j, horizon):
    """max(1, ceil(sum over TTIs of (the packet's bits sent in the TTI) / rate)),
    in exact arithmetic, for each packet of [i, j)."""
    counts = []
    for k in range(i, j):
        lo, hi = (q.ends[k - 1] if k else 0), q.ends[k]
        share = Fraction(0)
        for t in range(horizon):
            before = q.sent_log[t - 1] if t else 0
            share += Fraction(max(0, min(hi, q.sent_log[t]) - max(lo, before)), q.rate[t])
        counts.append(max(1, math.ceil(share)))
    return counts


# a packet ends exactly as a TTI ends: 2 RBs of 10 bits send 20 bits a TTI
ON_TTI_END = (table_served([0, 0, 0], [20, 35, 5], [10] * 4, [2] * 4, 2, False), 4)
# a packet carried by 6 TTIs, one of which sends nothing: a repeated knot
ZERO_TTI_INSIDE = (table_served([0, 1], [40, 9], [7, 11, 5, 13, 3, 9, 10, 4], [1, 1, 0, 1, 1, 1, 1, 1], 1, False), 8)
# packet 0 ends 5 bits into TTI 0, so packet 1 starts mid-TTI
MID_TTI = (table_served([0, 0, 1], [15, 30, 10], [10] * 4, [2] * 4, 2, False), 4)


class TestPacketRbs:
    """`packet_rbs` against the RB shares summed exactly over the sent log."""

    @settings(max_examples=500)
    @given(served_tables(), st.integers(0, 12), st.integers(1, 12), st.integers(0, 24))
    @example(ON_TTI_END, 0, 3, 0)
    @example(ZERO_TTI_INSIDE, 0, 2, 0)
    @example(ZERO_TTI_INSIDE, 1, 2, 0)
    @example(MID_TTI, 1, 3, 0)
    @example(MID_TTI, 0, 2, 5)
    def test_matches_exact_shares(self, served, i, j, late):
        q, horizon = served
        assume(q.head)
        j = min(j, q.head)
        i = min(i, j - 1)
        # any TTI after packet j - 1 completed bounds the search
        done = completion_ttis(np.asarray(q.sent_log), np.asarray(q.ends)[: q.head])
        tti = min(int(done[j - 1]) + 1 + late, horizon)
        assert packet_rbs(q, i, j, tti).tolist() == exact_rbs(q, i, j, horizon)

    def test_hand_counts(self):
        q, _ = ON_TTI_END
        assert packet_rbs(q, 0, 3, 3).tolist() == [2, 4, 1]  # 35 bits over 20 + 15: 2 + 1.5 RBs
        q, _ = ZERO_TTI_INSIDE
        # 7/7 + 11/11 + 0 + 13/13 + 3/3 + 6/9 RBs, then the 9-bit packet: 3/9 + 6/10
        assert list(q.sent_log[:7]) == [7, 18, 18, 31, 34, 43, 49]
        assert packet_rbs(q, 0, 2, 7).tolist() == [5, 1]




class TestBitLimits:
    """Cumulative bits are int64: a packet table or FIFO stream whose total
    reaches 2^62 (the sentinel packet's end) is refused, not wrapped."""

    def test_packet_table_total(self):
        # the ends would be [2^62, -2^63], the first equal to the sentinel's
        with pytest.raises(ValueError, match="fewer than 2\\^62 bits"):
            PacketQueue([0, 1], [2**62, 2**62], [1, 1, 1])
        PacketQueue([0, 1], [2**61, 2**61 - 1], [1, 1, 1])  # one bit less is a table

    def test_fifo_stream_totals(self):
        # the cumulative arrivals would wrap, giving the delays [5, 0, -1]
        with pytest.raises(ValueError, match="less than 2\\^62"):
            measure_fifo_delays([2**62] * 3 + [0], [1] * 4)
        with pytest.raises(ValueError, match="less than 2\\^62"):
            measure_fifo_delays([1, 0], [2**61, 2**61])
        # one TTI may offer far more than the rest, as long as the total stays below 2^62
        delays, pending = measure_fifo_delays([1, 0, 3], [2**61, 2**61 - 2, 1])
        assert delays.tolist() == [1.0] and pending.tolist() == [2]

    def test_guaranteed_stretch_offered_bits(self):
        # 4 RBs of 2^62 bits offer 2^64 bits per TTI, which wraps to 0 in int64:
        # the stretch would send nothing where schedule_tti sends the 10 bits
        with pytest.raises(ValueError) as err:
            serve_guaranteed(PacketQueue([0], [10], [2**62] * 3), 0, 3, 4)
        assert err.value.args[0] == "the bits offered in TTIs [0, 3) could reach 2^62"
        # the bound counts the bits sent before the stretch: 3 x 2^60 + 2^60 reaches 2^62
        q = PacketQueue([0, 1], [2**60, 10], [2**60, 2**60, 1, 1])
        serve_guaranteed(q, 0, 1, 1)
        with pytest.raises(ValueError, match="could reach 2\\^62"):
            serve_guaranteed(q, 1, 4, 1)
        serve_guaranteed(q, 1, 3, 1)  # 2^60 + 2 x 2^60 stays below
        assert list(q.sent_log[:3]) == [2**60, 2**60 + 10, 2**60 + 10]
        assert list(q.used_log[:3]) == [1, 1, 0]


class TestEmptyStretch:
    """Serving TTIs [t0, t0) changes nothing; a stretch that ends before it starts is refused."""

    @staticmethod
    def unserved(q):
        return q.sent == q.head == 0 and not any(q.sent_log) and not any(q.used_log)

    def test_serve_guaranteed(self):
        q = PacketQueue([0], [10], [25] * 3)
        serve_guaranteed(q, 1, 1, 2)
        assert self.unserved(q)
        with pytest.raises(ValueError) as err:
            serve_guaranteed(q, 2, 1, 2)
        assert err.value.args[0] == "the stretch of TTIs [2, 1) ends before it starts"
        assert self.unserved(q)

    def test_serve_cleared(self):
        q = PacketQueue([0], [10], [25] * 3)
        serve_cleared(q, 1, 1)
        assert self.unserved(q)
        with pytest.raises(ValueError) as err:
            serve_cleared(q, 2, 1)
        assert err.value.args[0] == "the stretch of TTIs [2, 1) ends before it starts"
        assert self.unserved(q)


class TestLindleySent:
    @given(
        st.lists(st.tuples(st.one_of(st.just(0), st.integers(1, 50)), st.integers(0, 30)), min_size=1, max_size=40),
        st.integers(0, 100),
        st.integers(0, 100),
        st.data(),
    )
    def test_points_before_arrivals_equal_every_tti(self, ttis, sent0, backlog, data):
        # a stretch that starts with `backlog` bits queued after `sent0` were sent
        arrivals, offered = (np.array(column, dtype=np.int64) for column in zip(*ttis))
        arrived, offered = np.cumsum(arrivals) + sent0 + backlog, np.cumsum(offered)
        every = rt.lindley_sent(arrived, offered, sent0)
        # the TTI before each arrival and the last TTI, and any others
        needed = {t - 1 for t in np.flatnonzero(arrivals).tolist() if t} | {len(ttis) - 1}
        points = sorted(needed | data.draw(st.sets(st.integers(0, len(ttis) - 1))))
        got = rt.lindley_sent(arrived[points], offered[points], sent0)
        assert got.dtype == every.dtype == np.int64 and got.tolist() == every[points].tolist()
        # the stretch's start as a point of its own: nothing offered, the backlog arrived
        start = rt.lindley_sent(np.append(sent0 + backlog, arrived[points]), np.append(0, offered[points]), sent0)
        assert start.tolist() == [sent0, *got.tolist()]


class TestWholeNumbers:
    """Counts of bits, TTIs and RBs are refused unless whole, never truncated."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: measure_fifo_delays([100.7, 0, 0], [50.9, 50.9, 0.9]),
            lambda: measure_fifo_delays([math.nan, 0], [10, 10]),
            lambda: ConcatPerRbVector([10.9, 7.5], [1, 1]),
            lambda: PacketQueue([0, 1], [20, 2.5], [10, 10]),
            lambda: PacketQueue([0], [20], [10, math.inf]),
            lambda: ArrivalTrace(0, [0.5], [20], 2),
            lambda: ChannelTrace(0, [12, 12.5]),
        ],
        ids=["fifo-fractional", "fifo-nan", "capacity-runs", "queue-size", "queue-rate", "arrival-trace", "channel-trace"],
    )
    def test_refused(self, call):
        with pytest.raises(ValueError, match="whole numbers"):
            call()

    def test_whole_values_read_as_integers(self):
        ints = np.arange(4)
        assert rt.whole_numbers(ints, "x") is ints  # an int64 array is neither checked nor copied
        assert rt.whole_numbers([2.0, -3.0], "x").tolist() == [2, -3]
        as_floats = measure_fifo_delays([100.0, 0.0, 0.0], [50.0, 50.0, 1.0])[0]
        assert as_floats.tolist() == measure_fifo_delays([100, 0, 0], [50, 50, 1])[0].tolist() == [2.0]
