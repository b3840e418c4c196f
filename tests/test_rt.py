import dataclasses

import numpy as np
import pytest

from rborch import rt
from rborch.rt import (
    IDLE,
    STATE_A,
    STATE_B,
    STATE_C,
    ConfigError,
    FsmRecord,
    PacketQueue,
    RtThresholds,
    drain_queue,
    fsm_step,
    mitigate,
    schedule_tti,
    slot_count,
)

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


def mkq(*pkts):
    """Queue of (arrival_tti, size) packets."""
    return PacketQueue([p[0] for p in pkts], [p[1] for p in pkts])


def queued(q, tti):
    """(packets, bits) queued at `tti`, counted from the packet table: the
    packets from the head on that have arrived, and the bits arrived by
    `tti` less the bits sent."""
    n = sum(1 for a in q.arrival[q.head :] if a <= tti)
    return n, sum(s for a, s in zip(q.arrival, q.size) if a <= tti) - q.sent_bits


class TestPacketQueue:
    def test_admit_counts_arrived_bits(self):
        q = mkq((0, 10), (2, 20), (2, 30), (5, 40))
        assert queued(q, 1) == (1, 10) and q.head_wait(1) == 1
        assert queued(q, 4) == (3, 60) and q.head_wait(4) == 4

    def test_completions_recorded_in_fifo_order(self):
        q = mkq((0, 30), (0, 20), (1, 25))
        done = []
        assert drain_queue(q, 40, 10, 0, 7, done) == 40  # 30 + 10 of the next
        assert done == [(7, 0)] and list(q.done_tti) == [0] and list(q.done_rbs) == [3]
        assert q.head_rem == 10 and queued(q, 0) == (1, 10) and q.sent_bits == 40
        drain_queue(q, 100, 10, 1, 7, done)
        assert done == [(7, 0), (7, 1), (7, 2)]
        assert list(q.done_tti) == [0, 1, 1] and list(q.done_rbs) == [3, 2, 3]  # 20 bits over two TTIs: 2 RBs
        assert queued(q, 2) == (0, 0) and q.head_wait(2) == 0 and q.head_rem == 0

    def test_packet_after_tti_neither_served_nor_waiting(self):
        q = mkq((0, 10), (3, 20))
        done = []
        assert drain_queue(q, 100, 10, 1, 0, done) == 10  # the packet of TTI 3 is not yet queued
        assert done == [(0, 0)] and q.head == 1 and q.head_rem == 20
        assert queued(q, 1) == (0, 0) and q.head_wait(1) == 0 and q.head_wait(3) == 0
        assert queued(q, 3) == (1, 20) and q.head_wait(5) == 2
        used, done = schedule_tti(2, [q], [5], [10], 5, [5])
        assert used == [0] and done == [] and q.sent_bits == 10


class TestScheduleTti:
    def test_all_empty(self):
        queues = [mkq(), mkq()]
        used, done = schedule_tti(0, queues, [5, 5], [25, 25], 10, [5, 5])
        assert used == [0, 0] and done == []

    def test_exact_rb_consumption(self):
        queues = [mkq((0, 100))]
        used, done = schedule_tti(0, queues, [10], [25], 10, [5])
        assert used == [4]
        assert len(done) == 1 and queues[0].arrival[done[0][1]] == 0 and queues[0].done_rbs[0] == 4
        assert queued(queues[0], 0) == (0, 0)

    def test_partial_rb_rounds_up(self):
        queues = [mkq((0, 90))]
        used, _ = schedule_tti(0, queues, [10], [25], 10, [5])
        assert used == [4]  # ceil(90/25)

    def test_edf_picks_smallest_slack(self):
        # heads with waits 4 and 1 against q_t 5 and 9 -> slacks 1 and 8
        queues = [mkq((1, 500)), mkq((4, 500))]
        used, _ = schedule_tti(5, queues, [0, 0], [25, 25], 1, [5, 9])
        assert used == [1, 0]

    def test_edf_tie_breaks_lowest_index(self):
        queues = [mkq((0, 500)), mkq((0, 500))]
        used, _ = schedule_tti(3, queues, [0, 0], [25, 25], 1, [5, 5])
        assert used == [1, 0]

    def test_rb_straddles_packets(self):
        # one RB of 25 bits finishes a 10-bit packet and starts the next
        queues = [mkq((0, 10), (0, 30))]
        used, done = schedule_tti(0, queues, [1], [25], 1, [5])
        assert used == [1]
        assert len(done) == 1
        assert queues[0].head_rem == 15  # 30 - (25 - 10)

    def test_budget_respected(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n_cell = int(rng.integers(m, 20))
            alloc = [int(v) for v in rng.multinomial(n_cell, np.ones(m) / m)]
            queues = [
                mkq(*[(0, int(b)) for b in rng.integers(1, 400, rng.integers(0, 4))])
                for _ in range(m)
            ]
            rates = [int(v) for v in rng.integers(10, 40, m)]
            used, _ = schedule_tti(0, queues, alloc, rates, n_cell, [5] * m)
            assert sum(used) <= n_cell
            assert all(u >= 0 for u in used)

    def test_work_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            n_cell = int(rng.integers(m, 16))
            alloc = [0] * m
            queues = [
                mkq(*[(0, int(b)) for b in rng.integers(1, 200, rng.integers(0, 3))])
                for _ in range(m)
            ]
            rates = [int(v) for v in rng.integers(5, 30, m)]
            used, _ = schedule_tti(0, queues, alloc, rates, n_cell, [5] * m)
            if any(queued(q, 0)[0] for q in queues):
                assert sum(used) == n_cell  # backlog remains only if all RBs spent

    def test_sharing_skipped_without_backlog(self, monkeypatch):
        calls = []
        real = rt.drain_queue
        monkeypatch.setattr(rt, "drain_queue", lambda q, *a: calls.append(a[3]) or real(q, *a))
        queues = [mkq((0, 50)), mkq((0, 20)), mkq((3, 10))]
        used, done = schedule_tti(0, queues, [2, 1, 4], [25, 25, 25], 10, [5, 5, 5])
        assert used == [2, 1, 0] and len(done) == 2
        # phase 1 only: service 2 has nothing queued and no queue is left to share with
        assert calls == [0, 1]

    def test_no_sharing_keeps_pool_idle(self):
        queues = [mkq((0, 1000)), mkq()]
        used, _ = schedule_tti(0, queues, [2, 2], [25, 25], 10, [5, 5], share=False)
        assert used == [2, 0]
