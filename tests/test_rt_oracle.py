"""The cumulative-bits queue against the per-packet queue it replaced.

`OldQueue`, `old_drain` and `old_schedule` are a copy of the per-packet FIFO
that `rborch.rt` used before its queues were kept as cumulative bits: it
drains packet by packet and records each packet's completion TTI and RB
count (its share of RBs summed as floats, then ceiled with 1e-9 slack) as
the packet completes.  The new queue records only two logs per service;
the completion TTIs and RB counts derived from them must equal the
recorded ones, and every stepped TTI must use the same RBs, send the same
bits and complete the same packets.
"""

import math
from array import array

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rborch.rt import (
    IDLE,
    STATE_B,
    STATE_C,
    FsmRecord,
    PacketQueue,
    clearing_rbs,
    completion_ttis,
    mitigate,
    packet_rbs,
    schedule_tti,
    serve_cleared,
    serve_guaranteed,
)

_NEVER = 1 << 62


class OldQueue:
    def __init__(self, arrival, size):
        self.arrival = [*arrival, _NEVER]
        self.size = [*size, 0]
        self.head = 0
        self.head_rem = self.size[0]
        self.head_rbs = 0.0
        self.sent_bits = 0
        self.done_tti = array("q")
        self.done_rbs = array("q")

    def head_wait(self, tti):
        a = self.arrival[self.head]
        return tti - a if a <= tti else 0


def old_drain(queue, budget_bits, bits_per_rb, tti, service_id, completed):
    head = queue.head
    rem, rbs = queue.head_rem, queue.head_rbs
    arrival, size = queue.arrival, queue.size
    sent = 0
    while sent < budget_bits and arrival[head] <= tti:
        take = budget_bits - sent
        if take >= rem:
            sent += rem
            rbs += rem / bits_per_rb
            queue.done_tti.append(tti)
            n = math.ceil(rbs - 1e-9)
            queue.done_rbs.append(n if n > 1 else 1)
            completed.append((service_id, head))
            head += 1
            rem = size[head]
            rbs = 0.0
        else:
            rem -= take
            rbs += take / bits_per_rb
            sent += take
    queue.head, queue.head_rem, queue.head_rbs = head, rem, rbs
    queue.sent_bits += sent
    return sent


def old_schedule(tti, queues, alloc, bits_per_rb, n_cell, q_t, share=True):
    m_count = len(queues)
    rbs_used = [0] * m_count
    completed = []
    backlog = []
    for m in range(m_count):
        q = queues[m]
        if q.arrival[q.head] > tti:
            continue
        n = alloc[m]
        if n > 0:
            c = bits_per_rb[m]
            sent = old_drain(q, n * c, c, tti, m, completed)
            rbs_used[m] = -(-sent // c)
            if q.arrival[q.head] > tti:
                continue
        backlog.append(m)
    if not share or not backlog:
        return rbs_used, completed
    pool = n_cell - sum(rbs_used)
    while pool > 0 and backlog:
        best = min(backlog, key=lambda m: q_t[m] + queues[m].arrival[queues[m].head])
        q = queues[best]
        c = bits_per_rb[best]
        k = min(pool, -(-q.head_rem // c))
        sent = old_drain(q, k * c, c, tti, best, completed)
        used = -(-sent // c)
        rbs_used[best] += used
        pool -= used
        if q.arrival[q.head] > tti:
            backlog.remove(best)
    return rbs_used, completed


@st.composite
def cells(draw, max_services=3):
    """Packet tables, per-TTI rates and allocations for a few services."""
    m_count = draw(st.integers(1, max_services))
    horizon = draw(st.integers(1, 12))
    tables, rates = [], []
    for _ in range(m_count):
        n = draw(st.integers(0, 30))
        arrival = sorted(draw(st.lists(st.integers(0, horizon - 1), min_size=n, max_size=n)))
        size = draw(st.lists(st.integers(1, 1500), min_size=n, max_size=n))
        tables.append((arrival, size))
        rates.append(draw(st.lists(st.integers(5, 40), min_size=horizon, max_size=horizon)))
    allocs = [draw(st.lists(st.integers(0, 6), min_size=m_count, max_size=m_count)) for _ in range(horizon)]
    n_cell = max(sum(a) for a in allocs) + draw(st.integers(0, 8))
    q_t = draw(st.lists(st.integers(1, 10), min_size=m_count, max_size=m_count))
    return horizon, tables, rates, allocs, n_cell, q_t


@settings(max_examples=400)
@given(cells(), st.booleans())
def test_step_matches_per_packet_queue(cell, share):
    horizon, tables, rates, allocs, n_cell, q_t = cell
    old = [OldQueue(a, s) for a, s in tables]
    new = [PacketQueue(a, s, r) for (a, s), r in zip(tables, rates)]
    for t in range(horizon):
        rates_t = [r[t] for r in rates]
        sent_before = [q.sent_bits for q in old]
        used_old, done_old = old_schedule(t, old, allocs[t], rates_t, n_cell, q_t, share)
        used_new, done_new = schedule_tti(t, new, allocs[t], n_cell, q_t, share)
        assert used_new == used_old
        assert done_new == done_old
        for m, (o, q) in enumerate(zip(old, new)):
            assert q.sent_log[t] - (q.sent_log[t - 1] if t else 0) == o.sent_bits - sent_before[m]
            assert q.used_log[t] == used_old[m]
            assert q.head == o.head and q.head_wait(t) == o.head_wait(t)
    for o, q in zip(old, new):
        ends = np.asarray(q.ends)[:-1]
        assert completion_ttis(np.asarray(q.sent_log), ends).tolist() == list(o.done_tti)
        if q.head:
            rbs = packet_rbs(q, 0, q.head, horizon)
            assert rbs.tolist() == list(o.done_rbs)
            # any completed sub-range reads the same counts
            i = q.head // 2
            assert packet_rbs(q, i, q.head, horizon).tolist() == list(o.done_rbs[i:])


@settings(max_examples=300)
@given(cells(max_services=2), st.integers(0, 12), st.data())
def test_bulk_matches_step_on_decoupled_stretch(cell, split, data):
    # the first TTIs are stepped with sharing to carry a backlog into the
    # stretch; from `split` on each service has a fixed guarantee and nothing
    # is shared, so the services are decoupled
    horizon, tables, rates, allocs, n_cell, q_t = cell
    split = min(split, horizon - 1)
    guarantee = data.draw(st.lists(st.integers(0, 6), min_size=len(tables), max_size=len(tables)))
    stepped = [PacketQueue(a, s, r) for (a, s), r in zip(tables, rates)]
    bulk = [PacketQueue(a, s, r) for (a, s), r in zip(tables, rates)]
    for t in range(split):
        for queues in (stepped, bulk):
            schedule_tti(t, queues, allocs[t], n_cell, q_t, True)
    for t in range(split, horizon):
        schedule_tti(t, stepped, guarantee, n_cell, q_t, False)
    for m, q in enumerate(bulk):
        serve_guaranteed(q, split, horizon, guarantee[m])
    for a, b in zip(stepped, bulk):
        assert list(a.sent_log) == list(b.sent_log)
        assert list(a.used_log) == list(b.used_log)
        assert (a.sent, a.head) == (b.sent, b.head)


@st.composite
def clear_cells(draw):
    """One TTI, after an empty one, whose arrivals fit in the cell: packet
    sizes, rates and deadlines per service, n_cell, and an allocation summing
    to at most n_cell -- any split, zero guarantees (ref1) included, then
    mitigated under drawn FSM records half of the time."""
    m_count = draw(st.integers(1, 4))
    sizes = [draw(st.lists(st.integers(1, 1500), max_size=4)) for _ in range(m_count)]
    rates = draw(st.lists(st.integers(5, 40), min_size=m_count, max_size=m_count))
    need = [-(-sum(s) // c) for s, c in zip(sizes, rates)]
    n_cell = max(sum(need), m_count) + draw(st.integers(0, 4))
    total = draw(st.integers(0, n_cell))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=m_count - 1, max_size=m_count - 1)))
    alloc = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    if draw(st.booleans()):
        records = st.one_of(st.just(IDLE), st.builds(FsmRecord, st.sampled_from((STATE_B, STATE_C)), st.integers(0, 5)))
        alloc = mitigate(alloc, draw(st.lists(records, min_size=m_count, max_size=m_count)))
    q_t = draw(st.lists(st.integers(1, 10), min_size=m_count, max_size=m_count))
    return sizes, rates, need, n_cell, alloc, q_t


@settings(max_examples=400)
@given(clear_cells())
def test_clear_cell_empties_every_queue(cell):
    # from empty queues, sharing sends each service's arrivals in ceil(a / c)
    # RBs whatever its guarantee, so a TTI whose arrivals fit is cleared
    sizes, rates, need, n_cell, alloc, q_t = cell
    assert sum(alloc) <= n_cell
    old = [OldQueue([1] * len(s), s) for s in sizes]
    used, _ = old_schedule(1, old, alloc, rates, n_cell, q_t, True)
    assert used == need
    assert all(q.arrival[q.head] > 1 and q.sent_bits == sum(s) for q, s in zip(old, sizes))
    # stepped and cleared in bulk, the new queue writes the same logs
    stepped = [PacketQueue([1] * len(s), s, [c, c]) for s, c in zip(sizes, rates)]
    assert schedule_tti(1, stepped, alloc, n_cell, q_t, True)[0] == need
    for s, c, step in zip(sizes, rates, stepped):
        q = PacketQueue([1] * len(s), s, [c, c])
        assert clearing_rbs(q, 1).tolist() == [-(-sum(s) // c)]
        serve_cleared(q, 1, 2)
        assert list(q.sent_log) == list(step.sent_log) == [0, sum(s)]
        assert list(q.used_log) == list(step.used_log)
        assert (q.sent, q.head) == (step.sent, step.head) == (sum(s), len(s))
