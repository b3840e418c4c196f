"""Per-TTI control: queue hysteresis FSM, guaranteed-RB mitigation and
deadline-driven sharing of unused RBs over FIFO packet queues.

State A keeps the near-RT guarantee unchanged; B accumulates an extra-RB
request while the head packet's wait is above the upper threshold; C holds
the request while the wait sits between the thresholds.  Mitigation moves
RBs round-robin from state-A donors to B/C borrowers, conserving the total.
When q_lower is 0 (a budget of at most 3 slots at tau = 0.3) no wait falls
below it, so a record that enters B stays in C with its request while its
queue is empty, and keeps the RBs that mitigation moves to it.

Each service's queue carries its channel, the bits per RB of every TTI, and is
kept as cumulative bits: its packet table gives every packet's arrival TTI and
cumulative end, and the queue counts the bits it has sent, so the bits queued
at TTI t are the bits arrived by t less the bits sent, and the head is the
first packet whose end exceeds them.  Serving a TTI writes two int64 logs per
service -- cumulative bits sent and RBs used -- and records nothing per
packet: `completion_ttis` derives completion TTIs from the sent log, and
`packet_rbs` RB counts from the RB-time curve it traces (the RBs used to send
the first x bits).  Both only read the logs.  `schedule_tti` steps one TTI
for all services, both of its phases sending through `drain_queue`.  Where
services cannot affect each other (fixed guarantees, no sharing, no
mitigation), `serve_guaranteed` serves a whole stretch of TTIs in one Lindley
pass over every TTI (`lindley_sent`, which says where else it is exact) that
writes the same logs.  Where every queue starts a TTI empty and its arrivals
fit in the cell, sharing empties every queue in ceil(a / c) RBs each,
whatever the guarantees: `clearing_rbs` writes those RBs ahead of time and
`serve_cleared` serves such a stretch.  A packet table carries fewer than
2^62 bits, so every cumulative column stays within int64.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

STATE_A = "A"
STATE_B = "B"
STATE_C = "C"

# a duration this close to a whole number of slots is taken as that number
_SLOT_TOL = 1e-9
# arrival TTI and cumulative end of the sentinel packet that ends every packet
# table: never queued, and above every real end (a table carries under 2^62 bits)
_NEVER = 1 << 62


class ConfigError(ValueError):
    """Unusable configuration file or option value."""


def check_slot(t_slot_ms: float) -> None:
    """Refuse a slot length that is not a finite, positive number of ms."""
    if not 0.0 < t_slot_ms < math.inf:  # NaN fails both
        raise ValueError(f"t_slot_ms must be finite and positive, not {t_slot_ms:g}")


def slot_count(ms: float, t_slot_ms: float) -> int:
    """Whole number of slots in a duration; a duration off the slot grid is rejected."""
    ratio = ms / t_slot_ms
    slots = round(ratio)
    if abs(ratio - slots) > _SLOT_TOL:
        raise ConfigError(f"{ms:g} ms is not a whole number of {t_slot_ms:g} ms slots")
    return slots


def whole_numbers(values, what: str, error: type = ValueError) -> np.ndarray:
    """`values` as an int64 array; raises `error` unless every entry is a finite
    whole number within int64 (a NaN or 2.5 is refused, never truncated).  An
    integer array passes on its dtype alone."""
    arr = np.asarray(values)
    if arr.dtype.kind != "i":
        f = arr.astype(np.float64)
        if not ((f == np.floor(f)) & (np.abs(f) < 2.0**63)).all():  # NaN and inf fail both
            raise error(f"{what} must be finite whole numbers")
        arr = f
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FsmRecord:
    state: str = STATE_A
    n_req: int = 0

    def __post_init__(self):
        if self.state not in (STATE_A, STATE_B, STATE_C):
            raise ValueError(f"unknown state {self.state!r}")
        if self.n_req < 0:
            raise ValueError("n_req must be non-negative")
        if self.state == STATE_A and self.n_req != 0:
            raise ValueError("state A requires n_req == 0")


@dataclass(frozen=True)
class RtThresholds:
    """Queue-wait thresholds in TTIs for one service."""

    q_t: int
    eta: float = 0.75
    tau: float = 0.3
    q_upper: int = field(init=False)
    q_lower: int = field(init=False)

    def __post_init__(self):
        if self.q_t < 1:
            raise ValueError("q_t must be a positive TTI count")
        if not (0.0 < self.eta <= 1.0) or not (0.0 < self.tau <= 1.0):
            raise ValueError("eta and tau must lie in (0, 1]")
        object.__setattr__(self, "q_upper", int(self.eta * self.q_t))
        object.__setattr__(self, "q_lower", int(self.tau * self.q_t))
        if self.q_upper <= self.q_lower:
            raise ValueError(
                f"q_upper ({self.q_upper}) must exceed q_lower ({self.q_lower}); "
                "delay budget too small for the chosen eta/tau"
            )

    @classmethod
    def for_budget(cls, w_th_ms: float, t_slot_ms: float, eta: float, tau: float) -> "RtThresholds":
        return cls(slot_count(w_th_ms, t_slot_ms), eta, tau)


IDLE = FsmRecord()


def fsm_step(q: int, prev: FsmRecord, thr: RtThresholds) -> FsmRecord:
    """Advance one service's state given its head-packet wait q (TTIs).

    Every state-A result is the one shared record IDLE.
    """
    if q > thr.q_upper:
        return FsmRecord(STATE_B, prev.n_req + 1)
    # within [q_lower, q_upper]: hold the request unless we never left A
    if q < thr.q_lower or prev.state == STATE_A:
        return IDLE
    return FsmRecord(STATE_C, prev.n_req)


def mitigate(n_min: Sequence[int], records: Sequence[FsmRecord]) -> list[int]:
    """Temporarily rebalance guarantees from idle (A) to stressed (B/C) services.

    Performs sum(n_req over borrowers) single-RB moves, cycling donors and
    borrowers round-robin; donors at zero RBs are skipped and the loop stops
    early once no donor has anything left.  The total allocation is conserved.
    """
    if len(n_min) != len(records):
        raise ValueError("allocation and FSM record lengths differ")
    alloc = [int(v) for v in n_min]
    donors = [m for m, r in enumerate(records) if r.state == STATE_A]
    borrowers = [m for m, r in enumerate(records) if r.state != STATE_A]
    if not donors or not borrowers:
        return alloc
    n_ite = sum(records[m].n_req for m in borrowers)
    j_d = 0
    j_b = 0
    for _ in range(n_ite):
        scanned = 0
        while alloc[donors[j_d]] == 0:
            j_d = (j_d + 1) % len(donors)
            scanned += 1
            if scanned == len(donors):
                return alloc
        alloc[donors[j_d]] -= 1
        alloc[borrowers[j_b]] += 1
        j_d = (j_d + 1) % len(donors)
        j_b = (j_b + 1) % len(borrowers)
    return alloc


class PacketQueue:
    """FIFO service of one packet table over one channel, kept as cumulative bits.

    `rate[t]` is the bits per RB in TTI t over the horizon of len(rate) TTIs;
    every serving call reads it, so a queue is served only over its channel.
    The table lists every packet's arrival TTI and its cumulative end (the
    bits of the table up to and including it) in FIFO order, and ends in a
    sentinel packet that never arrives; a table of 2^62 bits or more is
    refused, since its ends would reach the sentinel's.  `arrived[t]` counts
    the bits arrived by the end of TTI t and `sent` the bits sent so far: the
    bits queued at t are arrived[t] - sent, the packets whose end is at most
    `sent` have completed, and `head` is the first that has not.  Serving TTI
    t writes the cumulative bits sent by its end to `sent_log[t]` and the RBs
    it used to `used_log[t]`; every per-packet figure is derived from these
    two logs.
    An entry of a TTI not yet served may hold anything (`clearing_rbs` fills
    `used_log` ahead of time), so whatever serves a TTI writes both of its
    entries for every queue.  The columns are int64 buffers, read per TTI as
    memoryviews and as whole arrays through `np.asarray` (`rate` read-only,
    not copied).
    """

    __slots__ = ("arrival", "ends", "rate", "arrived", "sent_log", "used_log", "head", "sent")

    def __init__(self, arrival: Sequence[int], size: Sequence[int], rate: Sequence[int]):
        arrival = whole_numbers(arrival, "packet arrival TTIs")
        size = whole_numbers(size, "packet sizes")
        rate = whole_numbers(rate, "bits per RB")
        if rate.ndim != 1 or not len(rate) or rate.min() < 1:
            raise ValueError("the rate column must be 1-d, non-empty and at least 1 bit per RB")
        horizon = len(rate)
        n = len(arrival)
        if arrival.ndim != 1 or arrival.shape != size.shape:
            raise ValueError("packet table columns differ in length")
        if n and (arrival[0] < 0 or arrival[-1] >= horizon or (np.diff(arrival) < 0).any() or size.min() < 1):
            raise ValueError("packets must arrive in order within the horizon and carry at least one bit")
        table = np.empty((2, n + 1), dtype=np.int64)
        table[0, :n] = arrival
        np.cumsum(size, out=table[1, :n])
        # sizes below 2^62 make the first cumulative end at or above 2^62 exact, even if later ones wrap
        if n and (size.max() >= _NEVER or table[1, :n].max() >= _NEVER):
            raise ValueError("a packet table must carry fewer than 2^62 bits in total")
        table[:, n] = _NEVER
        arrived = np.zeros(horizon, dtype=np.int64)
        np.add.at(arrived, arrival, size)
        np.cumsum(arrived, out=arrived)
        self.arrival, self.ends = memoryview(table[0]), memoryview(table[1])
        self.rate = memoryview(rate).toreadonly()
        self.arrived = memoryview(arrived)
        self.sent_log = memoryview(np.zeros(horizon, dtype=np.int64))
        self.used_log = memoryview(np.zeros(horizon, dtype=np.int64))
        self.head = 0
        self.sent = 0

    def head_wait(self, tti: int) -> int:
        """TTIs the head packet has waited at `tti`; 0 for an empty queue."""
        a = self.arrival[self.head]
        return tti - a if a <= tti else 0


def drain_queue(queue: PacketQueue, budget_bits: int, tti: int, service_id: int, completed: list) -> int:
    """Send up to budget_bits at `tti` from a packet queue; returns bits sent.

    Bits flow as one pipe: a budget may end one packet and start the next.
    The head moves past each completed packet, which is appended to
    `completed` as (service_id, packet index), and the sent log records the
    bits sent by the end of `tti`.
    """
    s = queue.sent
    sent = queue.arrived[tti] - s
    if budget_bits < sent:
        sent = budget_bits
    s += sent
    queue.sent = queue.sent_log[tti] = s
    ends, head = queue.ends, queue.head
    while ends[head] <= s:
        completed.append((service_id, head))
        head += 1
    queue.head = head
    return sent


def schedule_tti(
    tti: int,
    queues: Sequence[PacketQueue],
    alloc: Sequence[int],
    n_cell: int,
    q_t: Sequence[int],
    share: bool = True,
):
    """Serve all queues for one TTI: guaranteed phase then deadline sharing.

    Phase 1 drains each queue in index order with a budget of its guaranteed
    RBs x its bits per RB c, using ceil(sent / c) RBs.  Phase 2 hands the
    unused guaranteed RBs plus the unguaranteed pool to the backlogged service
    whose head packet has the least slack to its budget (ties to the lowest
    service index), granting the RBs that finish its head at once; it is
    skipped when phase 1 leaves no backlog.  Writes both logs of every queue
    at `tti` and returns (rbs_used, completed).
    """
    rbs_used = [0] * len(queues)
    completed: list = []
    backlog = []
    m = 0
    for q in queues:  # a plain counter: enumerate's tuples cost more in this per-TTI loop
        c = q.rate[tti]
        q.used_log[tti] = rbs_used[m] = -(-drain_queue(q, alloc[m] * c, tti, m, completed) // c)
        if share and q.sent != q.arrived[tti]:
            backlog.append(m)
        m += 1

    if backlog:
        pool = n_cell - sum(rbs_used)
        while pool > 0 and backlog:
            # slack q_t - (tti - arrival) less the common tti; backlog ascends and < keeps the first
            least = _NEVER
            for m in backlog:
                key = q_t[m] + queues[m].arrival[queues[m].head]
                if key < least:
                    least, best = key, m
            q = queues[best]
            c = q.rate[tti]
            # the winner keeps winning until its head packet changes, so grant
            # the RBs needed to finish the head in one batch
            k = -(-(q.ends[q.head] - q.sent) // c)
            if k > pool:
                k = pool
            used = -(-drain_queue(q, k * c, tti, best, completed) // c)
            q.used_log[tti] = rbs_used[best] = rbs_used[best] + used
            pool -= used
            if q.sent == q.arrived[tti]:
                backlog.remove(best)
    return rbs_used, completed


def lindley_sent(
    arrived: np.ndarray, offered: np.ndarray, sent0: int = 0, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Cumulative bits a FIFO queue has sent by each of an increasing set of
    TTIs of a stretch, its points.

    `arrived` and `offered` are the cumulative bits that arrived and that the
    queue may send by the end of each point, counted from the stretch's start,
    and `sent0` the bits sent before it; the result goes to `out` if given.
    This is Lindley's recursion Q_t = max(0, Q_(t-1) + a_t - s_t) in closed
    form: with y = arrived - offered, sent = offered + min(sent0, running
    minimum of y); clamping y[0] at sent0 first folds the min(sent0, .) into
    the running minimum.  Between arrivals y only falls, so its running
    minimum is exact wherever the points hold the TTI before every arrival of
    the stretch up to them: every TTI, or the TTI before each arrival and the
    last TTI.  A point may also be the stretch's start, with nothing offered.
    The recursion is Markov in the queue state, so a stream served in
    consecutive stretches, each started from the bits sent by the end of the
    last, is sent exactly as in one pass.
    """
    sent = np.subtract(arrived, offered, out=out)
    if len(sent) and sent[0] > sent0:
        sent[0] = sent0
    np.minimum.accumulate(sent, out=sent)
    sent += offered
    return sent


def _empty_stretch(t0: int, t1: int) -> bool:
    """Whether the stretch of TTIs [t0, t1) is empty; one that ends before it starts is refused."""
    if t1 < t0:
        raise ValueError(f"the stretch of TTIs [{t0}, {t1}) ends before it starts")
    return t1 == t0


def serve_guaranteed(queue: PacketQueue, t0: int, t1: int, n: int) -> None:
    """Serve TTIs [t0, t1) with n guaranteed RBs each and nothing shared, in
    one Lindley pass over every TTI.  Writes the same logs, head and sent
    count as stepping schedule_tti through them; an empty stretch changes
    nothing.  A stretch whose cumulative offered bits could reach 2^62 is
    refused: they would wrap in int64."""
    if _empty_stretch(t0, t1):
        return
    bits_per_rb = np.asarray(queue.rate)[t0:t1]
    if queue.sent + n * (t1 - t0) * int(bits_per_rb.max()) >= _NEVER:
        raise ValueError(f"the bits offered in TTIs [{t0}, {t1}) could reach 2^62")
    offered = np.cumsum(bits_per_rb)
    offered *= n
    sent = lindley_sent(np.asarray(queue.arrived)[t0:t1], offered, queue.sent)
    np.asarray(queue.sent_log)[t0:t1] = sent
    np.asarray(queue.used_log)[t0:t1] = -(-np.diff(sent, prepend=queue.sent) // bits_per_rb)
    queue.sent = int(sent[-1])
    queue.head = bisect_right(queue.ends, queue.sent)


def clearing_rbs(queue: PacketQueue, t0: int) -> np.ndarray:
    """Write to the used log from TTI t0 on the RBs that send each TTI's
    arrivals, ceil(a / c), and return that part of the log.  A TTI that
    starts with every queue empty and whose arrivals fit in the cell uses
    exactly these RBs."""
    used = np.asarray(queue.used_log)[t0:]
    arrived = np.asarray(queue.arrived)
    np.subtract(arrived[t0:], arrived[t0 - 1 : -1], out=used)
    np.negative(used, out=used)
    np.floor_divide(used, np.asarray(queue.rate)[t0:], out=used)
    np.negative(used, out=used)
    return used


def serve_cleared(queue: PacketQueue, t0: int, t1: int) -> None:
    """Serve TTIs [t0, t1) of an empty queue in a cell that clears each of
    them: every TTI sends the bits it got, in the RBs `clearing_rbs` wrote.
    Writes the same sent log, head and sent count as stepping schedule_tti;
    an empty stretch changes nothing."""
    if _empty_stretch(t0, t1):
        return
    queue.sent_log[t0:t1] = queue.arrived[t0:t1]
    queue.sent = queue.arrived[t1 - 1]
    queue.head = bisect_right(queue.ends, queue.sent, queue.head)


def completion_ttis(sent_log: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Completion TTIs of the FIFO packets with cumulative ends `ends` that
    completed within the non-empty log: for each, the first TTI whose
    cumulative sent bits reach its end.  Those packets are the ones whose end
    is at most the log's last entry, so only they are searched."""
    done = ends[: ends.searchsorted(sent_log[-1], side="right")]
    return sent_log.searchsorted(done, side="left")


def packet_rbs(queue: PacketQueue, i: int, j: int, tti: int) -> np.ndarray:
    """RB counts of packets [i, j), all completed before `tti`, from the sent log.

    A packet's share is sum(bits_tau / c_tau) over the TTIs that carried it,
    and its count max(1, ceil(share - 1e-9)).  The RBs used to send the
    queue's first x bits rise by 1/c per bit inside a TTI of rate c: a
    piecewise-linear curve with a knot at the bits sent by the end of each TTI
    (a TTI that sends nothing repeats its knot), so the shares are the curve's
    rises over the packets' bits, read off by one interpolation.  Only the
    log is read, so windows may come in any order.
    """
    # the TTIs [t0, t1) carried the packets' bits
    t0 = bisect_right(queue.sent_log, queue.ends[i - 1] if i else 0, 0, tti)
    t1 = bisect_left(queue.sent_log, queue.ends[j - 1], 0, tti) + 1
    # the curve's knots: bits sent and RBs used by the end of each TTI from t0 - 1 on
    sent = _from_start(queue.sent_log, t0, t1)
    rbs = np.zeros(len(sent))
    np.cumsum(np.diff(sent) / np.asarray(queue.rate)[t0:t1], out=rbs[1:])
    share = np.diff(np.interp(_from_start(queue.ends, i, j), sent, rbs))
    counts = np.ceil(share - 1e-9).astype(np.int64)
    return np.maximum(counts, 1, out=counts)


def _from_start(cum, lo: int, hi: int) -> np.ndarray:
    """Entries [lo - 1, hi) of a cumulative column, entry -1 being 0."""
    return np.asarray(cum)[lo - 1 : hi] if lo else np.append(0, cum[:hi])
