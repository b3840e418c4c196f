"""Per-TTI control: queue hysteresis FSM, guaranteed-RB mitigation and
deadline-driven sharing of unused RBs over FIFO packet queues.

State A keeps the near-RT guarantee unchanged; B accumulates an extra-RB
request while the head packet's wait is above the upper threshold; C holds
the request while the wait sits between the thresholds.  Mitigation moves
RBs round-robin from state-A donors to B/C borrowers, conserving the total.
Each service's queue is a head/tail window over its packet table, and the
completion TTI and RB count of every sent packet are kept in FIFO order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

STATE_A = "A"
STATE_B = "B"
STATE_C = "C"

# a duration this close to a whole number of slots is taken as that number
_SLOT_TOL = 1e-9


class ConfigError(ValueError):
    """Unusable configuration file or option value."""


def slot_count(ms: float, t_slot_ms: float) -> int:
    """Whole number of slots in a duration; a duration off the slot grid is rejected."""
    ratio = ms / t_slot_ms
    slots = round(ratio)
    if abs(ratio - slots) > _SLOT_TOL:
        raise ConfigError(f"{ms:g} ms is not a whole number of {t_slot_ms:g} ms slots")
    return slots


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

    def __post_init__(self):
        if self.q_t < 1:
            raise ValueError("q_t must be a positive TTI count")
        if not (0.0 < self.eta <= 1.0) or not (0.0 < self.tau <= 1.0):
            raise ValueError("eta and tau must lie in (0, 1]")
        if self.q_upper <= self.q_lower:
            raise ValueError(
                f"q_upper ({self.q_upper}) must exceed q_lower ({self.q_lower}); "
                "delay budget too small for the chosen eta/tau"
            )

    @property
    def q_upper(self) -> int:
        return int(self.eta * self.q_t)

    @property
    def q_lower(self) -> int:
        return int(self.tau * self.q_t)

    @classmethod
    def for_budget(cls, w_th_ms: float, t_slot_ms: float, eta: float, tau: float) -> "RtThresholds":
        return cls(slot_count(w_th_ms, t_slot_ms), eta, tau)


def fsm_step(q: int, prev: FsmRecord, thr: RtThresholds) -> FsmRecord:
    """Advance one service's state given its head-packet wait q (TTIs)."""
    if q > thr.q_upper:
        return FsmRecord(STATE_B, prev.n_req + 1)
    if q < thr.q_lower:
        return FsmRecord(STATE_A, 0)
    # within [q_lower, q_upper]: hold the request unless we never left A
    if prev.state == STATE_A:
        return FsmRecord(STATE_A, 0)
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
    """FIFO service of one packet table: packets [head, tail) are queued.

    The table lists every packet's arrival TTI and size in FIFO order.  Only
    the head packet is ever partly sent; it still owes `head_rem` bits and
    has spent `head_rbs` RBs' worth of bits so far.  Completed packets form
    the table prefix [0, head) and record their completion TTI and RB count
    in `done_tti` / `done_rbs`.
    """

    __slots__ = (
        "arrival", "size", "head", "tail", "head_rem", "head_rbs", "queued_bits", "done_tti", "done_rbs"
    )

    def __init__(self, arrival: Sequence[int], size: Sequence[int]):
        if len(arrival) != len(size):
            raise ValueError("packet table columns differ in length")
        self.arrival = arrival
        self.size = size
        self.head = 0
        self.tail = 0
        self.head_rem = size[0] if len(size) else 0
        self.head_rbs = 0.0
        self.queued_bits = 0
        self.done_tti = array("q")
        self.done_rbs = array("q")

    def __len__(self) -> int:
        return self.tail - self.head

    def admit(self, tti: int) -> None:
        """Queue every packet that has arrived by the start of `tti`."""
        arrival, tail = self.arrival, self.tail
        n = len(arrival)
        while tail < n and arrival[tail] <= tti:
            self.queued_bits += self.size[tail]
            tail += 1
        self.tail = tail

    def head_wait(self, tti: int) -> int:
        """TTIs the head packet has waited; 0 for an empty queue."""
        return tti - self.arrival[self.head] if self.head < self.tail else 0


def drain_queue(
    queue: PacketQueue, budget_bits: int, bits_per_rb: int, tti: int, service_id: int, completed: list
) -> int:
    """Send up to budget_bits from a packet queue; returns bits sent.

    An RB may end one packet and start the next, so bits flow as one pipe.
    Each completed packet is recorded in the queue and appended to
    `completed` as (service_id, packet index).
    """
    head, tail = queue.head, queue.tail
    rem, rbs = queue.head_rem, queue.head_rbs
    size = queue.size
    sent = 0
    while head < tail and sent < budget_bits:
        take = budget_bits - sent
        if take >= rem:
            sent += rem
            rbs += rem / bits_per_rb
            queue.done_tti.append(tti)
            queue.done_rbs.append(max(1, math.ceil(rbs - 1e-9)))
            completed.append((service_id, head))
            head += 1
            rem = size[head] if head < len(size) else 0
            rbs = 0.0
        else:
            rem -= take
            rbs += take / bits_per_rb
            sent += take
    queue.head, queue.head_rem, queue.head_rbs = head, rem, rbs
    queue.queued_bits -= sent
    return sent


def schedule_tti(
    tti: int,
    queues: Sequence[PacketQueue],
    alloc: Sequence[int],
    bits_per_rb: Sequence[int],
    n_cell: int,
    q_t: Sequence[int],
    share: bool = True,
):
    """Serve all queues for one TTI: guaranteed phase then deadline sharing.

    Phase 1 drains each queue with its own guaranteed RBs.  Phase 2 hands the
    unused guaranteed RBs plus the unguaranteed pool, one RB at a time, to the
    backlogged service whose head packet has the least slack to its budget
    (ties to the lowest service index).  Returns (rbs_used, completed).
    """
    m_count = len(queues)
    rbs_used = [0] * m_count
    completed: list = []

    for m in range(m_count):
        n = alloc[m]
        q = queues[m]
        if n <= 0 or q.head == q.tail:
            continue
        c = bits_per_rb[m]
        sent = drain_queue(q, n * c, c, tti, m, completed)
        rbs_used[m] = -(-sent // c)

    if not share:
        return rbs_used, completed

    pool = n_cell - sum(rbs_used)
    backlog = [m for m, q in enumerate(queues) if q.head < q.tail]
    while pool > 0 and backlog:
        best = min(backlog, key=lambda m: (q_t[m] - (tti - queues[m].arrival[queues[m].head]), m))
        q = queues[best]
        c = bits_per_rb[best]
        # the winner keeps winning until its head packet changes, so grant
        # the RBs needed to finish the head in one batch
        k = min(pool, -(-q.head_rem // c))
        sent = drain_queue(q, k * c, c, tti, best, completed)
        used = -(-sent // c)
        rbs_used[best] += used
        pool -= used
        if q.head == q.tail:
            backlog.remove(best)
    return rbs_used, completed
