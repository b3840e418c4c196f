"""Service-capacity samples by exact grouping of a window of packet runs.

A transmitted packet of `bits` bits that consumed `rbs` RBs spreads bits/rbs
over each of its RBs; in a channel-rate window every run has rbs = 1.
Region n regroups that per-RB stream into consecutive groups of n + n_min
RBs, and each group's exact rational sum, rounded half-even to whole bits, is
one service sample.  All arithmetic is exact int64: the prefix sum at RB
boundary b is pn[b] / pd[b], where pd[b] is the length of the run holding b.

The samples of group size g do not depend on n_min, so each window keeps them
by g: every n_min candidate of a decision, and every later allocator call on
the same window, whatever its n_cell, builds only the group sizes not seen yet.
"""

from __future__ import annotations

import logging

import numpy as np

from .martingale import CapacitySampleSet, unique_counts

log = logging.getLogger(__name__)

# cross products of prefix numerators and denominators stay below this; half
# the int64 range, so checking it in float64 leaves ample margin
_INT64_LIMIT = 1 << 62


class ConcatPerRbVector:
    """Per-RB capacity stream of one window, run-length encoded as packet runs.

    Run j spreads bits[j] evenly over rbs[j] consecutive RBs.  The exact
    prefix is built on first use and kept with the window, and so are the
    samples of each group size g (read-only float64 sums, their unique values
    and counts), so every build on the window shares them.
    """

    __slots__ = ("bits", "rbs", "_length", "_prefix", "_groups")

    def __init__(self, bits, rbs):
        self.bits = np.asarray(bits, dtype=np.int64)
        self.rbs = np.asarray(rbs, dtype=np.int64)
        if len(self.bits) != len(self.rbs):
            raise ValueError("run arrays must have equal length")
        if len(self.bits) and (np.any(self.bits <= 0) or np.any(self.rbs <= 0)):
            raise ValueError("per-RB values must be positive")
        self._length = int(self.rbs.sum())
        self._prefix = None
        self._groups: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return self._length

    def prefix(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(pn, pd): the exact sum of the first b entries is pn[b] / pd[b], b = 0..len.

        pd is None when every run is a single RB: the prefix is then whole bits.
        """
        if self._prefix is None:
            bits, rbs = self.bits, self.rbs
            rb_max = int(rbs.max())
            if float(bits.sum(dtype=np.float64)) * rb_max * rb_max >= _INT64_LIMIT:
                raise ValueError(
                    f"capacity window too large for exact int64 grouping: "
                    f"sum(bits) * max(rbs)^2 must stay below 2^62 (max rbs {rb_max})"
                )
            if rb_max == 1:
                pn, pd = np.concatenate(([0], np.cumsum(bits))), None
            else:
                # boundary b at offset k of run j: pn = B[j]*rbs[j] + k*bits[j], pd = rbs[j],
                # with B the bits before run j; the end boundary is offset rbs[-1] of the last run
                counts = rbs.copy()
                counts[-1] += 1
                pd = np.repeat(rbs, counts)
                # pn steps by bits[j] inside run j and jumps to B[j]*rbs[j] where run j starts
                pn = np.repeat(bits, counts)
                first = (np.cumsum(bits) - bits) * rbs
                last = first + (rbs - 1) * bits
                pn[0] = 0
                pn[np.cumsum(rbs[:-1])] = first[1:] - last[:-1]
                np.cumsum(pn, out=pn)
            self._prefix = (pn, pd)
        return self._prefix


def _round_half_even_div(num, den):
    """Exact round-to-nearest-even of num / den (int64 arrays or Python ints)."""
    q = num // den
    two_r = 2 * (num - q * den)
    return q + ((two_r > den) | ((two_r == den) & (q % 2 == 1)))


def _group_samples(x_con: ConcatPerRbVector, g: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(samples, unique values, counts) of group size g, all float64 and read-only."""
    pn, pd = x_con.prefix()
    length = len(x_con)
    t = length // g
    if t == 0:
        sums = np.array([max(1, _round_half_even_div(int(x_con.bits.sum()) * g, length))], dtype=np.int64)
    else:
        a = pn[0 : t * g + 1 : g]
        if pd is None:
            sums = np.diff(a)
        else:
            d = pd[0 : t * g + 1 : g]
            sums = _round_half_even_div(a[1:] * d[:-1] - a[:-1] * d[1:], d[:-1] * d[1:])
        sums = np.maximum(sums, 1)
    samples = sums.astype(np.float64)
    entry = (samples, *unique_counts(samples))
    for arr in entry:
        arr.flags.writeable = False
    return entry


def build_capacity_samples(x_con: ConcatPerRbVector, n_min: int, n_cell: int) -> CapacitySampleSet:
    """Group the per-RB stream into service samples for every region n.

    Region n uses groups of n + n_min consecutive entries; trailing partial
    groups are discarded.  A window shorter than one group yields a single
    linearly scaled sample (logged as degraded).  Group sizes already built on
    this window are taken from its cache.
    """
    if n_min < 1:
        raise ValueError("n_min must be positive")
    if n_min > n_cell:
        raise ValueError("n_min must not exceed n_cell")
    length = len(x_con)
    if length == 0:
        raise ValueError("capacity window is empty")
    cache = x_con._groups
    groups = []
    for g in range(n_min, n_cell + 1):
        entry = cache.get(g)
        if entry is None:
            entry = cache[g] = _group_samples(x_con, g)
        groups.append(entry)
    # length // g only falls with g, so exactly the groups above the window length are scaled
    if n_cell > length:
        log.info("capacity window of %d entries shorter than some group sizes; scaled fallback used", length)
    return CapacitySampleSet.from_groups(groups, n_min)
