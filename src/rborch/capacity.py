"""Service-capacity samples by exact grouping of a window of packet runs.

A transmitted packet of `bits` bits that consumed `rbs` RBs spreads bits/rbs
over each of its RBs; in a channel-rate window every run has rbs = 1.
Region n regroups that per-RB stream into consecutive groups of g = n + n_min
RBs, and each group's exact rational sum, rounded half-even to whole bits, is
one service sample.  All arithmetic is exact int64: the prefix sum at RB
boundary b is pn[b] / pd[b], where pd[b] is the length of the run holding b.

The delay bound reads a region's samples only through their distinct values,
how often each occurs and how many there are, and none of these depends on
n_min.  So each window keeps one read-only table over one contiguous range of
group sizes lo..hi: each size's sorted unique values and counts, back to back
with per-size offsets, and each size's sample count.  The samples themselves
are never kept.  A build for n_min..n_cell extends the range at whichever
ends it must, so a request that leaves a gap to the range also builds the
sizes in the gap, and returns its sizes as a CapacitySampleSet over a slice
of the table.

New sizes are built in passes: consecutive sizes whose samples fit in
PASS_SAMPLES share one gather of the prefix, one rounding and one sort of
(size, sum) keys, which keeps numpy's per-call cost off the many short sizes
of a packet window; a size with more samples, or longer than the window, is
built alone.
"""

from __future__ import annotations

import logging

import numpy as np

from .martingale import CapacitySampleSet, unique_counts

log = logging.getLogger(__name__)

# cross products of prefix numerators and denominators stay below this; half
# the int64 range, so checking it in float64 leaves ample margin
_INT64_LIMIT = 1 << 62
# a pass packs consecutive group sizes while their samples stay within this many
PASS_SAMPLES = 1024
# group sums and the (size index, sum) keys of a pass stay below this, so
# they are exact in float64 too
_KEY_LIMIT = 1 << 53


class ConcatPerRbVector:
    """Per-RB capacity stream of one window, run-length encoded as packet runs.

    Run j spreads bits[j] evenly over rbs[j] consecutive RBs.  The exact
    prefix is built on first use and kept with the window, and so is the
    table of group sizes _lo.._lo + len(t) - 1 built on it: (unique values,
    counts, offsets, t), where size g owns vals/counts over
    offsets[g - _lo]:offsets[g - _lo + 1] and has t[g - _lo] samples.  Every
    build on the window shares them.
    """

    __slots__ = ("bits", "rbs", "_length", "_total", "_prefix", "_lo", "_table")

    def __init__(self, bits, rbs):
        self.bits = np.asarray(bits, dtype=np.int64)
        self.rbs = np.asarray(rbs, dtype=np.int64)
        if len(self.bits) != len(self.rbs):
            raise ValueError("run arrays must have equal length")
        if len(self.bits) and (np.any(self.bits <= 0) or np.any(self.rbs <= 0)):
            raise ValueError("per-RB values must be positive")
        self._length = int(self.rbs.sum())
        self._total = int(self.bits.sum())
        self._prefix = None
        self._lo = 0
        self._table = None  # no size built yet

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


def _passes(sizes: range, length: int, total: int) -> list[list[int]]:
    """Split a range of group sizes into passes of consecutive sizes.

    A size joins the open pass while the pass's samples stay within
    PASS_SAMPLES and its keys below _KEY_LIMIT (every sum is at most the
    window's total bits); a size longer than the window always goes alone.
    """
    most = _KEY_LIMIT // (total + 1)
    passes, room = [], 0
    for g in sizes:
        t = length // g
        if 0 < t <= room and len(passes[-1]) < most:
            passes[-1].append(g)
            room -= t
        else:
            passes.append([g])
            room = PASS_SAMPLES - t
    return passes


def _pass(x_con: ConcatPerRbVector, gs: list[int]):
    """Build the consecutive group sizes gs: (unique values, counts, unique
    values per size, samples per size), in order of size."""
    pn, pd = x_con.prefix()
    length, total = len(x_con), x_con._total
    if len(gs) == 1:
        g = gs[0]
        t = length // g
        if t == 0:
            sums = np.array([_round_half_even_div(total * g, length)], dtype=np.int64)
        else:
            a = pn[0 : t * g + 1 : g]
            if pd is None:
                sums = np.diff(a)
            else:
                d = pd[0 : t * g + 1 : g]
                sums = _round_half_even_div(a[1:] * d[:-1] - a[:-1] * d[1:], d[:-1] * d[1:])
        vals, counts = unique_counts(np.maximum(sums, 1).astype(np.float64))
        return vals, counts, [len(vals)], [len(sums)]
    sizes = np.array(gs)
    t = length // sizes
    step = np.repeat(sizes, t)
    # group k of size g spans prefix boundaries k*g and (k + 1)*g
    left = (np.arange(len(step)) - np.repeat(np.cumsum(t) - t, t)) * step
    right = left + step
    if pd is None:
        sums = pn[right] - pn[left]
    else:
        d0, d1 = pd[left], pd[right]
        sums = _round_half_even_div(pn[right] * d0 - pn[left] * d1, d0 * d1)
    # one sort for every size: key i*k + sum orders by size index i, then sum
    k = total + 1
    keys, counts = np.unique(np.repeat(np.arange(len(gs)) * k, t) + np.maximum(sums, 1), return_counts=True)
    which = keys // k
    vals = (keys - which * k).astype(np.float64)
    return vals, counts.astype(np.float64), np.bincount(which, minlength=len(gs)), t


def _extend(x_con: ConcatPerRbVector, n_min: int, n_cell: int) -> None:
    """Extend the window's table to cover n_min..n_cell: the sizes below its
    range and above it are built, and the three blocks joined once."""
    if x_con._table is None:
        lo, hi, old = n_min, n_min - 1, []
    else:
        vals, counts, offsets, t = x_con._table
        lo, hi, old = x_con._lo, x_con._lo + len(t) - 1, [(vals, counts, np.diff(offsets), t)]
    if lo <= n_min and n_cell <= hi:
        return
    length, total = len(x_con), x_con._total
    # a group inside the window sums to at most the total, and the scaled
    # group of a size g above the length to total * g / length
    if total * max(length, n_cell) >= _KEY_LIMIT * length:
        raise ValueError(
            "capacity window too large for exact float64 samples: a group sum "
            f"can reach 2^53 (total {total} bits over {length} RBs, groups up to {n_cell})"
        )
    low = [_pass(x_con, gs) for gs in _passes(range(n_min, lo), length, total)]
    high = [_pass(x_con, gs) for gs in _passes(range(hi + 1, n_cell + 1), length, total)]
    vals, counts, val_sizes, t = (np.concatenate(part) for part in zip(*low, *old, *high))
    offsets = np.concatenate(([0], np.cumsum(val_sizes)))
    for arr in (vals, counts, offsets, t):
        arr.flags.writeable = False
    x_con._lo, x_con._table = min(lo, n_min), (vals, counts, offsets, t)


def build_capacity_samples(x_con: ConcatPerRbVector, n_min: int, n_cell: int) -> CapacitySampleSet:
    """Group the per-RB stream into service samples for every region n.

    Region n uses groups of n + n_min consecutive entries; trailing partial
    groups are discarded.  A window shorter than one group yields a single
    linearly scaled sample (logged as degraded).  Group sizes already built on
    this window are taken from its table; the table covers one range of
    sizes, so a request that leaves a gap to it also builds the sizes in the
    gap.  The result is the same whatever the order of the requests.
    """
    if n_min < 1:
        raise ValueError("n_min must be positive")
    if n_min > n_cell:
        raise ValueError("n_min must not exceed n_cell")
    length = len(x_con)
    if length == 0:
        raise ValueError("capacity window is empty")
    _extend(x_con, n_min, n_cell)
    vals, counts, offsets, t = x_con._table
    # length // g only falls with g, so exactly the groups above the window length are scaled
    if n_cell > length:
        log.info("capacity window of %d entries shorter than some group sizes; scaled fallback used", length)
    a, b = n_min - x_con._lo, n_cell - x_con._lo + 1
    lo, hi = offsets[a], offsets[b]
    return CapacitySampleSet._of_table(n_min, t[a:b], vals[lo:hi], counts[lo:hi], offsets[a : b + 1] - lo)
