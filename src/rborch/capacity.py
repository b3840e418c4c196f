"""Service-capacity samples by exact grouping of a window of packet runs.

A transmitted packet of `bits` bits that consumed `rbs` RBs spreads bits/rbs
over each of its RBs; in a channel-rate window every run has rbs = 1.
Region n regroups that per-RB stream into consecutive groups of g = n + n_min
RBs, and each group's exact rational sum, rounded half-even to whole bits, is
one service sample.  All arithmetic is exact int64: each run's per-RB value
is reduced to lowest terms num/den, and the prefix sum at RB boundary b is
pn[b] / pd[b], where pd[b] is the den of the run holding b.  In a whole-bit
window, where every run's bits are a multiple of its RBs (a channel-rate
window among them), every den is 1: the prefix is whole bits and a group sum
is a plain difference, with no rounding.

The delay bound reads a region's samples only through their distinct values,
how often each occurs and how many there are, and none of these depends on
n_min.  So each window keeps one read-only table over one contiguous range of
group sizes lo..hi: each size's sorted unique values and counts, back to back
with per-size offsets, and each size's sample count.  The samples themselves
are never kept.  A size of the range may be a hole, with no values and a
sample count of 0: the bound weights region n by pi_n and reads nothing of a
region with pi_n = 0, so a build given pi leaves unbuilt what it does not
read.  A build for n_min..n_cell extends the range at whichever ends it must,
so a request that leaves a gap to the range also plans the sizes in the gap,
fills the holes it reads, and returns its sizes as a CapacitySampleSet over a
slice of the table.

New sizes are planned in passes, separately below the range, in each run of
holes the request reads and above the range: consecutive sizes whose samples
fit in PASS_SAMPLES share one gather of the prefix, one rounding and one
distinct-value step over (size, sum) keys, which keeps numpy's per-call cost
off the many short sizes of a packet window; a size with more samples, or
longer than the window, is planned alone.  A pass is built only when it holds
a size the request reads, and otherwise left as holes.  So a long window,
whose every size is alone in its pass, builds only the sizes read, and a
short window, whose passes pack many sizes, stays without holes.  A pass
finds its distinct int64 keys and their counts by counting them
(np.bincount) when their span is within _COUNT_SPAN times its sample count,
as with the near-constant sums of a whole-bit window, and by sorting them
otherwise, as with the (size, sum) keys of a multi-size pass, which span the
sizes times the window's total bits; only the distinct values are cast to
float64.
"""

from __future__ import annotations

import logging

import numpy as np

from .martingale import CapacitySampleSet
from .rt import whole_numbers

log = logging.getLogger(__name__)

# cross products of prefix numerators and denominators stay below this; half
# the int64 range, so checking it in float64 leaves ample margin
_INT64_LIMIT = 1 << 62
# a pass packs consecutive group sizes while their samples stay within this many
PASS_SAMPLES = 1024
# a pass counts its distinct sums when their span is within this many times
# its sample count, and sorts them otherwise
_COUNT_SPAN = 4
# group sums and the (size index, sum) keys of a pass stay below this, so
# they are exact in float64 too
_KEY_LIMIT = 1 << 53
# the values and counts of a hole
_NO_VALUES = np.empty(0)


class ConcatPerRbVector:
    """Per-RB capacity stream of one window, run-length encoded as packet runs.

    Run j spreads bits[j] evenly over rbs[j] consecutive RBs; it is whole-bit
    when bits[j] is a multiple of rbs[j].  The exact prefix (whole bits when
    every run is whole-bit, else over each run's reduced denominator) is
    built on first use and kept with the window, and so is the
    table of group sizes _lo.._lo + len(t) - 1 built on it: (unique values,
    counts, offsets, t), where size g owns vals/counts over
    offsets[g - _lo]:offsets[g - _lo + 1] and has t[g - _lo] samples.  A
    size not built yet is a hole: t[g - _lo] is 0 and it owns no values,
    while every built size has one sample at least.  Every build on the
    window shares them.
    """

    __slots__ = ("bits", "rbs", "_length", "_total", "_prefix", "_lo", "_table")

    def __init__(self, bits, rbs):
        self.bits = whole_numbers(bits, "run bits")
        self.rbs = whole_numbers(rbs, "run RB counts")
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

        Run j's per-RB value bits[j] / rbs[j] is taken in lowest terms num / den,
        and pd[b] is the den of the run holding boundary b.  pd is None when every
        run is whole-bit (its bits a multiple of its RBs, as every single-RB run
        is): the prefix is then whole bits.
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
                per_rb = bits  # unit runs: whole bits as they are
            else:
                # run j's per-RB value bits[j] / rbs[j] in lowest terms num[j] / den[j]
                common = np.gcd(bits, rbs)
                num, den = bits // common, rbs // common
                per_rb = np.repeat(num, rbs) if den.max() == 1 else None
            if per_rb is not None:
                pn, pd = np.zeros(len(per_rb) + 1, dtype=np.int64), None
                np.cumsum(per_rb, out=pn[1:])
            else:
                # boundary b at offset k of run j: pn = B[j]*den[j] + k*num[j], pd = den[j],
                # with B the bits before run j; the end boundary is offset rbs[-1] of the last run
                counts = rbs.copy()
                counts[-1] += 1
                pd = np.repeat(den, counts)
                # pn steps by num[j] inside run j and jumps to B[j]*den[j] where run j starts
                pn = np.repeat(num, counts)
                first = (np.cumsum(bits) - bits) * den
                last = first + (rbs - 1) * num
                pn[0] = 0
                pn[np.cumsum(rbs[:-1])] = first[1:] - last[:-1]
                np.cumsum(pn, out=pn)
            self._prefix = (pn, pd)
        return self._prefix


def _round_half_even_div(num, den):
    """Exact round-to-nearest-even of num / den, den > 0 (int64 arrays or Python ints)."""
    q, r = divmod(num, den)
    # up when the remainder passes half, or is exactly half and q is odd
    return q + (2 * r + (q & 1) > den)


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, their counts) of int64 keys: counted over their
    span when it is within _COUNT_SPAN times the number of keys, else sorted."""
    lo = keys.min()
    if keys.max() - lo < _COUNT_SPAN * len(keys):
        counts = np.bincount(keys - lo)
        vals = np.flatnonzero(counts)
        return vals + lo, counts[vals]
    keys = np.sort(keys)
    # starts of the runs of equal keys, and the end of the last run
    edges = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    return keys[edges[:-1]], edges[1:] - edges[:-1]


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
                sums = a[1:] - a[:-1]
            else:
                d = pd[0 : t * g + 1 : g]
                sums = _round_half_even_div(a[1:] * d[:-1] - a[:-1] * d[1:], d[:-1] * d[1:])
        vals, counts = _distinct(np.maximum(sums, 1))
        return vals.astype(np.float64), counts.astype(np.float64), [len(vals)], [len(sums)]
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
    # key i*k + sum orders by size index i, then sum
    k = total + 1
    keys, counts = _distinct(np.repeat(np.arange(len(gs)) * k, t) + np.maximum(sums, 1))
    which = keys // k
    vals = (keys - which * k).astype(np.float64)
    return vals, counts.astype(np.float64), np.bincount(which, minlength=len(gs)), t


def _plan(x_con: ConcatPerRbVector, sizes: range, wanted: set[int]) -> list[tuple]:
    """Table blocks for the consecutive sizes: each pass of _passes that holds
    a wanted size is built, and every run of other passes left as holes."""
    blocks, skipped = [], 0
    for gs in _passes(sizes, len(x_con), x_con._total):
        if wanted.isdisjoint(gs):
            skipped += len(gs)
            continue
        if skipped:
            blocks.append(_hole_block(skipped))
            skipped = 0
        blocks.append(_pass(x_con, gs))
    if skipped:
        blocks.append(_hole_block(skipped))
    return blocks


def _hole_block(k: int) -> tuple:
    """Table block of k holes: no values, no samples."""
    return _NO_VALUES, _NO_VALUES, np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)


def _extend(x_con: ConcatPerRbVector, n_min: int, n_cell: int, pi) -> None:
    """Extend the window's table to cover n_min..n_cell and to hold every size
    n_min + n with pi_n != 0 (every size if pi is None): the sizes below its
    range, each run of holes holding a read size and the sizes above it are
    planned, and the blocks joined once."""
    # t[g - lo] samples of size g, 0 for a hole: every built size has one at least
    lo, t = (n_min, ()) if x_con._table is None else (x_con._lo, x_con._table[3])
    hi = lo + len(t) - 1
    if lo <= n_min and n_cell <= hi and np.count_nonzero(t) == len(t):
        return  # a table without holes holds every size of its range
    wanted = set(range(n_min, n_cell + 1)) if pi is None else {n + n_min for n in np.flatnonzero(pi).tolist()}
    fill = sorted(g for g in wanted if lo <= g <= hi and not t[g - lo])
    if lo <= n_min and n_cell <= hi and not fill:
        return
    length, total = len(x_con), x_con._total
    # a group inside the window sums to at most the total, and the scaled
    # group of a size g above the length to total * g / length
    if total * max(length, n_cell) >= _KEY_LIMIT * length:
        raise ValueError(
            "capacity window too large for exact float64 samples: a group sum "
            f"can reach 2^53 (total {total} bits over {length} RBs, groups up to {n_cell})"
        )
    blocks = _plan(x_con, range(n_min, lo), wanted)
    if x_con._table is not None:
        vals, counts, offsets, t = x_con._table
        val_sizes, i = offsets[1:] - offsets[:-1], 0
        for g in fill:
            if g - lo < i:
                continue  # in a run of holes already planned
            # the maximal run of holes around g within the range, planned afresh from its first size
            first, last = g - lo, g - lo
            while first > 0 and not t[first - 1]:
                first -= 1
            while last + 1 < len(t) and not t[last + 1]:
                last += 1
            a, b = offsets[i], offsets[first]
            blocks.append((vals[a:b], counts[a:b], val_sizes[i:first], t[i:first]))
            blocks += _plan(x_con, range(lo + first, lo + last + 1), wanted)
            i = last + 1
        a = offsets[i]
        blocks.append((vals[a:], counts[a:], val_sizes[i:], t[i:]))
    blocks += _plan(x_con, range(hi + 1, n_cell + 1), wanted)
    vals, counts, val_sizes, t = (np.concatenate(part) for part in zip(*blocks))
    offsets = np.concatenate(([0], np.cumsum(val_sizes)))
    for arr in (vals, counts, offsets, t):
        arr.flags.writeable = False
    x_con._lo, x_con._table = min(lo, n_min), (vals, counts, offsets, t)


def build_capacity_samples(x_con: ConcatPerRbVector, n_min: int, n_cell: int, pi=None) -> CapacitySampleSet:
    """Group the per-RB stream into service samples for every region n that pi reads.

    Region n uses groups of n + n_min consecutive entries; trailing partial
    groups are discarded.  A window shorter than one group yields a single
    linearly scaled sample (logged as degraded).  pi, the region weights the
    bound will use (n_cell - n_min + 1 entries), lets the build skip every
    pass whose regions all have pi_n = 0, leaving their sizes holes: no
    values and a sample count of 0.  None reads every region, which leaves no
    hole in n_min..n_cell.  Group sizes already built on this window are
    taken from its table, so nothing is built twice.  Every region the
    request reads is the same whatever the order of the requests.
    """
    if n_min < 1:
        raise ValueError("n_min must be positive")
    if n_min > n_cell:
        raise ValueError("n_min must not exceed n_cell")
    length = len(x_con)
    if length == 0:
        raise ValueError("capacity window is empty")
    if pi is not None and len(pi) != n_cell - n_min + 1:
        raise ValueError(f"pi must have n_cell - n_min + 1 = {n_cell - n_min + 1} entries, got {len(pi)}")
    _extend(x_con, n_min, n_cell, pi)
    vals, counts, offsets, t = x_con._table
    # length // g only falls with g, so exactly the groups above the window length are scaled
    if n_cell > length:
        log.info("capacity window of %d entries shorter than some group sizes; scaled fallback used", length)
    a, b = n_min - x_con._lo, n_cell - x_con._lo + 1
    lo, hi = offsets[a], offsets[b]
    return CapacitySampleSet._of_table(n_min, t[a:b], vals[lo:hi], counts[lo:hi], offsets[a : b + 1] - lo)
