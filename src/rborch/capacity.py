"""Service-capacity samples by exact grouping of a window of packet runs.

A transmitted packet of `bits` bits that consumed `rbs` RBs spreads bits/rbs
over each of its RBs; in a channel-rate window every run has rbs = 1.
Region n regroups that per-RB stream into consecutive groups of g = n + n_min
RBs, and each group's exact rational sum, rounded half-even to whole bits, is
one service sample.  A window is of one of two kinds.  In a uniform window
every RB carries one value, total / length (a constant channel, or packets
whose sizes are multiples of a constant rate), so every group of g RBs sums
to g * total / length.  Any other window groups a size within its length over
the exact rational prefix, in int64: each run's per-RB value is reduced to
lowest terms num/den, and the prefix sum at RB boundary b is pn[b] / pd[b],
where pd[b] is the den of the run holding b.  Each exact form refuses a window
whose int64 products could reach 2^62, and the total is summed exactly, also
beyond int64.  One closed form serves every size of a uniform window and, in
a window of either kind, the scaled group of a size longer than the window:
size g holds the one value max(1, round_half_even(g * total, length)) in
max(1, length // g) samples, with no prefix.

The delay bound reads a region's samples only through their distinct values,
how often each occurs and how many there are, and none of these depends on
n_min.  So each window keeps one read-only table over the group sizes 1..hi:
each size's sorted unique values and counts, back to back with per-size
offsets, and each size's sample count.  The samples themselves are never
kept.  A size may be a hole, with no values and a sample count of 0: the
bound weights region n by pi_n and reads nothing of a region with pi_n = 0,
so a build given pi leaves unbuilt what it does not read.  A build for
n_min..n_cell grows the table with holes to cover n_cell, builds the sizes
it reads that are holes, and returns its sizes as a CapacitySampleSet over a
slice of the table.

Sizes are built in passes along one grid per window, _passes from size 1:
consecutive sizes whose samples fit in PASS_SAMPLES share one gather of the
prefix, one rounding and one distinct-value step over (size, sum) keys,
which keeps numpy's per-call cost off the many short sizes of a packet
window; a size with more samples, or longer than the window, is a pass of
its own.  A uniform window's grid is one pass over every size.  A request
builds each grid pass that holds a size it reads, from the pass's first hole
up to n_cell, and leaves the other passes holes.  The grid depends on the
window only, so what a size holds does not depend on which requests came
before.  A long window, whose every size is alone in its pass, builds only
the sizes read; a short window, whose passes pack many sizes, builds them
with few passes, sizes below n_min included.  A pass finds its distinct
int64 keys and their counts by counting them (np.bincount) when their span
is within _COUNT_SPAN times its sample count, as with the sums of one size
over near-constant RB values, and by sorting them otherwise, as with the
(size, sum) keys of a multi-size pass, which span the sizes times the
window's total bits; only the distinct values are cast to float64.
"""

from __future__ import annotations

import bisect
import logging

import numpy as np

from .martingale import CapacitySampleSet
from .rt import _NEVER, exact_sum, whole_numbers

log = logging.getLogger(__name__)

# a pass packs consecutive group sizes while their samples stay within this many
PASS_SAMPLES = 1024
# a pass counts its distinct sums when their span is within this many times
# its sample count, and sorts them otherwise
_COUNT_SPAN = 4
# group sums and the (size index, sum) keys of a pass stay below this, so
# they are exact in float64 too
_KEY_LIMIT = 1 << 53
# the table of a window with no size built
_EMPTY_TABLE = (np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64))


class ConcatPerRbVector:
    """Per-RB capacity stream of one window, run-length encoded as packet runs.

    Run j spreads bits[j] evenly over rbs[j] consecutive RBs.  Whether the
    window is uniform, every run at the per-RB value bits[0] / rbs[0], is
    decided once on its first build; a uniform window's sizes are in closed
    form, and it never builds a prefix.  Any other window's exact rational
    prefix is built on first use and kept with the window, and so are the
    bounds of its pass grid and the table of group sizes 1..len(t) built on
    it: (unique values, counts, offsets, t), where size g owns vals/counts
    over offsets[g - 1]:offsets[g] and has t[g - 1] samples.  A size not
    built yet is a hole: t[g - 1] is 0 and it owns no values, while every
    built size has one sample at least.  Every build on the window shares
    them.
    """

    __slots__ = ("bits", "rbs", "_length", "_total", "_prefix", "_uniform", "_grid", "_table")

    def __init__(self, bits, rbs):
        self.bits = whole_numbers(bits, "run bits")
        self.rbs = whole_numbers(rbs, "run RB counts")
        if self.bits.ndim != 1 or self.rbs.ndim != 1:
            raise ValueError("run arrays must be 1-d")
        if len(self.bits) != len(self.rbs):
            raise ValueError("run arrays must have equal length")
        if len(self.bits) and (np.any(self.bits <= 0) or np.any(self.rbs <= 0)):
            raise ValueError("per-RB values must be positive")
        self._length = int(self.rbs.sum())
        self._total = exact_sum(self.bits, int(self.bits.max(initial=0)))
        self._prefix = None
        self._uniform = None  # decided on the first build
        self._grid = [1]
        self._table = _EMPTY_TABLE  # no size built yet

    def __len__(self) -> int:
        return self._length

    def uniform(self) -> bool:
        """Whether every RB carries one value, bits[0] / rbs[0]: bits[j] * rbs[0]
        == bits[0] * rbs[j] for every run j, decided once in exact int64."""
        if self._uniform is None:
            if int(self.bits.max()) * int(self.rbs.max()) >= _NEVER:
                raise ValueError("capacity window too large for int64: max(bits) * max(rbs) must stay below 2^62")
            self._uniform = bool(np.all(self.bits * self.rbs[0] == self.bits[0] * self.rbs))
        return self._uniform

    def prefix(self) -> tuple[np.ndarray, np.ndarray]:
        """(pn, pd): the exact sum of the first b entries is pn[b] / pd[b], b = 0..len.

        Run j's per-RB value bits[j] / rbs[j] is taken in lowest terms num / den,
        and pd[b] is the den of the run holding boundary b: 1 in a run whose
        bits are a multiple of its RBs, as in every single-RB run.  _pass
        multiplies a numerator, at most sum(bits) * max(den), by a den.
        """
        if self._prefix is None:
            bits, rbs = self.bits, self.rbs
            # run j's per-RB value bits[j] / rbs[j] in lowest terms num[j] / den[j]
            common = np.gcd(bits, rbs)
            num, den = bits // common, rbs // common
            if self._total * int(den.max()) ** 2 >= _NEVER:
                raise ValueError("capacity window too large for int64: sum(bits) * max(den)^2 must stay below 2^62")
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


def _passes(x_con: ConcatPerRbVector, top: int) -> list[int]:
    """The window's pass grid through the pass that holds size top: bounds
    b with pass i over sizes b[i]..b[i + 1] - 1, from b[0] = 1.

    A uniform window's grid is one pass over every size, [1, 2^62].
    Otherwise, from size 1 up, a size joins the open pass while the pass's
    samples stay within PASS_SAMPLES and its keys below _KEY_LIMIT (every sum
    is at most the window's total bits); a size longer than the window always
    goes alone.  The grid depends on the window only, and is kept on it.
    """
    if x_con.uniform():
        return [1, _NEVER]
    bounds, length = x_con._grid, len(x_con)
    most = _KEY_LIMIT // (x_con._total + 1)
    while bounds[-1] <= top:
        first = g = bounds[-1]
        room = PASS_SAMPLES - length // g
        g += 1
        while g - first < most and 0 < length // g <= room:
            room -= length // g
            g += 1
        bounds.append(g)
    return bounds


def _pass(x_con: ConcatPerRbVector, gs: list[int]):
    """Build the consecutive group sizes gs: (unique values, counts, unique
    values per size, samples per size), in order of size.

    In a uniform window, and for a size longer than the window (alone in its
    pass), size g holds the one value max(1, round_half_even(g * total,
    length)) in max(1, length // g) samples: the sum of every group of g RBs
    when every RB carries total / length, and the scaled group otherwise.
    Every other size sums its groups over the exact prefix.
    """
    length, total = len(x_con), x_con._total
    if x_con.uniform() or length // gs[0] == 0:
        vals = np.array([max(1, _round_half_even_div(g * total, length)) for g in gs], dtype=np.float64)
        t = np.maximum(length // np.array(gs), 1)
        return vals, t.astype(np.float64), np.ones(len(gs), dtype=np.int64), t
    pn, pd = x_con.prefix()
    if len(gs) == 1:
        g = gs[0]
        t = length // g
        a, d = pn[0 : t * g + 1 : g], pd[0 : t * g + 1 : g]
        sums = _round_half_even_div(a[1:] * d[:-1] - a[:-1] * d[1:], d[:-1] * d[1:])
        vals, counts = _distinct(np.maximum(sums, 1))
        return vals.astype(np.float64), counts.astype(np.float64), [len(vals)], [len(sums)]
    sizes = np.array(gs)
    t = length // sizes
    step = np.repeat(sizes, t)
    # group k of size g spans prefix boundaries k*g and (k + 1)*g
    left = (np.arange(len(step)) - np.repeat(np.cumsum(t) - t, t)) * step
    right = left + step
    d0, d1 = pd[left], pd[right]
    sums = _round_half_even_div(pn[right] * d0 - pn[left] * d1, d0 * d1)
    # key i*k + sum orders by size index i, then sum
    k = total + 1
    keys, counts = _distinct(np.repeat(np.arange(len(gs)) * k, t) + np.maximum(sums, 1))
    which = keys // k
    vals = (keys - which * k).astype(np.float64)
    return vals, counts.astype(np.float64), np.bincount(which, minlength=len(gs)), t


def _extend(x_con: ConcatPerRbVector, n_min: int, n_cell: int, pi: np.ndarray) -> None:
    """Build every size n_min + n with pi_n != 0 that the window's table does
    not hold yet: the table first grows with holes to cover n_cell, then each
    grid pass holding such a size is built from its first hole up to n_cell,
    and the kept slices and the new blocks are joined once."""
    vals, counts, offsets, t = x_con._table
    if n_cell <= len(t):
        # every size read is built: t_n * pi_n != 0 wherever pi_n != 0 (t_n >= 1 keeps a tiny pi_n)
        if np.count_nonzero(t[n_min - 1 : n_cell] * pi) == np.count_nonzero(pi):
            return
    holes = max(n_cell - len(t), 0)
    offsets = np.concatenate((offsets, offsets[-1:].repeat(holes)))
    t = np.concatenate((t, np.zeros(holes, dtype=np.int64)))
    built = t.tolist()
    missing = [g for g in (n_min + np.flatnonzero(pi)).tolist() if not built[g - 1]]
    # the new passes, as the sizes first..end - 1 that each builds
    spans = []
    if missing:
        bounds = _passes(x_con, missing[-1])
        for i in sorted({bisect.bisect_right(bounds, g) - 1 for g in missing}):
            # the pass's sizes from its first hole (an earlier request may have
            # built it up to a smaller n_cell) up to n_cell
            first = bounds[i]
            while built[first - 1]:
                first += 1
            spans.append((first, min(bounds[i + 1], n_cell + 1)))
    per_size = offsets[1:] - offsets[:-1]
    blocks, done = [], 0  # the blocks so far hold sizes 1..done
    for first, end in spans + [(len(t) + 1, None)]:
        # the table's own sizes done + 1..first - 1, then the pass
        lo, hi = offsets[done], offsets[first - 1]
        blocks.append((vals[lo:hi], counts[lo:hi], per_size[done : first - 1], t[done : first - 1]))
        if end is not None:
            blocks.append(_pass(x_con, list(range(first, end))))
            done = end - 1
    vals, counts, val_sizes, t = (np.concatenate(part) for part in zip(*blocks))
    offsets = np.concatenate(([0], np.cumsum(val_sizes)))
    for arr in (vals, counts, offsets, t):
        arr.flags.writeable = False
    x_con._table = (vals, counts, offsets, t)


def build_capacity_samples(x_con: ConcatPerRbVector, n_min: int, n_cell: int, pi=None) -> CapacitySampleSet:
    """Group the per-RB stream into service samples for every region n that pi reads.

    Region n uses groups of n + n_min consecutive entries; trailing partial
    groups are discarded.  A window shorter than one group yields a single
    linearly scaled sample (logged as degraded).  pi, the region weights the
    bound will use (n_cell - n_min + 1 entries), lets the build skip every
    grid pass that holds no size n_min + n with pi_n != 0, leaving its sizes
    holes: no values and a sample count of 0.  None stands for a pi of
    ones, which leaves no hole in n_min..n_cell.  Group sizes already built on
    this window are taken from its table, so nothing is built twice.  A
    uniform window (ConcatPerRbVector.uniform) builds no prefix: a request
    that reads a hole fills every hole up to n_cell in closed form.  Every
    region the request reads, and whether the request is refused, is the
    same whatever the order of the requests.
    """
    if n_min < 1:
        raise ValueError("n_min must be positive")
    if n_min > n_cell:
        raise ValueError("n_min must not exceed n_cell")
    length, total = len(x_con), x_con._total
    if length == 0:
        raise ValueError("capacity window is empty")
    pi = np.ones(n_cell - n_min + 1) if pi is None else np.asarray(pi)
    if len(pi) != n_cell - n_min + 1:
        raise ValueError(f"pi must have n_cell - n_min + 1 = {n_cell - n_min + 1} entries, got {len(pi)}")
    # a group inside the window sums to at most the total, and the scaled
    # group of a size g above the length to total * g / length
    if total * max(length, n_cell) >= _KEY_LIMIT * length:
        raise ValueError(
            "capacity window too large for exact float64 samples: a group sum "
            f"can reach 2^53 (total {total} bits over {length} RBs, groups up to {n_cell})"
        )
    _extend(x_con, n_min, n_cell, pi)
    vals, counts, offsets, t = x_con._table
    # length // g only falls with g, so exactly the groups above the window length are scaled
    if n_cell > length:
        log.info("capacity window of %d entries shorter than some group sizes; scaled fallback used", length)
    a, b = n_min - 1, n_cell
    lo, hi = offsets[a], offsets[b]
    return CapacitySampleSet._of_table(n_min, t[a:b], vals[lo:hi], counts[lo:hi], offsets[a : b + 1] - lo)
