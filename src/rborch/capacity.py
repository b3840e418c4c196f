"""Service-capacity samples by exact grouping of a window of packet runs.

A transmitted packet of `bits` bits that consumed `rbs` RBs spreads bits/rbs
over each of its RBs; in a channel-rate window every run has rbs = 1.
Region n regroups that per-RB stream into consecutive groups of g = n + n_min
RBs, and each group's exact rational sum, rounded half-even to whole bits, is
one service sample.  All arithmetic is exact int64: the prefix sum at RB
boundary b is pn[b] / pd[b], where pd[b] is the length of the run holding b.

The samples of group size g do not depend on n_min, so each window keeps
every group size it has built: each size's read-only samples, and one table,
ordered by g, of each size's sorted unique values and their counts with per-g
offsets.  A build adds only the sizes the window lacks and returns its sizes
n_min..n_cell as a CapacitySampleSet whose unique values and counts are a
slice of that table.  The samples stay one array per size: nothing on the
decision path reads them, and copying them into one table per window put a
long window's samples in fresh memory, which made decisions on long windows
slower.

Missing sizes are built in passes: consecutive sizes whose samples fit in
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
# (size index, sum) keys of a pass stay below this, so they and the sums are exact in float64 too
_KEY_LIMIT = 1 << 53
# (unique values, counts, offsets): size g owns vals/counts[offsets[g]:offsets[g + 1]],
# nothing while it is not built
_EMPTY_TABLE = (np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64))


class ConcatPerRbVector:
    """Per-RB capacity stream of one window, run-length encoded as packet runs.

    Run j spreads bits[j] evenly over rbs[j] consecutive RBs.  The exact
    prefix is built on first use and kept with the window, and so are the
    samples of every group size built on it (`_samples[g]`, None until built)
    and their unique-value table, so every build on the window shares them.
    """

    __slots__ = ("bits", "rbs", "_length", "_total", "_prefix", "_samples", "_table")

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
        self._samples: list[np.ndarray | None] = []
        self._table = _EMPTY_TABLE

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


def _passes(missing: list[int], length: int, total: int) -> list[list[int]]:
    """Split ascending group sizes into passes of consecutive sizes.

    A size joins the open pass when it follows the pass's last size and the
    pass's samples stay within PASS_SAMPLES and its keys below _KEY_LIMIT
    (every sum is at most the window's total bits); a size longer than the
    window always goes alone.
    """
    most = _KEY_LIMIT // (total + 1)
    passes, room = [], 0
    for g in missing:
        t = length // g
        if 0 < t <= room and len(passes[-1]) < most and g == passes[-1][-1] + 1:
            passes[-1].append(g)
            room -= t
        else:
            passes.append([g])
            room = PASS_SAMPLES - t
    return passes


def _pass(x_con: ConcatPerRbVector, gs: list[int]):
    """Build the consecutive group sizes gs: (read-only float64 samples of
    each size, unique values, counts, unique values per size), in order of size."""
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
        samples = np.maximum(sums, 1).astype(np.float64)
        samples.flags.writeable = False
        vals, counts = unique_counts(samples)
        return [samples], vals, counts, [len(vals)]
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
    sums = np.maximum(sums, 1)
    samples = sums.astype(np.float64)
    samples.flags.writeable = False
    # one sort for every size: key i*k + sum orders by size index i, then sum
    k = total + 1
    keys, counts = np.unique(np.repeat(np.arange(len(gs)) * k, t) + sums, return_counts=True)
    which = keys // k
    vals = (keys - which * k).astype(np.float64)
    ends = np.cumsum(t).tolist()
    per_size = [samples[a:b] for a, b in zip([0] + ends, ends)]
    return per_size, vals, counts.astype(np.float64), np.bincount(which, minlength=len(gs))


def _add_groups(x_con: ConcatPerRbVector, missing: list[int]) -> None:
    """Build the ascending sizes `missing`, none built yet and all covered by
    the window's offsets, and splice their unique values and counts in."""
    vals, counts, offsets = x_con._table
    new_vals, new_counts, val_sizes = [], [], []
    for gs in _passes(missing, len(x_con), x_con._total):
        samples, got_vals, got_counts, got_sizes = _pass(x_con, gs)
        x_con._samples[gs[0] : gs[-1] + 1] = samples
        new_vals.append(got_vals)
        new_counts.append(got_counts)
        val_sizes.append(got_sizes)
    val_sizes = np.concatenate(val_sizes)
    at = offsets[missing].tolist()
    lens = np.diff(offsets)
    lens[missing] = val_sizes
    vals = _splice(vals, at, np.concatenate(new_vals), val_sizes)
    counts = _splice(counts, at, np.concatenate(new_counts), val_sizes)
    vals.flags.writeable = counts.flags.writeable = False
    x_con._table = vals, counts, np.concatenate(([0], np.cumsum(lens)))


def _splice(old: np.ndarray, at: list[int], new: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """`old` with the consecutive blocks of `new` (block i: sizes[i] entries) inserted before old[at[i]]."""
    if not len(old):
        return new
    pieces, o, n = [], 0, 0
    for p, size in zip(at, sizes.tolist()):
        pieces += (old[o:p], new[n : n + size])
        o, n = p, n + size
    pieces.append(old[o:])
    return np.concatenate(pieces)


def build_capacity_samples(x_con: ConcatPerRbVector, n_min: int, n_cell: int) -> CapacitySampleSet:
    """Group the per-RB stream into service samples for every region n.

    Region n uses groups of n + n_min consecutive entries; trailing partial
    groups are discarded.  A window shorter than one group yields a single
    linearly scaled sample (logged as degraded).  Group sizes already built on
    this window are taken from its table.
    """
    if n_min < 1:
        raise ValueError("n_min must be positive")
    if n_min > n_cell:
        raise ValueError("n_min must not exceed n_cell")
    length = len(x_con)
    if length == 0:
        raise ValueError("capacity window is empty")
    samples = x_con._samples
    if len(samples) <= n_cell:  # sizes up to n_cell get their places, empty until built
        samples += [None] * (n_cell + 1 - len(samples))
        vals, counts, offsets = x_con._table
        x_con._table = vals, counts, np.pad(offsets, (0, n_cell + 2 - len(offsets)), mode="edge")
    missing = [g for g in range(n_min, n_cell + 1) if samples[g] is None]
    if missing:
        _add_groups(x_con, missing)
    vals, counts, offsets = x_con._table
    # length // g only falls with g, so exactly the groups above the window length are scaled
    if n_cell > length:
        log.info("capacity window of %d entries shorter than some group sizes; scaled fallback used", length)
    lo, hi = offsets[n_min], offsets[n_cell + 1]
    return CapacitySampleSet._of_table(
        n_min, samples[n_min : n_cell + 1], vals[lo:hi], counts[lo:hi], offsets[n_min : n_cell + 2] - lo
    )
