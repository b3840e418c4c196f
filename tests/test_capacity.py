import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rborch.capacity
from rborch.capacity import PASS_SAMPLES, ConcatPerRbVector, build_capacity_samples
from rborch.martingale import ArrivalSampleSet, delay_bound
from rborch.near_rt import ServiceSpec, ServiceWindow, allocate, brute_force_allocate


def channel(values):
    """Channel-rate window: one RB per value."""
    return ConcatPerRbVector(values, np.ones(len(values), dtype=np.int64))


def oracle_entries(bits, rbs):
    """Literal per-RB stream: each packet's bits/rbs repeated once per RB."""
    out = []
    for b, r in zip(bits, rbs):
        out.extend([Fraction(int(b), int(r))] * int(r))
    return out


def oracle_groups(bits, rbs):
    """g -> exact Fraction group sums rounded half-even, floored at one bit;
    a group longer than the window scales the whole window's sum."""
    csum = list(itertools.accumulate(oracle_entries(bits, rbs), initial=Fraction(0)))
    length = len(csum) - 1

    @functools.cache
    def group(g):
        t = length // g
        if t == 0:
            return [max(1, round(csum[-1] * g / length))]
        return [max(1, round(csum[(i + 1) * g] - csum[i * g])) for i in range(t)]

    return group


def oracle_samples(bits, rbs, n_min, n_cell):
    group = oracle_groups(bits, rbs)
    return [group(g) for g in range(n_min, n_cell + 1)]


def summary(samples):
    """(sorted unique values, their counts, sample count) of a list of samples."""
    vals, counts = np.unique(samples, return_counts=True)
    return vals.tolist(), counts.tolist(), len(samples)


def region(s, n):
    """What a CapacitySampleSet keeps of region n, in the form of summary()."""
    vals, counts = s.compressed(n)
    return vals.tolist(), counts.tolist(), int(s.t_n[n])


def assert_regions(s, expect):
    """Every region of s holds what the sample lists `expect` give, region by region."""
    assert len(s.t_n) == s.n_add + 1 == len(expect)
    assert [region(s, n) for n in range(s.n_add + 1)] == [summary(v) for v in expect]


def assert_matches_oracle(bits, rbs, n_min, n_cell):
    s = build_capacity_samples(ConcatPerRbVector(bits, rbs), n_min, n_cell)
    assert_regions(s, oracle_samples(bits, rbs, n_min, n_cell))


class TestExpandPacket:
    def test_even_split(self):
        s = build_capacity_samples(ConcatPerRbVector([100], [4]), 1, 1)
        assert_regions(s, [[25] * 4])

    def test_uneven_split_conserves_sum(self):
        s = build_capacity_samples(ConcatPerRbVector([100], [3]), 1, 3)
        assert region(s, 0) == summary([33] * 3)  # 100/3 per RB, rounded
        assert region(s, 2) == summary([100])  # the whole packet, exact

    def test_single_bit(self):
        s = build_capacity_samples(ConcatPerRbVector([1], [1]), 1, 1)
        assert_regions(s, [[1]])

    def test_zero_rbs_rejected(self):
        with pytest.raises(ValueError):
            ConcatPerRbVector([100], [0])


class TestConcatWindow:
    # groups of 4 RBs: the first group is the 100-bit packet, or two RBs of each packet
    def test_order_preserved(self):
        s = build_capacity_samples(ConcatPerRbVector([100, 60], [4, 2]), 4, 4)
        assert_regions(s, [[100]])

    def test_empty(self):
        x = ConcatPerRbVector([], [])
        assert len(x) == 0
        with pytest.raises(ValueError, match="empty"):
            build_capacity_samples(x, 1, 1)

    def test_reversed_order(self):
        s = build_capacity_samples(ConcatPerRbVector([60, 100], [2, 4]), 4, 4)
        assert_regions(s, [[110]])


class TestBuildCapacitySamples:
    def test_region_range(self):
        x = channel([10] * 100)
        s = build_capacity_samples(x, n_min=10, n_cell=25)
        assert s.n_add == 15
        assert s.t_n.tolist() == [100 // g for g in range(10, 26)]

    def test_group_sums_and_discard(self):
        x = channel([10] * 12)
        s = build_capacity_samples(x, n_min=5, n_cell=5)
        assert_regions(s, [[50, 50]])

    def test_short_window_fallback(self):
        x = channel([10] * 4)
        s = build_capacity_samples(x, n_min=5, n_cell=5)
        # sum 40 scaled by 5/4
        assert_regions(s, [[50]])

    def test_short_packet_window_logs_fallback(self, caplog):
        # 4 RBs of 25 bits against groups of 5: one scaled sample, round(100 * 5 / 4)
        with caplog.at_level("INFO", logger="rborch.capacity"):
            s = build_capacity_samples(ConcatPerRbVector([100], [4]), n_min=5, n_cell=6)
        assert_regions(s, [[125], [150]])
        assert "scaled fallback" in caplog.text

    def test_fallback_logged_on_every_build(self, caplog):
        # the second build takes both groups from the window's cache and must log again
        x = ConcatPerRbVector([100], [4])
        with caplog.at_level("INFO", logger="rborch.capacity"):
            build_capacity_samples(x, n_min=3, n_cell=5)
            build_capacity_samples(x, n_min=4, n_cell=5)
            build_capacity_samples(x, n_min=1, n_cell=4)  # no group longer than the window
        assert sum("scaled fallback" in r.getMessage() for r in caplog.records) == 2

    def test_constant_channel_exact(self):
        x = channel([25] * 60)
        s = build_capacity_samples(x, n_min=4, n_cell=9)
        assert_regions(s, [[g * 25] * (60 // g) for g in range(4, 10)])

    def test_conservation_with_tail(self):
        rng = np.random.default_rng(0)
        bits, rbs = rng.integers(1, 500, 97), rng.integers(1, 7, 97)
        x = ConcatPerRbVector(bits, rbs)
        pn, pd = x.prefix()
        csum = [Fraction(0)]
        for e in oracle_entries(bits, rbs):
            csum.append(csum[-1] + e)
        assert [Fraction(int(a), int(d)) for a, d in zip(pn, pd)] == csum
        total = Fraction(int(bits.sum()))
        for g in (3, 5, 8):
            t = len(x) // g
            groups = [csum[(i + 1) * g] - csum[i * g] for i in range(t)]
            tail = csum[-1] - csum[t * g]
            assert sum(groups) + tail == total

    def test_monotone_means_truncated(self):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 80, 200).tolist()
        x = np.asarray(vals, dtype=float)
        for g in range(3, 12):
            t = min(len(vals) // g, len(vals) // (g + 1))
            a = x[: t * g].sum() / t
            b = x[: t * (g + 1)].sum() / t
            assert b >= a - 1e-9

    def test_monotone_means_from_builder(self):
        # 2520 = lcm(4..10): every region covers the whole window, so its mean is total * g / 2520
        rng = np.random.default_rng(2)
        values = rng.integers(1, 60, 2520)
        s = build_capacity_samples(channel(values), n_min=4, n_cell=10)
        assert s.t_n.tolist() == [2520 // g for g in range(4, 11)]
        totals = [float(np.dot(*s.compressed(n))) for n in range(s.n_add + 1)]
        assert totals == [float(values.sum())] * 7
        means = np.array(totals) / s.t_n
        assert np.all(np.diff(means) > 0)

    def test_round_half_even_at_boundary(self):
        # entries of 12.5 bits, groups of 3 -> exact 37.5 -> banker's round to 38
        x = ConcatPerRbVector([25] * 6, [2] * 6)
        s = build_capacity_samples(x, n_min=3, n_cell=3)
        assert_regions(s, [[38, 38, 38, 38]])

    def test_fraction_path_matches_scaled_path(self):
        rng = np.random.default_rng(3)
        assert_matches_oracle(rng.integers(1, 900, 120), rng.integers(1, 9, 120), 3, 8)

    def test_huge_values_stay_exact(self):
        # coprime run lengths whose lcm is far beyond int64
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        bits = [10**9 + i for i in range(len(primes) * 4)]
        assert_matches_oracle(bits, primes * 4, 3, 40)

    def test_prefix_built_once_per_window(self):
        x = ConcatPerRbVector([100, 60], [4, 2])
        first = x.prefix()
        build_capacity_samples(x, 1, 3)
        build_capacity_samples(x, 2, 3)
        assert x.prefix() is first

    def test_table_is_read_only(self):
        x = ConcatPerRbVector([100, 60, 7], [4, 2, 1])
        s = build_capacity_samples(x, 1, 3)
        vals, counts = s.compressed(1)
        for arr in (s.t_n, vals, counts, *x._table):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 5
        assert region(build_capacity_samples(x, 1, 3), 0) == summary([25] * 4 + [30, 30, 7])

    def test_overflow_guard_raises(self):
        # (2^40 + 1) / 2^11 is in lowest terms, so sum(bits) * max(den)^2 = (2^42 + 2) * 2^22 >= 2^62
        x = ConcatPerRbVector([1 << 40, (1 << 40) + 1] * 2, [1 << 11] * 4)
        with pytest.raises(ValueError, match=r"sum\(bits\) \* max\(den\)\^2 must stay below 2\^62"):
            build_capacity_samples(x, 1, 1)
        # a uniform window builds no prefix: its products reach max(bits) * max(rbs) = 2^51 only
        x = ConcatPerRbVector([1 << 40] * 4, [1 << 11] * 4)
        assert region(build_capacity_samples(x, 1, 2), 1) == summary([1 << 30] * (1 << 12))
        assert x._prefix is None

    def test_uniform_guard_raises(self):
        # max(bits) * max(rbs) = 2^62 bounds the products of the uniform test itself
        with pytest.raises(ValueError, match=r"max\(bits\) \* max\(rbs\) must stay below 2\^62"):
            build_capacity_samples(ConcatPerRbVector([1 << 50] * 2, [1 << 12] * 2), 1, 1)
        x = ConcatPerRbVector([1 << 50] * 2, [(1 << 12) - 1] * 2)
        assert region(build_capacity_samples(x, 1, 1), 0) == summary([round(Fraction(1 << 50, (1 << 12) - 1))] * 8190)

    def test_window_summing_beyond_int64_is_refused(self):
        # the bits sum to 2^63, where an int64 sum wraps to -2^63; the exact total meets the float64 guard
        x = channel([2**61] * 4)
        assert x._total == 2**63
        with pytest.raises(ValueError, match="too large for exact float64 samples"):
            build_capacity_samples(x, 1, 1)

    def test_float64_guard_raises(self):
        # unit runs pass the 2^62 guard, but these sums round alike in float64
        with pytest.raises(ValueError, match="2\\^53"):
            build_capacity_samples(ConcatPerRbVector([2**55 + 1, 2**55 + 3, 5], [1, 1, 1]), 1, 1)
        with pytest.raises(ValueError, match="2\\^53"):
            build_capacity_samples(channel([2**52, 2**52]), 1, 1)  # the whole window sums to 2^53
        assert region(build_capacity_samples(channel([2**52, 2**52 - 1]), 1, 2), 1) == summary([2**53 - 1])

    def test_float64_guard_on_scaled_group(self):
        # a 2-RB window of 2^52 bits scales a group of g RBs to 2^52 * g / 2
        x = channel([2**51, 2**51])
        assert region(build_capacity_samples(x, 1, 3), 2) == summary([3 * 2**51])
        with pytest.raises(ValueError, match="2\\^53"):
            build_capacity_samples(x, 1, 4)
        with pytest.raises(ValueError, match="2\\^53"):
            build_capacity_samples(channel([2**51, 2**51]), 4, 4)

    def test_float64_guard_depends_on_the_request_alone(self):
        # four unit runs of 2^50 bits: groups of up to 3 RBs stay below 2^53, the scaled group of 10 does not
        x = channel([2**50] * 4)
        build_capacity_samples(x, 1, 3)
        with pytest.raises(ValueError, match="2\\^53") as fresh:
            build_capacity_samples(channel([2**50] * 4), 2, 10, np.eye(9)[0])
        # a request that reads only size 2, built above, is refused as on a fresh window
        with pytest.raises(ValueError) as built:
            build_capacity_samples(x, 2, 10, np.eye(9)[0])
        assert str(built.value) == str(fresh.value)

    def test_input_validation(self):
        x = channel([10])
        with pytest.raises(ValueError):
            build_capacity_samples(x, 5, 4)  # n_min > n_cell
        with pytest.raises(ValueError):
            build_capacity_samples(channel([]), 1, 1)
        with pytest.raises(ValueError, match="2 entries"):
            build_capacity_samples(x, 1, 2, [1.0])  # pi of the wrong length


def packet_runs(max_size):
    """Lists of (bits, rbs) runs of one kind: channel-rate windows (unit runs),
    packet windows, whole-bit packet windows (bits = rbs * k, rbs > 1), and
    uniform windows, every run a multiple of one drawn (bits, rbs) ratio.  The
    first three, unless uniform by chance, group over the exact prefix."""
    unit = st.tuples(st.integers(1, 5000), st.just(1))
    packet = st.tuples(st.integers(1, 5000), st.integers(1, 200))
    whole = st.tuples(st.integers(1, 50), st.integers(2, 200)).map(lambda p: (p[0] * p[1], p[1]))
    uniform = st.tuples(st.integers(1, 300), st.integers(1, 12)).map(
        lambda p: st.integers(1, 20).map(lambda k: (k * p[0], k * p[1]))
    )
    kinds = st.sampled_from([unit, packet, whole]) | uniform
    return kinds.flatmap(lambda run: st.lists(run, min_size=1, max_size=max_size))


def is_uniform(bits, rbs):
    """Every RB carries one value: every run at the first run's bits / rbs."""
    return all(Fraction(b, r) == Fraction(bits[0], rbs[0]) for b, r in zip(bits, rbs))


@st.composite
def packet_windows(draw):
    runs = draw(packet_runs(30))
    n_cell = draw(st.integers(1, 120))
    n_min = draw(st.integers(1, n_cell))
    bits, rbs = zip(*runs)
    return list(bits), list(rbs), n_min, n_cell


@settings(max_examples=60, deadline=None)
@given(packet_windows())
@example(([200, 150, 600, 75], [8, 6, 24, 3], 2, 40))  # whole-bit packet runs: 25 bits on every RB
@example(([20, 60, 60, 20, 20, 60] * 5, [1] * 30, 2, 12))  # unit runs at a varying rate
@example(([100, 37, 60, 7], [4, 3, 2, 1], 3, 25))  # a mixed window shorter than n_cell
def test_groups_match_fraction_oracle(window):
    assert_matches_oracle(*window)


@settings(max_examples=40, deadline=None)
@given(
    packet_windows(),
    st.lists(st.tuples(st.integers(1, 120), st.integers(1, 120)), min_size=1, max_size=6),
)
def test_cached_builds_match_fresh_window(window, pairs):
    # one window object serves builds in any order, across n_min and n_cell
    bits, rbs, _, _ = window
    shared = ConcatPerRbVector(bits, rbs)
    for a, b in pairs:
        n_min, n_cell = min(a, b), max(a, b)
        got = build_capacity_samples(shared, n_min, n_cell)
        fresh = build_capacity_samples(ConcatPerRbVector(bits, rbs), n_min, n_cell)
        assert (got.n_min, got.n_add) == (n_min, n_cell - n_min)
        assert got.t_n.tolist() == fresh.t_n.tolist()
        for n in range(got.n_add + 1):
            for mine, theirs in zip(got.compressed(n), fresh.compressed(n)):
                assert mine.tolist() == theirs.tolist()
        assert_regions(got, oracle_samples(bits, rbs, n_min, n_cell))


def test_groups_built_once_per_window(monkeypatch):
    built = []
    build_pass = rborch.capacity._pass

    def counting(x_con, gs):
        built.extend((id(x_con), g) for g in gs)
        return build_pass(x_con, gs)

    def new_sizes(x, n_min, n_cell, pi=None):
        """Sizes the request builds; every region it reads holds its groups."""
        done = len(built)
        s = build_capacity_samples(x, n_min, n_cell, pi)
        read = range(n_cell - n_min + 1) if pi is None else np.flatnonzero(pi)
        assert all(s.t_n[n] == max(1, len(x) // (n_min + n)) for n in read)
        return sorted(g for _, g in built[done:])

    def holes(x):
        """Sizes of the window's table with no samples: the ones not built."""
        return set((1 + np.flatnonzero(x._table[3] == 0)).tolist())

    monkeypatch.setattr(rborch.capacity, "_pass", counting)
    rng = np.random.default_rng(4)
    # a long window: every size up to 40 has at least PASS_SAMPLES groups, so each is alone in its grid pass
    x = channel(rng.integers(1, 60, 40 * PASS_SAMPLES))
    below = set(range(1, 8))  # sizes no request reads
    # a pass whose sizes all have pi_n = 0 is not built: sizes 11, 12, 14 and 15 are holes
    assert new_sizes(x, 10, 15, [0.5, 0, 0, 0.5, 0, 0]) == [10, 13]
    s = build_capacity_samples(x, 10, 15, [0.5, 0, 0, 0.5, 0, 0])
    assert s.t_n.tolist() == [len(x) // 10, 0, 0, len(x) // 13, 0, 0]
    assert [len(s.compressed(n)[0]) == 0 for n in range(6)] == [False, True, True, False, True, True]
    assert holes(x) == below | {8, 9, 11, 12, 14, 15}
    assert new_sizes(x, 10, 15, [1, 0, 0, 0, 0, 0]) == []  # reads only what is built
    # a later request that reads holes builds them, and a size below the range that it does not read is a hole
    assert new_sizes(x, 9, 15, [0, 0, 0.5, 0.5, 0, 0, 0]) == [11, 12]
    assert holes(x) == below | {8, 9, 14, 15}
    assert new_sizes(x, 8, 17, [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]) == [15]  # a hole, with sizes new at the top
    assert holes(x) == below | {8, 9, 14, 16, 17}
    assert new_sizes(x, 9, 16) == [9, 14, 16]  # no pi: every region is read
    assert new_sizes(x, 8, 17, np.full(10, 0.1)) == [8, 17]
    assert holes(x) == below and len(x._table[3]) == 17

    # a short window: its grid pass from size 1 holds every size of the request, so the
    # request builds the pass whole up to n_cell, sizes below n_min included, and leaves no hole
    short = channel(rng.integers(1, 60, 200))
    assert new_sizes(short, 10, 30, [1] + [0] * 20) == list(range(1, 31))
    assert not holes(short) and short._table[3].all()
    # a larger n_cell reading a size of the same pass builds the rest of the pass only
    assert new_sizes(short, 10, 40, np.eye(31)[25]) == list(range(31, 41))

    # nothing is built twice, across allocate and brute_force_allocate on the same windows
    specs = [ServiceSpec(id=m, w_th_ms=5.0, epsilon=1e-3) for m in range(2)]
    windows = [
        ServiceWindow(
            ArrivalSampleSet(rng.integers(0, 300, 400)),
            ConcatPerRbVector(rng.integers(300, 1500, 200), rng.integers(1, 60, 200)),
            rng.integers(0, 5, 400),
        )
        for _ in specs
    ]
    done = len(built)
    allocate(specs, windows, 30)
    assert len(built) - done < 2 * 30  # some passes read no size
    first = len(built)
    allocate(specs, windows, 30)
    assert len(built) == first
    brute_force_allocate(specs, windows, 30)  # every n_min: builds only what it reads and is not built yet
    assert len(built) - done == len(set(built[done:]))
    brute_force_allocate(specs, windows, 24)  # smaller cell: every size it reads is built already
    assert len(built) - done == len(set(built[done:]))
    allocate(specs, windows, 32)
    assert len(built) - done == len(set(built[done:]))
    assert {g for _, g in built[done:]} <= set(range(1, 33))


@st.composite
def long_windows(draw):
    """Windows of the kinds packet_runs draws, up to about 4000 RBs: a drawn run pattern repeated."""
    pattern = draw(packet_runs(12))
    reps = draw(st.integers(1, max(1, 4000 // sum(r for _, r in pattern))))
    bits, rbs = zip(*(pattern * reps))
    return list(bits), list(rbs)


builds = st.lists(
    st.tuples(st.integers(1, 3) | st.integers(1, 120), st.integers(0, 60)).map(lambda p: (p[0], p[0] + p[1])),
    min_size=1,
    max_size=6,
)


def assert_build_matches_oracle(x, group, n_min, n_cell):
    s = build_capacity_samples(x, n_min, n_cell)
    assert (s.n_min, s.n_add) == (n_min, n_cell - n_min)
    for arr in (s.vals, s.counts):
        assert arr.dtype == np.float64 and not arr.flags.writeable
    assert s.t_n.dtype == np.int64 and not s.t_n.flags.writeable
    for arr in x._table:
        assert not arr.flags.writeable
    assert_regions(s, [group(g) for g in range(n_min, n_cell + 1)])


@settings(max_examples=40, deadline=None)
@given(long_windows(), builds)
@example(([100], [4]), [(3, 6), (1, 2)])  # groups longer than the window
@example(([7, 9, 4] * 1000, [1] * 3000), [(2, 40), (1, 3)])  # lone over-budget sizes
@example(([900, 1300, 450, 700] * 60, [31, 2, 57, 9] * 60), [(40, 100), (20, 45), (10, 120)])  # multi-size passes
@example(([900, 1300, 450, 700] * 10, [31, 2, 57, 9] * 10), [(5, 10), (20, 30)])  # a gap to the built sizes
@example(([900, 1300, 450, 700] * 10, [31, 2, 57, 9] * 10), [(5, 10), (2, 14)])  # new sizes at both ends
@example(([200, 150, 600, 400] * 90, [8, 6, 24, 10] * 90), [(1, 30), (3, 45)])  # whole-bit packet runs
# uniform windows: 25 bits on every RB in unit runs and in runs of 3, 6 and 9 RBs
@example(([25] * 3000, [1] * 3000), [(10, 40), (2, 5), (30, 60)])
@example(([75, 150, 225] * 40, [3, 6, 9] * 40), [(20, 30), (1, 8), (15, 70)])
# 137 bits over 6 RBs, a ratio with no whole per-RB value, in runs of 6, 12 and 18 RBs
@example(([137] * 500, [6] * 500), [(5, 9), (40, 45), (1, 3)])
@example(([137, 274, 411] * 40, [6, 12, 18] * 40), [(3, 40), (2, 12), (50, 60)])
# uniform windows shorter than n_cell: the scaled groups
@example(([137, 274], [6, 12]), [(5, 40), (1, 3), (20, 60)])
@example(([25, 50], [1, 2]), [(4, 6), (1, 2)])
def test_table_builds_match_fraction_oracle(window, pairs):
    # one window serves every build in turn; each build is checked whole against the oracle
    bits, rbs = window
    x = ConcatPerRbVector(bits, rbs)
    group = oracle_groups(bits, rbs)
    for n_min, n_cell in pairs:
        assert_build_matches_oracle(x, group, n_min, n_cell)
    # a uniform window builds no prefix: its sizes are in closed form
    assert x.uniform() == is_uniform(bits, rbs)
    assert not x.uniform() or x._prefix is None


@st.composite
def read_requests(draw):
    """(n_min, n_cell, pi): pi is None (every region read) or weights on a drawn support."""
    n_min = draw(st.integers(1, 3) | st.integers(1, 120))
    n_add = draw(st.integers(0, 60))
    if draw(st.integers(0, 4)) == 0:
        return n_min, n_min + n_add, None
    support = draw(st.lists(st.integers(0, n_add), min_size=1, max_size=8, unique=True))
    pi = np.zeros(n_add + 1)
    pi[support] = draw(st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support)))
    return n_min, n_min + n_add, pi / pi.sum()


@settings(max_examples=60, deadline=None)
@given(
    packet_runs(30).map(lambda runs: [list(col) for col in zip(*runs)]) | long_windows(),
    st.lists(read_requests(), min_size=1, max_size=6),
    st.lists(st.integers(0, 200), min_size=1, max_size=20),
)
@example(([7, 9, 4] * 1000, [1] * 3000), [(2, 40, np.eye(39)[5]), (1, 3, np.eye(3)[0]), (2, 40, None)], [100])
@example(([900, 1300, 450, 700] * 10, [31, 2, 57, 9] * 10), [(5, 30, np.eye(26)[0]), (4, 30, np.eye(27)[26])], [50])
# uniform windows, read with pi zeros in any order: 25 bits/RB in runs of 3, 6 and 9, and 137 bits over 6 RBs
@example(([75, 150, 225] * 40, [3, 6, 9] * 40), [(20, 40, np.eye(21)[20]), (5, 30, None), (1, 50, np.eye(50)[0])], [100])
@example(([137] * 300, [6] * 300), [(30, 40, np.eye(11)[[0, 7]].sum(0) / 2), (2, 12, np.eye(11)[3])], [120, 0])
@example(([137, 274], [6, 12]), [(10, 30, np.eye(21)[20]), (1, 20, np.eye(20)[0]), (12, 25, None)], [80])
def test_sparse_builds_match_dense_builds(window, requests, load):
    # one window serves every request with its pi, in the drawn order; each region a request reads
    # matches a fresh dense build and the Fraction oracle, and so does the delay bound
    bits, rbs = window
    x = ConcatPerRbVector(bits, rbs)
    group = oracle_groups(bits, rbs)
    for n_min, n_cell, pi in requests:
        sparse = build_capacity_samples(x, n_min, n_cell, pi)
        dense = build_capacity_samples(ConcatPerRbVector(bits, rbs), n_min, n_cell)
        read = range(n_cell - n_min + 1) if pi is None else np.flatnonzero(pi)
        for n in read:
            assert region(sparse, n) == region(dense, n) == summary(group(n_min + n))
        for n in range(n_cell - n_min + 1):  # a region the request does not read is built or a hole
            assert region(sparse, n) in (region(dense, n), ([], [], 0))
        if pi is not None:
            # arrivals of up to twice the mean group of n_min RBs
            arrivals = ArrivalSampleSet([int(sum(bits)) * n_min * p // (100 * len(x)) for p in load])
            assert repr(delay_bound(arrivals, sparse, pi, 1e-3)) == repr(delay_bound(arrivals, dense, pi, 1e-3))


def uniform_windows(rng):
    """Windows of three services whose every RB carries one value: a constant channel of 25 bits
    per RB, packets of 20 bits per RB over 1-10 RBs, and packets of 137 bits per 6 RBs."""
    rbs = rng.integers(1, 11, 600)
    k = rng.integers(1, 4, 300)
    per_rb = [channel([25] * 4000), ConcatPerRbVector(20 * rbs, rbs), ConcatPerRbVector(137 * k, 6 * k)]
    return [ServiceWindow(ArrivalSampleSet(rng.integers(0, 400, 500)), x, rng.integers(0, 4, 500)) for x in per_rb]


def test_uniform_windows_build_no_prefix(monkeypatch):
    specs = [ServiceSpec(id=m, w_th_ms=5.0 + 5 * m, epsilon=1e-3) for m in range(3)]
    windows = uniform_windows(np.random.default_rng(6))
    decisions = [allocate(specs, windows, 30), brute_force_allocate(specs, windows, 30), allocate(specs, windows, 36)]
    assert [w.per_rb._prefix for w in windows] == [None] * 3
    assert all(w.per_rb.uniform() for w in windows)
    # the prefix path, made to take the same windows, decides the same
    monkeypatch.setattr(ConcatPerRbVector, "uniform", lambda self: False)
    windows = uniform_windows(np.random.default_rng(6))
    assert [allocate(specs, windows, 30), brute_force_allocate(specs, windows, 30), allocate(specs, windows, 36)] == decisions
    assert all(w.per_rb._prefix is not None for w in windows)


def test_last_run_off_the_ratio_takes_the_prefix_path():
    # 25 bits per RB in every run but the last, which carries 226 bits over 9 RBs
    bits, rbs = [75, 150, 225] * 30 + [226], [3, 6, 9] * 30 + [9]
    x = ConcatPerRbVector(bits, rbs)
    assert_build_matches_oracle(x, oracle_groups(bits, rbs), 4, 40)
    assert not x.uniform() and x._prefix is not None


def test_overflow_guard_raises_on_uniform_and_mixed_windows():
    # each exact form refuses the window whose own int64 products could reach
    # 2^62, and a refused request keeps no size; the uniform test is first
    uniform = ConcatPerRbVector([1 << 50] * 4, [1 << 12] * 4)
    for call in (lambda: build_capacity_samples(uniform, 1, 3, [0, 0, 1]), uniform.uniform):
        with pytest.raises(ValueError, match=r"max\(bits\) \* max\(rbs\)"):
            call()
    assert uniform._uniform is None and uniform._prefix is None and len(uniform._table[3]) == 0
    # the mixed window passes the uniform test, and its prefix is refused
    mixed = ConcatPerRbVector([1 << 40, (1 << 40) + 1] * 2, [1 << 11] * 4)
    for call in (lambda: build_capacity_samples(mixed, 1, 3, [0, 0, 1]), mixed.prefix):
        with pytest.raises(ValueError, match=r"sum\(bits\) \* max\(den\)\^2"):
            call()
    assert mixed._uniform is False and mixed._prefix is None and len(mixed._table[3]) == 0
    # a size longer than the window takes the scaled closed form, with no prefix
    g = (1 << 13) + 1
    assert region(build_capacity_samples(mixed, g, g), 0) == summary([round(Fraction(((1 << 42) + 2) * g, 1 << 13))])
    assert mixed._prefix is None


def test_pass_kinds_match_fraction_oracle(monkeypatch):
    passes, kinds = [], set()
    build_pass, distinct = rborch.capacity._pass, rborch.capacity.unique_counts

    def recording(x_con, gs):
        passes.append((len(x_con), list(gs)))
        return build_pass(x_con, gs)

    def recording_distinct(keys):
        # int64 sums are counted over a span within _COUNT_SPAN times the sample count, else sorted
        assert keys.dtype == np.int64
        kinds.add("counted" if keys.max() - keys.min() < rborch.utilization._COUNT_SPAN * len(keys) else "sorted")
        return distinct(keys)

    monkeypatch.setattr(rborch.capacity, "_pass", recording)
    monkeypatch.setattr(rborch.capacity, "unique_counts", recording_distinct)
    rng = np.random.default_rng(5)
    packet = (rng.integers(300, 1500, 80).tolist(), rng.integers(1, 60, 80).tolist())
    unit = (rng.integers(1, 60, 3000).tolist(), [1] * 3000)
    whole = ([200, 150, 600, 400] * 60, [8, 6, 24, 10] * 60)
    for (bits, rbs), pairs in ((packet, [(30, 100), (12, 40), (11, 40)]), (unit, [(1, 6), (2, 3)]),
                               (([50, 70], [2, 1]), [(2, 5)]), (whole, [(2, 30)])):
        x = ConcatPerRbVector(bits, rbs)
        group = oracle_groups(bits, rbs)
        for n_min, n_cell in pairs:
            assert_build_matches_oracle(x, group, n_min, n_cell)
    for length, gs in passes:
        t = [length // g for g in gs]
        if len(gs) > 1:
            assert 0 < min(t) and sum(t) <= PASS_SAMPLES
            kinds.add("multi")
        else:
            kinds.add("scaled" if t[0] == 0 else "over budget" if t[0] > PASS_SAMPLES else "single")
    assert kinds == {"multi", "single", "scaled", "over budget", "counted", "sorted"}


@settings(max_examples=60, deadline=None)
@given(
    packet_runs(30).map(lambda runs: [list(col) for col in zip(*runs)]) | long_windows(),
    st.lists(read_requests(), max_size=5),
    read_requests(),
)
@example(([900, 1300, 450, 700] * 10, [31, 2, 57, 9] * 10), [(5, 20, None)], (3, 40, np.eye(38)[20]))
@example(([7, 9, 4] * 1000, [1] * 3000), [(2, 40, np.eye(39)[30])], (20, 40, np.eye(21)[10]))
# a uniform window filled up to a smaller n_cell, then read above and below it
@example(([137, 274, 411] * 40, [6, 12, 18] * 40), [(30, 50, np.eye(21)[3]), (5, 20, None)], (3, 60, np.eye(58)[50]))
def test_request_reads_the_same_whatever_was_built_before(window, before, request):
    # the set a request gets does not depend on which grid passes earlier requests built:
    # every region it reads, and the bound over them, equals a fresh window's, bit for bit
    bits, rbs = window
    x = ConcatPerRbVector(bits, rbs)
    for n_min, n_cell, pi in before:
        build_capacity_samples(x, n_min, n_cell, pi)
    n_min, n_cell, pi = request
    got = build_capacity_samples(x, n_min, n_cell, pi)
    fresh = build_capacity_samples(ConcatPerRbVector(bits, rbs), n_min, n_cell, pi)
    read = range(n_cell - n_min + 1) if pi is None else np.flatnonzero(pi)
    for n in read:
        for mine, theirs in zip(got.compressed(n), fresh.compressed(n)):
            assert mine.tobytes() == theirs.tobytes()
        assert got.t_n[n] == fresh.t_n[n] > 0
    if pi is not None:
        arrivals = ArrivalSampleSet([int(sum(bits)) * n_min // len(x), 0])
        assert repr(delay_bound(arrivals, got, pi, 1e-3)) == repr(delay_bound(arrivals, fresh, pi, 1e-3))
