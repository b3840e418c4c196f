import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rborch.capacity
from rborch.capacity import PASS_SAMPLES, ConcatPerRbVector, build_capacity_samples
from rborch.martingale import ArrivalSampleSet
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
        # sum(bits) * max(rbs)^2 = 2^42 * 2^22 >= 2^62
        x = ConcatPerRbVector([1 << 40] * 4, [1 << 11] * 4)
        with pytest.raises(ValueError, match="2\\^62"):
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

    def test_input_validation(self):
        x = channel([10])
        with pytest.raises(ValueError):
            build_capacity_samples(x, 5, 4)  # n_min > n_cell
        with pytest.raises(ValueError):
            build_capacity_samples(channel([]), 1, 1)


@st.composite
def packet_windows(draw):
    max_rbs = draw(st.sampled_from([1, 200]))  # channel-rate windows and packet windows
    runs = draw(st.lists(st.tuples(st.integers(1, 5000), st.integers(1, max_rbs)), min_size=1, max_size=30))
    n_cell = draw(st.integers(1, 120))
    n_min = draw(st.integers(1, n_cell))
    bits, rbs = zip(*runs)
    return list(bits), list(rbs), n_min, n_cell


@settings(max_examples=60, deadline=None)
@given(packet_windows())
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

    monkeypatch.setattr(rborch.capacity, "_pass", counting)
    rng = np.random.default_rng(4)
    specs = [ServiceSpec(id=m, w_th_ms=5.0, epsilon=1e-3) for m in range(2)]
    windows = [
        ServiceWindow(
            ArrivalSampleSet(rng.integers(0, 300, 400)),
            ConcatPerRbVector(rng.integers(300, 1500, 200), rng.integers(1, 60, 200)),
            rng.integers(0, 5, 400),
        )
        for _ in specs
    ]
    allocate(specs, windows, 30)
    # every candidate n_min of a service needs groups n_min..30, yet each is built once
    assert len(built) == len(set(built))
    first = len(built)
    allocate(specs, windows, 30)
    assert len(built) == first
    brute_force_allocate(specs, windows, 30)  # every n_min: builds only the groups not seen yet
    assert len(built) == len(set(built)) == 2 * 30
    brute_force_allocate(specs, windows, 24)  # smaller cell: every group is cached already
    assert len(built) == 2 * 30
    allocate(specs, windows, 32)  # larger cell: only groups 31 and 32 are new
    assert sorted(g for _, g in built[2 * 30 :]) == [31, 31, 32, 32]
    # a build that leaves a gap to the built sizes builds the gap as well, and still nothing twice
    x = ConcatPerRbVector(rng.integers(300, 1500, 200), rng.integers(1, 60, 200))
    for (n_min, n_cell), new in (((5, 10), range(5, 11)), ((20, 30), range(11, 31)), ((2, 14), range(2, 5)),
                                 ((6, 25), range(0)), ((1, 32), [1, 31, 32])):
        done = len(built)
        build_capacity_samples(x, n_min, n_cell)
        assert built[done:] == [(id(x), g) for g in new]


@st.composite
def long_windows(draw):
    """Packet-run or unit-run windows up to about 4000 RBs: a drawn run pattern repeated."""
    max_rbs = draw(st.sampled_from([1, 200]))
    pattern = draw(st.lists(st.tuples(st.integers(1, 5000), st.integers(1, max_rbs)), min_size=1, max_size=12))
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
def test_table_builds_match_fraction_oracle(window, pairs):
    # one window serves every build in turn; each build is checked whole against the oracle
    bits, rbs = window
    x = ConcatPerRbVector(bits, rbs)
    group = oracle_groups(bits, rbs)
    for n_min, n_cell in pairs:
        assert_build_matches_oracle(x, group, n_min, n_cell)


def test_pass_kinds_match_fraction_oracle(monkeypatch):
    passes = []
    build_pass = rborch.capacity._pass

    def recording(x_con, gs):
        passes.append((len(x_con), list(gs)))
        return build_pass(x_con, gs)

    monkeypatch.setattr(rborch.capacity, "_pass", recording)
    rng = np.random.default_rng(5)
    packet = (rng.integers(300, 1500, 80).tolist(), rng.integers(1, 60, 80).tolist())
    unit = (rng.integers(1, 60, 3000).tolist(), [1] * 3000)
    for (bits, rbs), pairs in ((packet, [(30, 100), (12, 40), (11, 40)]), (unit, [(1, 6), (2, 3)]), (([50, 70], [2, 1]), [(2, 5)])):
        x = ConcatPerRbVector(bits, rbs)
        group = oracle_groups(bits, rbs)
        for n_min, n_cell in pairs:
            assert_build_matches_oracle(x, group, n_min, n_cell)
    kinds = set()
    for length, gs in passes:
        t = [length // g for g in gs]
        if len(gs) > 1:
            assert 0 < min(t) and sum(t) <= PASS_SAMPLES
            kinds.add("multi")
        else:
            kinds.add("scaled" if t[0] == 0 else "over budget" if t[0] > PASS_SAMPLES else "single")
    assert kinds == {"multi", "single", "scaled", "over budget"}
