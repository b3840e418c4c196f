import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rborch.near_rt
from rborch.martingale import ArrivalSampleSet
from rborch.capacity import ConcatPerRbVector
from rborch.near_rt import (
    AllocatorConfig,
    _CandidateEvaluator,
    _minmax_split,
    ServiceSpec,
    ServiceWindow,
    allocate,
    brute_force_allocate,
    objective,
)
from rborch.sim import synthesize_window
from rborch.traces import SyntheticModel


def make_specs(n=3):
    base = [
        ServiceSpec(0, 5.0, 1e-5, SyntheticModel("empirical-table", (0, 100, 1000), (0.6, 0.3, 0.1)),
                    SyntheticModel("constant", (25,))),
        ServiceSpec(1, 10.0, 1e-4, SyntheticModel("empirical-table", (0, 100, 900), (0.7, 0.2, 0.1)),
                    SyntheticModel("constant", (20,))),
        ServiceSpec(2, 15.0, 1e-3, SyntheticModel("empirical-table", (0, 80, 1000), (0.65, 0.2, 0.15)),
                    SyntheticModel("constant", (30,))),
    ]
    return base[:n]


def make_windows(specs, seed=99, t_obs=1000, rbs_per_tti=8):
    out = []
    for m, s in enumerate(specs):
        ss = np.random.SeedSequence([seed, m])
        ra, rc = (np.random.default_rng(x) for x in ss.spawn(2))
        out.append(synthesize_window(s.arrival, s.channel, t_obs, rbs_per_tti, ra, rc))
    return out


def packet_windows(rng, services=2, ttis=50):
    """Short packet-run windows with live extra-RB usage, like a trace-driven cell's:
    0-2 packets of 300-1500 bits per TTI, each sent over its own 15-30 bits/RB."""
    windows = []
    for _ in range(services):
        counts = rng.integers(0, 3, ttis)
        sizes = rng.integers(300, 1501, int(counts.sum()))
        arrivals = np.bincount(np.repeat(np.arange(ttis), counts), weights=sizes, minlength=ttis)
        rbs = -(-sizes // rng.integers(15, 31, len(sizes)))
        usage = np.where(rng.random(ttis) < 0.3, rng.integers(1, 60, ttis), 0)
        windows.append(ServiceWindow(ArrivalSampleSet(arrivals), ConcatPerRbVector(sizes, rbs), usage))
    return windows


PACKET_SPECS = [ServiceSpec(0, 5.0, 1e-3), ServiceSpec(1, 10.0, 1e-3)]


class TestObjective:
    def test_equal_ratios(self):
        assert objective([5, 10, 15], [5, 10, 15]) == 1.0

    def test_max_of_ratios(self):
        assert objective([2.5, 10, 15], [5, 10, 15]) == 1.0

    def test_infinite_entry_dominates(self):
        assert math.isinf(objective([2.5, math.inf], [5, 10]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            objective([1.0], [1.0, 2.0])


class TestAllocate:
    def test_symmetric_services_keep_equal_split(self):
        spec = ServiceSpec(0, 10.0, 1e-3,
                           SyntheticModel("two-point", (0, 200), (0.5, 0.5)),
                           SyntheticModel("constant", (25,)))
        specs = [ServiceSpec(i, 10.0, 1e-3, spec.arrival, spec.channel) for i in range(3)]
        arr = np.tile([0, 200], 500)
        rb = np.full(4000, 25, dtype=np.int64)
        ones = np.ones(4000, dtype=np.int64)
        win = ServiceWindow(ArrivalSampleSet(arr), ConcatPerRbVector(rb, ones), np.zeros(1, np.int64))
        wins = [win, win, win]
        res = allocate(specs, wins, 30)
        assert res.n_min == (10, 10, 10)

    def test_single_service_gets_everything(self):
        specs = make_specs(1)
        wins = make_windows(specs)
        res = allocate(specs, wins, 17)
        assert res.n_min == (17,)
        assert res.evaluations >= 1

    def test_budget_respected_and_history_monotone(self):
        specs = make_specs()
        wins = make_windows(specs)
        for n_cell in (21, 25, 31):
            res = allocate(specs, wins, n_cell)
            assert sum(res.n_min) <= n_cell
            assert all(n >= 1 for n in res.n_min)
            for a, b in zip(res.objective_history, res.objective_history[1:]):
                assert b <= a

    def test_deterministic(self):
        specs = make_specs()
        wins = make_windows(specs)
        a = allocate(specs, wins, 27)
        b = allocate(specs, wins, 27)
        assert a == b

    def test_infeasible_equal_split_stalls_at_inf(self):
        # tiny cell: every service under-provisioned, no move can look better
        specs = make_specs()
        wins = make_windows(specs)
        res = allocate(specs, wins, 3)
        assert res.n_min == (1, 1, 1)
        assert math.isinf(res.objective)

    def test_donor_floor_respected(self):
        specs = make_specs()
        wins = make_windows(specs)
        for n_cell in range(3, 12):
            res = allocate(specs, wins, n_cell)
            assert all(n >= 1 for n in res.n_min)

    def test_cell_too_small_rejected(self):
        specs = make_specs()
        wins = make_windows(specs)
        with pytest.raises(ValueError):
            allocate(specs, wins, 2)


class TestBruteForce:
    def test_single_service_one_iteration(self):
        specs = make_specs(1)
        wins = make_windows(specs)
        _, count = brute_force_allocate(specs, wins, 9)
        assert count == 1

    def test_composition_counts(self):
        specs = make_specs()
        wins = make_windows(specs, t_obs=200)
        for n_cell, expect in ((10, 36), (12, 55)):
            _, count = brute_force_allocate(specs, wins, n_cell)
            assert count == math.comb(n_cell - 1, 2) == expect

    def test_five_services_on_400_rbs(self):
        # C(399, 4), about 1.04e9 compositions: beyond any enumeration
        specs = [make_specs(1)[0]] * 5
        wins = make_windows(make_specs(3)) + make_windows(make_specs(2))
        got, count = brute_force_allocate(specs, wins, 400)
        assert sum(got.n_min) == 400 and min(got.n_min) >= 1
        assert count == got.evaluations == math.comb(399, 4)
        assert got.objective <= allocate(specs, wins, 400).objective

    def test_heuristic_never_beats_brute(self):
        specs = make_specs()
        wins = make_windows(specs)
        for n_cell in (20, 23, 27, 33):
            h = allocate(specs, wins, n_cell)
            b, _ = brute_force_allocate(specs, wins, n_cell)
            assert h.objective >= b.objective

    def test_heuristic_matches_brute_on_smooth_scenario(self):
        specs = make_specs()
        wins = make_windows(specs, t_obs=2000)
        for n_cell in (22, 29, 35, 40):
            h = allocate(specs, wins, n_cell)
            b, _ = brute_force_allocate(specs, wins, n_cell)
            assert h.objective == b.objective


def _ref_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _ref_compositions(total - head, parts - 1):
            yield (head,) + rest


def ref_brute_force(specs, windows, n_cell, cfg=None, rng=None):
    """The oracle as a loop that scores one composition at a time."""
    cfg = cfg or AllocatorConfig()
    ev = _CandidateEvaluator(specs, windows, n_cell, cfg, rng)
    w_th = [s.w_th_ms for s in specs]
    best = None
    count = 0
    for comp in _ref_compositions(n_cell, len(specs)):
        count += 1
        w_z = [ev.w_est(m, comp[m]) for m in range(len(specs))]
        g_z = objective(w_z, w_th)
        if best is None or g_z < best[2]:
            best = (comp, w_z, g_z)
    return best[0], tuple(best[1]), best[2], count


@st.composite
def ratio_tables(draw):
    """(ratios, n_cell): M = 1..4 rows over n = 0..n_cell drawn from a few values
    and inf, so rows are not monotone and equal maxima are common."""
    m_count = draw(st.integers(1, 4))
    n_cell = draw(st.integers(m_count, 14))
    values = st.sampled_from([0.25, 0.5, 1.0, 2.0, math.inf])
    rows = draw(st.lists(st.lists(values, min_size=n_cell + 1, max_size=n_cell + 1),
                         min_size=m_count, max_size=m_count))
    return np.array(rows), n_cell


@settings(max_examples=300)
@given(ratio_tables())
def test_minmax_split_is_first_enumerated_minimum(table):
    ratios, n_cell = table
    # min keeps the first of equal scores, so this is the first minimum in lexicographic order
    expect = min(_ref_compositions(n_cell, len(ratios)), key=lambda c: max(ratios[m, n] for m, n in enumerate(c)))
    assert _minmax_split(ratios, n_cell) == expect


def assert_brute_matches_reference(specs, windows, n_cell, estimator="empirical", seed=0):
    cfg = AllocatorConfig(estimator=estimator)
    got, count = brute_force_allocate(specs, windows, n_cell, cfg, np.random.default_rng(seed))
    n_min, w_est, obj, ref_count = ref_brute_force(specs, windows, n_cell, cfg, np.random.default_rng(seed))
    assert got.n_min == n_min
    assert got.w_est == w_est
    assert got.objective == obj
    assert count == got.evaluations == ref_count
    return got


class TestBruteForceMatchesLoop:
    def test_random_cases(self):
        rng = np.random.default_rng(12)
        four = make_specs() + [ServiceSpec(3, 8.0, 1e-4, SyntheticModel("two-point", (0, 300), (0.6, 0.4)),
                                           SyntheticModel("constant", (22,)))]
        for case in range(9):
            m_count = 2 + case % 3
            specs = four[:m_count]
            wins = make_windows(specs, seed=int(rng.integers(1000)), t_obs=200)
            n_cell = int(rng.integers(*{2: (8, 40), 3: (18, 30), 4: (24, 32)}[m_count]))
            estimator = "gmm" if case % 2 else "empirical"
            assert_brute_matches_reference(specs, wins, n_cell, estimator, seed=case)

    def test_ties_go_to_first_composition(self):
        specs = [ServiceSpec(i, 10.0, 1e-3) for i in range(3)]
        win = ServiceWindow(ArrivalSampleSet(np.tile([0, 200], 500)),
                            ConcatPerRbVector(np.full(4000, 25), np.ones(4000, np.int64)), np.arange(300) % 4)
        got = assert_brute_matches_reference(specs, [win, win, win], 10)
        assert math.isfinite(got.objective)
        # the smallest share sets the objective: (3, 3, 4), (3, 4, 3) and (4, 3, 3) tie
        assert got.n_min == (3, 3, 4)

    def test_all_infinite(self):
        specs = make_specs()
        win = ServiceWindow(ArrivalSampleSet(np.full(200, 1000)), ConcatPerRbVector(np.ones(400, np.int64),
                            np.ones(400, np.int64)), np.zeros(1, np.int64))
        got = assert_brute_matches_reference(specs, [win] * 3, 9)
        assert math.isinf(got.objective) and all(math.isinf(w) for w in got.w_est)
        assert got.n_min == (1, 1, 7)

    def test_single_service_evaluates_one_pair(self, monkeypatch):
        calls = []
        bound = rborch.near_rt.delay_bound

        def spy(*args, **kwargs):
            calls.append(args)
            return bound(*args, **kwargs)

        specs = make_specs(1)
        wins = make_windows(specs, t_obs=200)
        monkeypatch.setattr(rborch.near_rt, "delay_bound", spy)
        got, count = brute_force_allocate(specs, wins, 9)
        assert len(calls) == 1 and count == 1
        monkeypatch.undo()
        assert_brute_matches_reference(specs, wins, 9)
        assert got.n_min == (9,)


class TestUsageValidation:
    @pytest.mark.parametrize("estimator", ["empirical", "gmm"])
    @pytest.mark.parametrize(
        "usage",
        [
            np.zeros((2, 3), np.int64),
            [1.0, math.nan, 2.0],
            [1.0, math.inf, 2.0],
            [2.7, 0.5, 1.9],
            [-3, -1, 0, 2, -5] * 100,
            np.array([3, 2**64 - 1], np.uint64),
        ],
        ids=["2d", "nan", "inf", "fractional", "negative", "past-int64"],
    )
    def test_rejected(self, usage, estimator):
        spec = make_specs(1)[0]
        win = make_windows([spec], t_obs=200)[0]
        with pytest.raises(ValueError):
            allocate([spec], [ServiceWindow(win.arrivals, win.per_rb, usage)], 10, AllocatorConfig(estimator=estimator))

    @pytest.mark.parametrize("estimator", ["empirical", "gmm"])
    def test_whole_floats_accepted(self, estimator):
        spec = make_specs(1)[0]
        win = make_windows([spec], t_obs=200)[0]
        usage = ServiceWindow(win.arrivals, win.per_rb, [2.0, 0.0, 5.0, 1.0]).extra_rb_usage
        assert usage.dtype == np.int64 and usage.tolist() == [2, 0, 5, 1]
        res = allocate([spec], [ServiceWindow(win.arrivals, win.per_rb, usage)], 10, AllocatorConfig(estimator=estimator))
        assert res.n_min == (10,)


class TestPmfCheckedOnce:
    @pytest.mark.parametrize("estimator", ["empirical", "gmm"])
    def test_one_check_per_evaluation(self, monkeypatch, estimator):
        import rborch.martingale
        import rborch.utilization

        calls = []
        check = rborch.utilization.check_pmf

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(rborch.utilization, "check_pmf", counted)
        monkeypatch.setattr(rborch.martingale, "check_pmf", counted)
        specs = make_specs()
        wins = [ServiceWindow(w.arrivals, w.per_rb, np.arange(200) % 5) for w in make_windows(specs, t_obs=200)]
        ev = _CandidateEvaluator(specs, wins, 12, AllocatorConfig(estimator=estimator), np.random.default_rng(3))
        for m, n_min in [(0, 4), (1, 3), (2, 6), (0, 12)]:
            before = len(calls)
            assert ev.w_est(m, n_min) > 0
            assert len(calls) == before + 1

    @pytest.mark.parametrize("pi", [[0.5, 0.6], [1.5, -0.5], [math.nan, 1.0], [[0.5, 0.5]], []])
    def test_public_bound_functions_reject_raw_pi(self, pi):
        from rborch.capacity import build_capacity_samples
        from rborch.martingale import delay_bound, find_theta_star, service_log_neg_mgf

        win = make_windows(make_specs(1), t_obs=200)[0]
        x_s = build_capacity_samples(win.per_rb, 1, 2)
        for call in (
            lambda: delay_bound(win.arrivals, x_s, pi, 1e-3),
            lambda: find_theta_star(win.arrivals, x_s, pi),
            lambda: service_log_neg_mgf(x_s, pi, 0.1),
        ):
            with pytest.raises(ValueError):
                call()

    def test_pmf_object_and_raw_pi_give_one_bound(self):
        from rborch.capacity import build_capacity_samples
        from rborch.martingale import delay_bound
        from rborch.utilization import empirical_pmf

        win = make_windows(make_specs(1), t_obs=200)[0]
        x_s = build_capacity_samples(win.per_rb, 2, 6)
        pmf = empirical_pmf(np.arange(100) % 7, 4)
        assert delay_bound(win.arrivals, x_s, pmf, 1e-3) == delay_bound(win.arrivals, x_s, pmf.pi.tolist(), 1e-3)
        with pytest.raises(ValueError, match="4 entries, got 5"):
            delay_bound(win.arrivals, build_capacity_samples(win.per_rb, 2, 5), pmf, 1e-3)
        # a pmf stays as it was checked
        with pytest.raises(ValueError):
            pmf.pi[0] = 2.0


@pytest.mark.parametrize("estimator", ["empirical", "gmm"])
def test_w_does_not_depend_on_evaluation_order(monkeypatch, estimator):
    # W(m, n) is a pure function of the window and n: allocate's order, then the rest;
    # ascending (the oracle's); descending.  Each order starts from fresh windows, with no group built.
    n_cell, cfg = 100, AllocatorConfig(estimator=estimator)
    pairs = [(m, n) for m in range(len(PACKET_SPECS)) for n in range(1, n_cell)]

    def evaluator():
        windows = packet_windows(np.random.default_rng(21))
        return _CandidateEvaluator(PACKET_SPECS, windows, n_cell, cfg, np.random.default_rng(4))

    made = []

    class Recorded(_CandidateEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(rborch.near_rt, "_CandidateEvaluator", Recorded)
    windows = packet_windows(np.random.default_rng(21))
    allocate(PACKET_SPECS, windows, n_cell, cfg, np.random.default_rng(4))
    first = dict(made[0]._cache)
    assert 0 < len(first) < len(pairs)
    runs = [{p: made[0].w_est(*p) for p in pairs}]
    for order in (pairs, pairs[::-1]):
        ev = evaluator()
        runs.append({p: ev.w_est(*p) for p in order})
    assert all(runs[0][p] == w for p, w in first.items())
    assert runs[0] == runs[1] == runs[2]
    assert any(math.isfinite(w) for w in runs[0].values())
