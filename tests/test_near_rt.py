import math

import numpy as np
import pytest

from rborch.martingale import ArrivalSampleSet
from rborch.capacity import ConcatPerRbVector
from rborch.near_rt import (
    AllocatorConfig,
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

    def test_guard_refuses_explosions(self):
        specs = [make_specs(1)[0]] * 5
        wins = make_windows(make_specs(3)) + make_windows(make_specs(2))
        with pytest.raises(ValueError):
            brute_force_allocate(specs, wins, 400)

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
