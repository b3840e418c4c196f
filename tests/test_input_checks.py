"""Input checks of every layer below the configuration file, each reached by one bad input."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest

from rborch.capacity import ConcatPerRbVector, build_capacity_samples
from rborch.martingale import (
    ArrivalSampleSet,
    CapacitySampleSet,
    DelayBoundResult,
    delay_bound,
    service_log_neg_mgf,
    violation_bound,
)
from rborch.near_rt import (
    AllocatorConfig,
    ServiceSpec,
    ServiceWindow,
    allocate,
    brute_force_allocate,
    objective,
)
from rborch.rt import FsmRecord, RtThresholds, mitigate
from rborch.sim import AnomalyConfig, ScenarioConfig, ccdf, measure_fifo_delays, qldr_allocate
from rborch.traces import ChannelTrace, SyntheticModel, load_arrival_trace, sample_many
from rborch.utilization import GmmMixture, empirical_pmf, fit_gmm_em


def samples():
    return CapacitySampleSet([[10, 20], [30]], n_min=1, n_add=1)


def window():
    return ServiceWindow(ArrivalSampleSet([5, 7]), ConcatPerRbVector([40, 60], [2, 3]), [0, 1])


def spec(sid=0, arrival=SyntheticModel("constant", (100,)), channel=SyntheticModel("constant", (25,))):
    return ServiceSpec(sid, 5.0, 1e-3, arrival, channel)


def scenario(**changes):
    """A valid two-service scenario with `changes` applied."""
    return dataclasses.replace(ScenarioConfig(n_cell=4, horizon=300, services=(spec(0), spec(1)), t_obs=100,
                                              t_out=100), **changes)


CASES = {
    "unequal run arrays": (lambda: ConcatPerRbVector([10, 20], [1]), "run arrays must have equal length"),
    "2-d run arrays": (lambda: ConcatPerRbVector([[100, 200]], [[2, 4]]), "run arrays must be 1-d"),
    "scalar runs": (lambda: ConcatPerRbVector(100, 2), "run arrays must be 1-d"),
    "n_min above n_cell": (
        lambda: build_capacity_samples(ConcatPerRbVector([10], [1]), 3, 2),
        "n_min must not exceed n_cell",
    ),
    "sample set n_min below 1": (lambda: CapacitySampleSet([[10]], n_min=0, n_add=0), "n_min must be a positive RB count"),
    "sample set n_add below 0": (lambda: CapacitySampleSet([], n_min=1, n_add=-1), "n_add must be non-negative"),
    "sample set vector count": (
        lambda: CapacitySampleSet([[10], [20]], n_min=1, n_add=0),
        "need exactly n_add + 1 sample vectors",
    ),
    "sample set empty region": (
        lambda: CapacitySampleSet([[10], []], n_min=1, n_add=1),
        "sample vector for region 1 is empty",
    ),
    "K'_s at theta 0": (lambda: service_log_neg_mgf(samples(), [0.5, 0.5], 0.0), "theta must be positive"),
    # every slot length is checked by rt.check_slot
    "delay bound slot 0": (
        lambda: delay_bound(ArrivalSampleSet([5]), samples(), [0.5, 0.5], 1e-3, t_slot_ms=0.0),
        "t_slot_ms must be finite and positive, not 0",
    ),
    "delay bound slot NaN": (
        lambda: delay_bound(ArrivalSampleSet([5]), samples(), [0.5, 0.5], 1e-3, t_slot_ms=math.nan),
        "t_slot_ms must be finite and positive, not nan",
    ),
    # an infinite slot would read as an infeasible service (W = inf)
    "delay bound slot inf": (
        lambda: delay_bound(ArrivalSampleSet([5]), samples(), [0.5, 0.5], 1e-3, t_slot_ms=math.inf),
        "t_slot_ms must be finite and positive, not inf",
    ),
    "allocator slot -1 ms": (lambda: AllocatorConfig(t_slot_ms=-1.0), "t_slot_ms must be finite and positive, not -1"),
    "FIFO slot -1 ms": (lambda: measure_fifo_delays([5], [10], -1.0), "t_slot_ms must be finite and positive, not -1"),
    "FIFO slot NaN": (lambda: measure_fifo_delays([5], [10], math.nan), "t_slot_ms must be finite and positive, not nan"),
    "violation bound negative query": (
        lambda: violation_bound(DelayBoundResult(0.1, 30.0, 0.2, 0.3), -1.0),
        "w_query_ms must be non-negative",
    ),
    "window of no RBs": (
        lambda: ServiceWindow(ArrivalSampleSet([5]), ConcatPerRbVector([], []), [0]),
        "capacity window is empty",
    ),
    "window of no usage": (
        lambda: ServiceWindow(ArrivalSampleSet([5]), ConcatPerRbVector([40], [2]), np.array([], dtype=np.int64)),
        "extra-RB usage window is empty",
    ),
    "unknown estimator": (lambda: AllocatorConfig(estimator="x"), "unknown estimator 'x'"),
    "objective budget 0": (lambda: objective([1.0, 2.0], [5.0, 0.0]), "budgets must be positive"),
    "oracle cell below M": (
        lambda: brute_force_allocate([ServiceSpec(id=m, w_th_ms=5.0, epsilon=1e-3) for m in range(3)], [window()] * 3, 2),
        "cell budget smaller than the number of services",
    ),
    "allocator windows of another count": (lambda: allocate([spec(0)], [window()] * 2, 4), "specs and windows lengths differ"),
    "allocator of no services": (lambda: allocate([], [], 4), "at least one service required"),
    "oracle of no services": (lambda: brute_force_allocate([], [], 4), "at least one service required"),
    "capacity n_min below 1": (
        lambda: build_capacity_samples(ConcatPerRbVector([10], [1]), 0, 2), "n_min must be positive"
    ),
    # the scenario
    "n_cell below 1": (lambda: scenario(n_cell=0), "n_cell must be positive"),
    "no services": (lambda: scenario(services=()), "at least one service required"),
    "slot of 0 ms": (lambda: scenario(t_slot_ms=0.0), "t_slot_ms must be finite and positive, not 0"),
    "slot of NaN ms": (lambda: scenario(t_slot_ms=math.nan), "t_slot_ms must be finite and positive, not nan"),
    "t_obs of 0": (lambda: scenario(t_obs=0), "t_obs and t_out must be positive"),
    "t_out of 0": (lambda: scenario(t_out=0), "t_obs and t_out must be positive"),
    "qldr_window below 1": (lambda: scenario(qldr_window=0), "qldr_window must be positive"),
    "duplicate service ids": (lambda: scenario(services=(spec(3), spec(3))), "service ids must be unique"),
    "no arrival source": (
        lambda: scenario(services=(spec(0), spec(1, arrival=None))),
        "service 1: arrival source must be a SyntheticModel or ArrivalTrace",
    ),
    "arrival source of another type": (
        lambda: scenario(services=(spec(0, arrival=[100, 0]), spec(1))),
        "service 0: arrival source must be a SyntheticModel or ArrivalTrace",
    ),
    "no channel source": (
        lambda: scenario(services=(spec(0, channel=None), spec(1))),
        "service 0: channel source must be a SyntheticModel or ChannelTrace",
    ),
    "anomaly of an unknown service": (
        lambda: scenario(anomaly=AnomalyConfig(7, 100, 200, 2.0)), "anomaly references an unknown service id"
    ),
    "negative anomaly factor": (lambda: AnomalyConfig(0, 100, 200, -0.5), "anomaly factor must be non-negative"),
    # the per-TTI loop and its metrics
    "ccdf budget 0": (lambda: ccdf([1.0, 2.0], 0.0), "w_th_ms must be positive"),
    "qldr stats of two lengths": (lambda: qldr_allocate([10.0, 20.0], [25.0], [5.0, 10.0], 8), "window stat lengths differ"),
    "qldr rate 0": (lambda: qldr_allocate([10.0], [0.0], [5.0], 8), "rates and budgets must be positive"),
    "FSM state D": (lambda: FsmRecord("D"), "unknown state 'D'"),
    "FSM request below 0": (lambda: FsmRecord("B", -1), "n_req must be non-negative"),
    "threshold q_t 0": (lambda: RtThresholds(0), "q_t must be a positive TTI count"),
    "threshold eta above 1": (lambda: RtThresholds(10, eta=1.5), "eta and tau must lie in (0, 1]"),
    "threshold tau 0": (lambda: RtThresholds(10, tau=0.0), "eta and tau must lie in (0, 1]"),
    "mitigation of another length": (lambda: mitigate([3, 3], [FsmRecord()]), "allocation and FSM record lengths differ"),
    # utilization estimators
    "mixture shapes": (
        lambda: GmmMixture(np.array([0.5, 0.5]), np.array([1.0]), np.array([1.0, 1.0])),
        "weights, means and sigmas must share a positive length",
    ),
    "empty mixture": (
        lambda: GmmMixture(np.array([]), np.array([]), np.array([])),
        "weights, means and sigmas must share a positive length",
    ),
    "usage table n_add below 0": (lambda: empirical_pmf([1, 2], -1), "n_add must be non-negative"),
    "EM of no samples": (lambda: fit_gmm_em([], 2), "samples must be a non-empty 1-d sequence"),
    "EM of 2-d samples": (lambda: fit_gmm_em([[1.0, 2.0]], 1), "samples must be a non-empty 1-d sequence"),
    "EM of no components": (lambda: fit_gmm_em([1.0, 2.0], 0), "component count must be positive"),
    # sources and traces
    "constant of two values": (lambda: SyntheticModel("constant", (1, 2)), "constant model takes exactly one value"),
    "two-point of three values": (
        lambda: SyntheticModel("two-point", (1, 2, 3), (0.2, 0.3, 0.5)), "two-point model takes exactly two values"
    ),
    "empty table": (lambda: SyntheticModel("empirical-table", (), ()), "empirical-table model needs at least one entry"),
    "table without probabilities": (
        lambda: SyntheticModel("empirical-table", (1, 2)), "probabilities required, one per support value"
    ),
    "table of fewer probabilities": (
        lambda: SyntheticModel("empirical-table", (1, 2), (1.0,)), "probabilities required, one per support value"
    ),
    "negative sample count": (
        lambda: sample_many(SyntheticModel("constant", (1,)), np.random.default_rng(0), -1), "size must be non-negative"
    ),
    "empty channel trace": (lambda: ChannelTrace(0, []), "channel trace must contain at least one TTI"),
    "channel trace of 0 bits per RB": (lambda: ChannelTrace(0, [25, 0]), "bits_per_rb must be strictly positive"),
    "empty trace file": (lambda: load_arrival_trace(io.StringIO(""), 0), "line 1: empty file, header row required"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_is_refused(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
