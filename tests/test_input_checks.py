"""Input checks of the capacity, bound and allocator layers, each reached by one bad input."""

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
    brute_force_allocate,
    objective,
)


def samples():
    return CapacitySampleSet([[10, 20], [30]], n_min=1, n_add=1)


def window():
    return ServiceWindow(ArrivalSampleSet([5, 7]), ConcatPerRbVector([40, 60], [2, 3]), [0, 1])


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
    "delay bound slot 0": (
        lambda: delay_bound(ArrivalSampleSet([5]), samples(), [0.5, 0.5], 1e-3, t_slot_ms=0.0),
        "t_slot_ms must be positive",
    ),
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
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_is_refused(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
