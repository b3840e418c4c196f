"""Periodic guaranteed-RB allocation: minimize the worst delay-to-budget ratio.

Starting from an equal split, the allocator repeatedly evaluates the bound
ratio W_m / W_th_m per service and moves one RB toward the most stressed
service, drawing first from any unassigned remainder and then from the least
stressed donor; it commits only strict improvements and stops at the first
non-improving move.  A min-max dynamic program over the W(m, n) table, exact
over every positive composition of the cell budget, is the optimality oracle.
Each service's PMF is folded from one usage table per window and decision,
and W(m, n) depends on the window and n alone, so the order in which
candidates are evaluated changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .capacity import ConcatPerRbVector, build_capacity_samples
from .martingale import ArrivalSampleSet, delay_bound
from .rt import check_slot, whole_numbers
from .utilization import UsageTable, UtilizationPmf, empirical_pmf, fit_gmm_em, region_probabilities


@dataclass(frozen=True)
class ServiceSpec:
    """Delay budget, violation target and source bindings for one service."""

    id: int
    w_th_ms: float
    epsilon: float
    arrival: object = None
    channel: object = None

    def __post_init__(self):
        if self.w_th_ms <= 0:
            raise ValueError("w_th_ms must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")


@dataclass
class ServiceWindow:
    """Observation window for one service feeding a near-RT decision.

    Extra-RB usage must be 1-d, finite, whole and non-negative; it is kept as
    int64, so both estimators read the same counts.
    """

    arrivals: ArrivalSampleSet
    per_rb: ConcatPerRbVector
    extra_rb_usage: np.ndarray

    def __post_init__(self):
        if len(self.per_rb) == 0:
            raise ValueError("capacity window is empty")
        u = whole_numbers(self.extra_rb_usage, "extra-RB usage")
        if u.ndim != 1:
            raise ValueError(f"extra-RB usage must be 1-d, got {u.ndim} dimensions")
        if u.size == 0:
            raise ValueError("extra-RB usage window is empty")
        if np.any(u < 0):
            raise ValueError("extra-RB usage cannot be negative")
        self.extra_rb_usage = u.copy()


@dataclass(frozen=True)
class AllocatorConfig:
    t_slot_ms: float = 1.0
    estimator: str = "empirical"
    gmm_components: int = 3

    def __post_init__(self):
        check_slot(self.t_slot_ms)
        if self.estimator not in ("empirical", "gmm"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.gmm_components < 1:
            raise ValueError("gmm_components must be at least 1")


@dataclass(frozen=True)
class GuaranteedAllocation:
    """Committed guarantees with their estimated bounds and ratio objective."""

    n_min: tuple[int, ...]
    w_est: tuple[float, ...]
    objective: float
    objective_history: tuple[float, ...] = ()
    evaluations: int = 0


def objective(w_est: Sequence[float], w_th: Sequence[float]) -> float:
    """Worst ratio of estimated bound to budget; inf dominates everything."""
    if len(w_est) != len(w_th):
        raise ValueError("w_est and w_th lengths differ")
    if any(t <= 0 for t in w_th):
        raise ValueError("budgets must be positive")
    return max(w / t for w, t in zip(w_est, w_th))


class _CandidateEvaluator:
    """Caches W(service, n_min) so repeated candidates cost nothing."""

    def __init__(self, specs, windows, n_cell, cfg: AllocatorConfig | None = None, rng=None):
        if n_cell < len(specs):
            raise ValueError("cell budget smaller than the number of services")
        cfg = cfg or AllocatorConfig()
        if len(specs) != len(windows):
            raise ValueError("specs and windows lengths differ")
        if not specs:
            raise ValueError("at least one service required")
        self.specs = specs
        self.windows = windows
        self.n_cell = n_cell
        self.cfg = cfg
        self._cache: dict[tuple[int, int], float] = {}
        # one usage table per window, folded for every candidate's n_add <= n_cell - 1
        if cfg.estimator == "gmm":
            rng = rng if rng is not None else np.random.default_rng(0)
            self._pmf = region_probabilities
            self._usage = [
                UsageTable.of_gmm(
                    fit_gmm_em(
                        w.extra_rb_usage.astype(np.float64),
                        min(cfg.gmm_components, len(w.extra_rb_usage)),
                        rng=rng,
                    ),
                    n_cell - 1,
                )
                for w in windows
            ]
        else:
            self._pmf = empirical_pmf
            self._usage = [UsageTable.of_usage(w.extra_rb_usage, n_cell - 1) for w in windows]

    def pmf(self, m: int, n_min: int) -> UtilizationPmf:
        return self._pmf(self._usage[m], self.n_cell - n_min)

    def w_est(self, m: int, n_min: int) -> float:
        key = (m, n_min)
        got = self._cache.get(key)
        if got is not None:
            return got
        pi = self.pmf(m, n_min)
        x_s = build_capacity_samples(self.windows[m].per_rb, n_min, self.n_cell, pi.pi)
        res = delay_bound(
            self.windows[m].arrivals,
            x_s,
            pi,
            self.specs[m].epsilon,
            self.cfg.t_slot_ms,
        )
        self._cache[key] = res.w_ms
        return res.w_ms


def allocate(
    specs: Sequence[ServiceSpec],
    windows: Sequence[ServiceWindow],
    n_cell: int,
    cfg: AllocatorConfig | None = None,
    rng: Optional[np.random.Generator] = None,
) -> GuaranteedAllocation:
    """Iterative max-ratio descent over guaranteed-RB vectors.

    Donors never drop below one RB; unassigned remainder RBs from the floor
    initialization are absorbed by plain +1 moves before any donor is tapped.
    A candidate's donor is evaluated first: when its ratio alone reaches the
    best objective, the descent stops without evaluating the receiver.
    """
    ev = _CandidateEvaluator(specs, windows, n_cell, cfg, rng)
    m_count = len(specs)
    w_th = [s.w_th_ms for s in specs]

    cand = [n_cell // m_count] * m_count
    best_n = None
    best_w: list[float] = []
    best_g = math.inf
    history: list[float] = []
    evals = 0
    donor = None
    while True:
        evals += 1
        # the donor's W first: a donor ratio at best_g or above already keeps
        # the candidate's objective from improving, whatever the receiver's
        if donor is not None and ev.w_est(donor, cand[donor]) / w_th[donor] >= best_g:
            break
        w_z = [ev.w_est(m, cand[m]) for m in range(m_count)]
        g_z = objective(w_z, w_th)
        if best_n is None or g_z < best_g:
            best_n, best_w, best_g = list(cand), w_z, g_z
            history.append(g_z)
        else:
            break
        ratios = [w / t for w, t in zip(best_w, w_th)]
        receiver = min(range(m_count), key=lambda m: (-ratios[m], m))
        spare = n_cell - sum(best_n)
        if spare > 0:
            cand = list(best_n)
            cand[receiver] += 1
            donor = None
            continue
        donors = [m for m in range(m_count) if m != receiver and best_n[m] > 1]
        if not donors:
            break
        donor = min(donors, key=lambda m: (ratios[m], m))
        cand = list(best_n)
        cand[receiver] += 1
        cand[donor] -= 1
    return GuaranteedAllocation(tuple(best_n), tuple(best_w), best_g, tuple(history), evals)


def _minmax_split(ratios: np.ndarray, n_cell: int) -> tuple[int, ...]:
    """The lexicographically first composition of n_cell into positive parts
    minimizing max_m ratios[m, n_m].  suf[m, s] is the least such max over
    services m.. sharing s RBs (inf if none); each service but the last takes
    the fewest RBs from which the rest still reach suf[0, n_cell].
    """
    m_count = len(ratios)
    suf = np.full((m_count + 1, n_cell + 1), np.inf)
    suf[m_count, 0] = -np.inf
    for m in range(m_count - 1, -1, -1):
        for s in range(1, n_cell + 1):
            # n = 1..s RBs to service m leave s - 1..0 to the services after it
            suf[m, s] = np.maximum(ratios[m, 1 : s + 1], suf[m + 1, s - 1 :: -1]).min()
    opt, left, split = suf[0, n_cell], n_cell, []
    for m in range(m_count - 1):
        n = 1 + int(np.argmax(np.maximum(ratios[m, 1 : left + 1], suf[m + 1, left - 1 :: -1]) <= opt))
        split.append(n)
        left -= n
    return (*split, left)


def brute_force_allocate(
    specs: Sequence[ServiceSpec],
    windows: Sequence[ServiceWindow],
    n_cell: int,
    cfg: AllocatorConfig | None = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[GuaranteedAllocation, int]:
    """Exact minimizer over all positive compositions of the cell budget.

    W(m, n) is evaluated once for each n a composition can give service m;
    _minmax_split then finds the first minimum in lexicographic order.  The
    count is the C(n_cell - 1, M - 1) compositions it decides over.
    """
    ev = _CandidateEvaluator(specs, windows, n_cell, cfg, rng)
    m_count = len(specs)
    n_compositions = math.comb(n_cell - 1, m_count - 1)
    w_th = [s.w_th_ms for s in specs]

    n_lo = n_cell if m_count == 1 else 1
    n_hi = n_cell - m_count + 1
    ratios = np.full((m_count, n_cell + 1), np.inf)
    for m in range(m_count):
        for n in range(n_lo, n_hi + 1):
            ratios[m, n] = ev.w_est(m, n) / w_th[m]
    best = _minmax_split(ratios, n_cell)
    w_z = tuple(ev.w_est(m, n) for m, n in enumerate(best))
    g_z = objective(w_z, w_th)
    alloc = GuaranteedAllocation(best, w_z, g_z, (g_z,), n_compositions)
    return alloc, n_compositions
