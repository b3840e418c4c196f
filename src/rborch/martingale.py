"""Delay-bound model: empirical log-MGF rate functions and the decay-rate search.

The arrival side exposes K'_a(theta) = log mean(exp(theta * a_i)); the service
side K'_s(theta) = -log of the availability-weighted mean of exp(-theta * s_i).
The supremum theta* of {theta : K'_s >= K'_a} is located by geometric shrink
plus bisection, and the delay bound follows as -log(eps) / K'_s(theta*) slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

BISECT_REL_WIDTH = 1e-9


def _lse(x: np.ndarray, w: np.ndarray, m: float) -> float:
    """log(sum(w * exp(x))) shifted by m = max(x); w positive, not necessarily normalized."""
    return m + math.log(float(np.dot(w, np.exp(x - m))))


def unique_counts(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique values, float64 counts); duplicates are frequent in sample windows."""
    vals, counts = np.unique(samples, return_counts=True)
    return vals, counts.astype(np.float64)


class ArrivalSampleSet:
    """Observed bits-per-TTI window feeding the arrival MGF."""

    __slots__ = ("samples", "_vals", "_counts")

    def __init__(self, samples):
        arr = np.asarray(samples)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("arrival sample set must be a non-empty 1-d sequence")
        if np.any(arr < 0):
            raise ValueError("arrival samples must be non-negative")
        self.samples = arr.astype(np.float64, copy=False)
        self._vals = None
        self._counts = None

    def __len__(self) -> int:
        return len(self.samples)

    def compressed(self):
        """(unique values, counts); duplicates are frequent with synthetic sources."""
        if self._vals is None:
            self._vals, self._counts = unique_counts(self.samples)
        return self._vals, self._counts


class CapacitySampleSet:
    """Per-region service samples: vector n holds sums over n + n_min RBs."""

    __slots__ = ("per_n_samples", "n_min", "n_add", "_compressed")

    def __init__(self, per_n_samples, n_min: int, n_add: int):
        if n_min < 1:
            raise ValueError("n_min must be a positive RB count")
        if n_add < 0:
            raise ValueError("n_add must be non-negative")
        if len(per_n_samples) != n_add + 1:
            raise ValueError("need exactly n_add + 1 sample vectors")
        vecs = []
        for n, v in enumerate(per_n_samples):
            arr = np.asarray(v)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"sample vector for region {n} is empty")
            if np.any(arr < 0):
                raise ValueError(f"service samples must be non-negative (region {n})")
            vecs.append(arr.astype(np.float64, copy=False))
        self.per_n_samples = vecs
        self.n_min = n_min
        self.n_add = n_add
        self._compressed: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_groups(cls, groups, n_min: int) -> CapacitySampleSet:
        """Set over already checked regions: groups[n] = (float64 samples, unique values, counts)."""
        self = cls.__new__(cls)
        self.per_n_samples = [samples for samples, _, _ in groups]
        self.n_min = n_min
        self.n_add = len(groups) - 1
        self._compressed = {n: (vals, counts) for n, (_, vals, counts) in enumerate(groups)}
        return self

    def compressed(self, n: int):
        got = self._compressed.get(n)
        if got is None:
            got = self._compressed[n] = unique_counts(self.per_n_samples[n])
        return got


@dataclass(frozen=True)
class ThetaSearchParams:
    theta_init: float = 1.0
    shrink: float = 0.9
    floor: float = 1e-9
    theta_cap: float = 64.0
    bisection_iters: int = 80

    def __post_init__(self):
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must lie in (0, 1)")
        if not (0.0 < self.floor < self.theta_init <= self.theta_cap):
            raise ValueError("need 0 < floor < theta_init <= theta_cap")
        if self.bisection_iters < 1:
            raise ValueError("bisection_iters must be positive")


@dataclass(frozen=True)
class DelayBoundResult:
    """Delay bound for one service; w_ms is inf exactly when theta_star is absent."""

    theta_star: Optional[float]
    w_ms: float
    k_prime_a_at_star: float
    k_prime_s_at_star: float


def _normalize_pi(pi, n_add: int) -> np.ndarray:
    arr = np.asarray(pi, dtype=np.float64)
    if arr.ndim != 1 or len(arr) != n_add + 1:
        raise ValueError(f"pi must have {n_add + 1} entries, got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("pi entries must be non-negative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("pi must sum to 1 within 1e-9")
    return arr


def _arrival_rate(x_a: ArrivalSampleSet):
    """K'_a as a function of theta > 0, over one compression of the samples."""
    vals, counts = x_a.compressed()
    # vals is sorted and theta > 0 keeps the rounded products in order, so theta * top is their max
    top = float(vals[-1])
    log_t_obs = math.log(len(x_a))
    return lambda theta: _lse(theta * vals, counts, theta * top) - log_t_obs


def _service_weighted(x_s: CapacitySampleSet, pi: np.ndarray):
    """Flatten the active regions into (values, weights) for one LSE pass."""
    chunks_v, chunks_w = [], []
    for n in range(x_s.n_add + 1):
        p = pi[n]
        if p == 0.0:
            continue
        vals, counts = x_s.compressed(n)
        chunks_v.append(vals)
        chunks_w.append(counts * (p / len(x_s.per_n_samples[n])))
    return np.concatenate(chunks_v), np.concatenate(chunks_w)


def _service_rate(x_s: CapacitySampleSet, pi):
    """K'_s as a function of theta > 0, over one flattening of the active regions."""
    vals, wts = _service_weighted(x_s, _normalize_pi(pi, x_s.n_add))
    # -theta * low is the max of -theta * vals, for the same reason as in _arrival_rate
    low = float(vals.min())
    return lambda theta: -_lse(-theta * vals, wts, -theta * low)


def arrival_log_mgf(x_a: ArrivalSampleSet, theta: float) -> float:
    """K'_a(theta) = log[(1/T) sum_i exp(theta a_i)], evaluated in log space."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return _arrival_rate(x_a)(float(theta))


def service_log_neg_mgf(x_s: CapacitySampleSet, pi, theta: float) -> float:
    """K'_s(theta) = -log[ sum_n (pi_n / T_n) sum_i exp(-theta s_i^n) ]."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return _service_rate(x_s, pi)(float(theta))


def _bisect(f, lo: float, hi: float, iters: int) -> float:
    """Shrink [lo, hi] with f(lo) >= 0 > f(hi); returns the feasible edge."""
    for _ in range(iters):
        if hi - lo <= BISECT_REL_WIDTH * hi:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _search(ks, ka, p: ThetaSearchParams) -> Optional[float]:
    """find_theta_star over the rate functions ks = K'_s and ka = K'_a."""

    def f(theta: float) -> float:
        return ks(theta) - ka(theta)

    if f(p.theta_init) >= 0.0:
        lo = p.theta_init
        while lo < p.theta_cap:
            hi = min(2.0 * lo, p.theta_cap)
            if f(hi) >= 0.0:
                lo = hi
            else:
                return _bisect(f, lo, hi, p.bisection_iters)
        return p.theta_cap

    theta_old = p.theta_init
    while True:
        theta_new = theta_old * p.shrink
        if f(theta_new) >= 0.0:
            return _bisect(f, theta_new, theta_old, p.bisection_iters)
        theta_old = theta_new
        if theta_new < p.floor:
            return None


def find_theta_star(
    x_a: ArrivalSampleSet,
    x_s: CapacitySampleSet,
    pi,
    params: ThetaSearchParams | None = None,
) -> Optional[float]:
    """Locate theta* = sup{theta > 0 : K'_s(theta) >= K'_a(theta)}.

    Geometric shrink from theta_init until the gap turns non-negative, then
    bisection over the bracketing interval.  Returns None when the gap stays
    negative all the way down to the floor (service cannot keep up).  When the
    gap is already non-negative at theta_init, the search expands upward by
    doubling and caps out at theta_cap.
    """
    return _search(_service_rate(x_s, pi), _arrival_rate(x_a), params or ThetaSearchParams())


def delay_bound(
    x_a: ArrivalSampleSet,
    x_s: CapacitySampleSet,
    pi,
    epsilon: float,
    t_slot_ms: float = 1.0,
    params: ThetaSearchParams | None = None,
) -> DelayBoundResult:
    """Delay W (ms) with P[w >= W] <= epsilon under the fitted rate functions.

    The raw bound counts TTIs; the returned value is scaled by the slot
    duration.  Infinite W signals an under-provisioned service.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if t_slot_ms <= 0:
        raise ValueError("t_slot_ms must be positive")
    ks_of, ka_of = _service_rate(x_s, pi), _arrival_rate(x_a)
    theta = _search(ks_of, ka_of, params or ThetaSearchParams())
    if theta is None:
        return DelayBoundResult(None, math.inf, math.nan, math.nan)
    ks = ks_of(theta)
    ka = ka_of(theta)
    if ks <= 0.0:
        # zero effective service rate: no finite decay, treat as infeasible
        return DelayBoundResult(None, math.inf, math.nan, math.nan)
    w = (-math.log(epsilon) / ks) * t_slot_ms
    return DelayBoundResult(theta, w, ka, ks)


def violation_bound(result: DelayBoundResult, w_query_ms: float, t_slot_ms: float = 1.0) -> float:
    """P[w >= w_query] <= exp(-K'_s(theta*) * w_query / t_slot), capped at 1."""
    if result.theta_star is None:
        raise ValueError("violation bound undefined: theta* does not exist")
    if w_query_ms < 0:
        raise ValueError("w_query_ms must be non-negative")
    return min(1.0, math.exp(-result.k_prime_s_at_star * (w_query_ms / t_slot_ms)))
