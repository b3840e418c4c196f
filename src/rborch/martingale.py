"""Delay-bound model: empirical log-MGF rate functions and the decay-rate search.

The arrival side exposes K'_a(theta) = log mean(exp(theta * a_i)); the service
side K'_s(theta) = -log of the availability-weighted mean of exp(-theta * s_i).
K'_a is convex and K'_s concave, so the gap f = K'_s - K'_a is concave with
f(0) = 0, and theta* = sup{theta : f(theta) >= 0} is its unique positive root.
The search classifies the capped and infeasible cases from the samples alone,
then runs a safeguarded Newton iteration on f from the right.  The delay bound
follows as -log(eps) / K'_s(theta*) slots.

K'_s reads a region's samples only through their distinct values, how often
each occurs and how many there are.  So a CapacitySampleSet keeps no samples:
it holds the sorted unique values and counts of all its regions back to back
in one table with per-region offsets, and each region's sample count, and
K'_s is assembled from them with array operations and no loop over regions.
An ArrivalSampleSet builds K'_a once; every candidate guarantee evaluated
against the same arrivals reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .utilization import UtilizationPmf, check_pmf

# a search stops once its Newton step is at most this fraction of the bracket's upper end
REL_TOL = 1e-9
# bound on safeguarded steps: bisection alone narrows [1e-9, 64] to REL_TOL in about 60
MAX_STEPS = 100


def unique_counts(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique values, float64 counts); duplicates are frequent in sample windows."""
    vals, counts = np.unique(samples, return_counts=True)
    return vals, counts.astype(np.float64)


class ArrivalSampleSet:
    """Observed bits-per-TTI window feeding the arrival MGF."""

    __slots__ = ("samples", "_rate")

    def __init__(self, samples):
        arr = np.asarray(samples)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("arrival sample set must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("arrival samples must be finite and non-negative")
        self.samples = arr.astype(np.float64, copy=False)
        self._rate = None  # K'_a, built on first use

    def __len__(self) -> int:
        return len(self.samples)


class CapacitySampleSet:
    """Per-region service samples: region n holds sums over n + n_min RBs.

    Only what K'_s reads is kept.  The sorted unique values of every region
    and their float64 counts lie back to back in one table: region n's are
    vals and counts over val_offsets[n]:val_offsets[n + 1].  t_n[n] is region
    n's number of samples.  A set sliced from a window's capacity table may
    hold holes, regions with no values and t_n[n] = 0, where the build was
    told pi_n = 0; K'_s rejects a pi that weights one.
    """

    __slots__ = ("n_min", "n_add", "t_n", "vals", "counts", "val_offsets")

    def __init__(self, region_samples, n_min: int, n_add: int):
        if n_min < 1:
            raise ValueError("n_min must be a positive RB count")
        if n_add < 0:
            raise ValueError("n_add must be non-negative")
        if len(region_samples) != n_add + 1:
            raise ValueError("need exactly n_add + 1 sample vectors")
        vecs = []
        for n, v in enumerate(region_samples):
            arr = np.asarray(v)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"sample vector for region {n} is empty")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"service samples must be finite and non-negative (region {n})")
            vecs.append(arr.astype(np.float64, copy=False))
        uniq = [unique_counts(v) for v in vecs]
        sizes = np.cumsum([len(vals) for vals, _ in uniq])
        self._fill(
            n_min,
            np.array([len(v) for v in vecs], dtype=np.int64),
            np.concatenate([vals for vals, _ in uniq]),
            np.concatenate([counts for _, counts in uniq]),
            np.concatenate(([0], sizes)),
        )

    @classmethod
    def _of_table(cls, n_min: int, t_n, vals, counts, val_offsets) -> CapacitySampleSet:
        """Set over an already checked table and sample counts, taken as they are."""
        self = cls.__new__(cls)
        self._fill(n_min, t_n, vals, counts, val_offsets)
        return self

    def _fill(self, n_min, t_n, vals, counts, val_offsets):
        self.n_min = n_min
        self.n_add = len(t_n) - 1
        self.t_n = t_n
        self.vals, self.counts, self.val_offsets = vals, counts, val_offsets

    def compressed(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(sorted unique values, float64 counts) of region n, both empty for a hole."""
        a, b = self.val_offsets[n], self.val_offsets[n + 1]
        return self.vals[a:b], self.counts[a:b]


@dataclass(frozen=True)
class ThetaSearchParams:
    """theta* below floor counts as infeasible; theta_cap is the largest value returned."""

    floor: float = 1e-9
    theta_cap: float = 64.0

    def __post_init__(self):
        if not (0.0 < self.floor < self.theta_cap):
            raise ValueError("need 0 < floor < theta_cap")


_PARAMS = ThetaSearchParams()


@dataclass(frozen=True)
class DelayBoundResult:
    """Delay bound for one service; w_ms is inf exactly when theta_star is absent."""

    theta_star: Optional[float]
    w_ms: float
    k_prime_a_at_star: float
    k_prime_s_at_star: float


class _Rate:
    """R(theta) = sign * log(sum(w * exp(sign * theta * v))) - offset, for theta > 0.

    sign = +1 with offset log T gives K'_a; sign = -1 with offset 0 gives K'_s.
    A call returns (R, R') from one exp pass; R' is the mean of v tilted by
    w * exp(sign * theta * v).  As theta grows, R approaches the line
    theta * edge + intercept, K'_a from above and K'_s from below.  groups
    holds the (weights, means) of the sample groups that (v, w) mixes: the
    active regions for K'_s, the one window for K'_a.
    """

    __slots__ = ("sign", "vals", "w", "wv", "edge", "offset", "groups")

    def __init__(self, sign: float, vals: np.ndarray, w: np.ndarray, groups, offset: float = 0.0):
        self.sign = sign
        self.vals = vals
        self.w = w
        self.wv = w * vals
        self.groups = groups
        # sign * theta * edge is the max of sign * theta * vals: theta > 0 keeps the rounded products in order
        self.edge = float(vals.max() if sign > 0 else vals.min())
        self.offset = offset

    def __call__(self, theta: float) -> tuple[float, float]:
        t = self.sign * theta
        m = t * self.edge
        e = np.exp(t * self.vals - m)
        z = float(np.dot(self.w, e))
        return self.sign * (m + math.log(z)) - self.offset, float(np.dot(self.wv, e)) / z

    def intercept(self) -> float:
        return self.sign * math.log(float(self.w[self.vals == self.edge].sum())) - self.offset


def _arrival_rate(x_a: ArrivalSampleSet) -> _Rate:
    """K'_a over one compression of the samples, built once per set."""
    if x_a._rate is None:
        vals, counts = unique_counts(x_a.samples)
        mean = float(np.dot(counts, vals)) / len(x_a)
        x_a._rate = _Rate(1.0, vals, counts, (np.ones(1), np.array([mean])), math.log(len(x_a)))
    return x_a._rate


def _service_rate(x_s: CapacitySampleSet, pi) -> _Rate:
    """K'_s over the regions with pi_n != 0, read from the set's table without a loop.

    pi is a raw vector, checked here, or a UtilizationPmf, checked when it
    was built, so each evaluation of the bound checks its pi once.  The
    regions with pi_n = 0 are dropped first, so they may hold nothing; a
    region with pi_n != 0 and no samples is an error.  Region means come from
    np.add.reduceat: the samples are whole bits below 2^53, so every partial
    sum is exact and equals a per-region dot product.
    """
    pi = pi.pi if isinstance(pi, UtilizationPmf) else check_pmf(pi)
    if len(pi) != x_s.n_add + 1:
        raise ValueError(f"pi must have n_add + 1 = {x_s.n_add + 1} entries, got {len(pi)}")
    t_n, per_val = x_s.t_n, x_s.val_offsets[1:] - x_s.val_offsets[:-1]
    vals, counts = x_s.vals, x_s.counts
    active = pi != 0.0
    if not active.all():
        keep = np.repeat(active, per_val)
        vals, counts, t_n, per_val = vals[keep], counts[keep], t_n[active], per_val[active]
        pi = pi[active]
    if not t_n.all():
        k = int(np.argmin(t_n))  # the first active region without samples
        n = int(np.flatnonzero(active)[k])
        raise ValueError(f"capacity region {n} has pi_n = {float(pi[k])} but no samples")
    starts = np.cumsum(per_val) - per_val
    means = np.add.reduceat(counts * vals, starts) / t_n
    w = counts * np.repeat(pi / t_n, per_val)
    return _Rate(-1.0, vals, w, (pi, means))


def arrival_log_mgf(x_a: ArrivalSampleSet, theta: float) -> float:
    """K'_a(theta) = log[(1/T) sum_i exp(theta a_i)], evaluated in log space."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return _arrival_rate(x_a)(float(theta))[0]


def service_log_neg_mgf(x_s: CapacitySampleSet, pi, theta: float) -> float:
    """K'_s(theta) = -log[ sum_n (pi_n / T_n) sum_i exp(-theta s_i^n) ]."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    return _service_rate(x_s, pi)(float(theta))[0]


def _search(ks: _Rate, ka: _Rate) -> Optional[float]:
    """find_theta_star over the rates ks = K'_s and ka = K'_a."""
    p = _PARAMS
    if ka.edge <= ks.edge:
        # max(a) <= min(s): f(theta) >= theta * (min(s) - max(a)) >= 0 everywhere (f = 0 included)
        return p.theta_cap
    # f'(0) = E_pi[s] - mean(a), summed over differences of means so that equal means cancel exactly
    p_s, m_s = ks.groups
    if float(np.dot(p_s, m_s - ka.groups[1][0])) <= 0.0:
        # a concave f with f(0) = 0 and f'(0) <= 0 has no positive root
        return None
    # f lies below the difference of the asymptotes, whose root therefore bounds theta* from above
    hi = min(p.theta_cap, (ks.intercept() - ka.intercept()) / (ka.edge - ks.edge))
    if hi < p.floor:
        return None

    def gap(theta: float) -> tuple[float, float]:
        (s, ds), (a, da) = ks(theta), ka(theta)
        return s - a, ds - da

    theta, lo = hi, p.floor
    value, slope = gap(theta)
    if value >= 0.0:
        return theta  # the cap, or the asymptotes' root when it is theta* to rounding
    for _ in range(MAX_STEPS):
        if value >= 0.0:
            lo = theta
        else:
            hi = theta
        tol = REL_TOL * hi
        # right of theta* the tangent of the concave f lies above it, so its root is still >= theta*
        step = -value / slope if slope < 0.0 else math.nan
        nxt = theta + step
        if value < 0.0 and lo == p.floor and nxt <= lo:
            return None
        if abs(step) <= tol:
            if value >= 0.0:
                return theta
            nxt -= 0.5 * tol  # converged from the right: step back onto the feasible side
        if not lo < nxt < hi:
            if hi - lo <= tol:
                return lo if lo > p.floor else None
            nxt = 0.5 * (lo + hi)
        theta = nxt
        value, slope = gap(theta)
    return lo if lo > p.floor else None


def find_theta_star(x_a: ArrivalSampleSet, x_s: CapacitySampleSet, pi) -> Optional[float]:
    """Locate theta* = sup{theta > 0 : K'_s(theta) >= K'_a(theta)}.

    Returns theta_cap when max(a) <= min(s) or the gap is still non-negative
    there, and None when f'(0) = E_pi[s] - mean(a) <= 0 or theta* lies below
    the floor (service cannot keep up); neither case evaluates an exp when
    the samples decide it.  Otherwise Newton steps on the gap run from the
    right, starting at the root of the rate functions' asymptotes (or the cap);
    any step that leaves the bracket becomes a bisection step.  The result is
    within REL_TOL of theta* relative, on the side where the gap is >= 0.
    """
    return _search(_service_rate(x_s, pi), _arrival_rate(x_a))


def delay_bound(
    x_a: ArrivalSampleSet,
    x_s: CapacitySampleSet,
    pi,
    epsilon: float,
    t_slot_ms: float = 1.0,
) -> DelayBoundResult:
    """Delay W (ms) with P[w >= W] <= epsilon under the fitted rate functions.

    pi weights the capacity regions: a raw vector, which is checked, or a
    UtilizationPmf, which was checked when it was built.  The raw bound
    counts TTIs; the returned value is scaled by the slot duration.  Infinite
    W signals an under-provisioned service.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if t_slot_ms <= 0:
        raise ValueError("t_slot_ms must be positive")
    ks_of, ka_of = _service_rate(x_s, pi), _arrival_rate(x_a)
    theta = _search(ks_of, ka_of)
    if theta is None:
        return DelayBoundResult(None, math.inf, math.nan, math.nan)
    ks = ks_of(theta)[0]
    ka = ka_of(theta)[0]
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
