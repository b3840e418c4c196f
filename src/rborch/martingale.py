"""Delay-bound model: empirical log-MGF rate functions and the decay-rate search.

The arrival side exposes K'_a(theta) = log mean(exp(theta * a_i)); the service
side K'_s(theta) = -log of the availability-weighted mean of exp(-theta * s_i).
K'_a is convex and K'_s concave, so the gap f = K'_s - K'_a is concave with
f(0) = 0, and theta* = sup{theta : f(theta) >= 0} is its unique positive root.
The search classifies the capped and infeasible cases from the samples alone,
then runs a safeguarded Newton iteration on f.  It starts at the root of f's
second-order expansion, 2 (E[s] - E[a]) / (var s + var a), the heavy-traffic
decay rate (Kingman 1962), which lies close to theta*, and converges from the
right.  The delay bound follows as -log(eps) / K'_s(theta*) slots, with the
K'_s the search evaluated at theta*.

K'_s reads a region's samples only through their distinct values, how often
each occurs and how many there are.  So a CapacitySampleSet keeps no samples:
it holds the sorted unique values and counts of all its regions back to back
in one table with per-region offsets, and each region's sample count, and
K'_s is assembled from them with array operations and no loop over regions.
An ArrivalSampleSet builds K'_a once, with its asymptote and first two
cumulants; every candidate guarantee evaluated against the same arrivals
reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rt import check_slot
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


class ThetaSearchParams:
    """The search's constants: theta* below floor counts as infeasible; theta_cap is the largest value returned."""

    floor = 1e-9
    theta_cap = 64.0


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
    active regions for K'_s, the one window for K'_a.  mean and var are the
    mixture's, the first two cumulants, so R(theta) = theta * mean
    + sign * theta^2 * var / 2 + O(theta^3).
    """

    __slots__ = ("sign", "vals", "w", "wv", "edge", "dev", "offset", "groups", "intercept", "mean", "var")

    def __init__(self, sign: float, vals: np.ndarray, w: np.ndarray, groups, edge: float, edge_w: float,
                 offset: float = 0.0, total: float = 1.0):
        """edge is the largest of vals if sign = +1, else the least; edge_w
        is the weight on it, and total the sum of w."""
        self.sign = sign
        self.vals = vals
        self.w = w
        self.wv = w * vals
        self.groups = groups
        self.edge = edge
        # sign * theta * dev <= 0 for theta > 0, so no exp overflows; dev is
        # exact for samples of whole bits
        self.dev = vals - edge
        self.offset = offset
        self.intercept = sign * math.log(edge_w) - offset
        self.mean = float(np.dot(*groups))
        self.var = float(self.wv.dot(vals)) / total - self.mean * self.mean

    def __call__(self, theta: float) -> tuple[float, float]:
        t = self.sign * theta
        e = self.dev * t
        np.exp(e, out=e)
        z = float(self.w.dot(e))
        return self.sign * (t * self.edge + math.log(z)) - self.offset, float(self.wv.dot(e)) / z


def _arrival_rate(x_a: ArrivalSampleSet) -> _Rate:
    """K'_a over one compression of the samples, built once per set."""
    if x_a._rate is None:
        vals, counts = unique_counts(x_a.samples)
        t = len(x_a)
        mean = float(np.dot(counts, vals)) / t
        x_a._rate = _Rate(1.0, vals, counts, (np.ones(1), np.array([mean])), float(vals[-1]), float(counts[-1]),
                          math.log(t), t)
    return x_a._rate


def _service_rate(x_s: CapacitySampleSet, pi) -> _Rate:
    """K'_s over the regions with pi_n != 0, read from the set's table without a loop.

    pi is a raw vector, checked here, or a UtilizationPmf, checked when it
    was built, so each evaluation of the bound checks its pi once.  The
    regions with pi_n = 0 are dropped first, so they may hold nothing; a
    region with pi_n != 0 and no samples is an error.  Region means come from
    np.add.reduceat: the samples are whole bits below 2^53, so every partial
    sum is exact and equals a per-region dot product.  Each region's values
    are sorted, so the least sample is the least of the regions' first
    values.  The array methods and ufuncs called here give what the numpy
    functions of the same names do, at less cost per call on short arrays.
    """
    pi = pi.pi if isinstance(pi, UtilizationPmf) else check_pmf(pi)
    if len(pi) != x_s.n_add + 1:
        raise ValueError(f"pi must have n_add + 1 = {x_s.n_add + 1} entries, got {len(pi)}")
    offsets = x_s.val_offsets
    t_n, per_val, vals, counts = x_s.t_n, offsets[1:] - offsets[:-1], x_s.vals, x_s.counts
    active = pi.nonzero()[0]
    if len(active) < len(pi):
        keep = (pi != 0.0).repeat(per_val).nonzero()[0]
        vals, counts = vals.take(keep), counts.take(keep)
        t_n, per_val, pi = t_n.take(active), per_val.take(active), pi.take(active)
    if np.count_nonzero(t_n) < len(t_n):
        k = int(t_n.argmin())  # the first active region without samples
        raise ValueError(f"capacity region {int(active[k])} has pi_n = {float(pi[k])} but no samples")
    starts = np.add.accumulate(per_val) - per_val
    means = np.add.reduceat(counts * vals, starts) / t_n
    w = (pi / t_n).repeat(per_val)
    w *= counts
    firsts = vals.take(starts)
    edge = firsts.min()
    return _Rate(-1.0, vals, w, (pi, means), float(edge), float(w.take(starts)[firsts == edge].sum()))


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


def _search(ks: _Rate, ka: _Rate):
    """find_theta_star over the rates ks = K'_s and ka = K'_a: (theta*, (K'_s, K'_a)
    at theta*, or None when the samples decide theta* without an evaluation),
    or None when theta* does not exist."""
    p = ThetaSearchParams
    if ka.edge <= ks.edge:
        # max(a) <= min(s): f(theta) >= theta * (min(s) - max(a)) >= 0 everywhere (f = 0 included)
        return p.theta_cap, None
    # f'(0) = E_pi[s] - mean(a), summed over differences of means so that equal means cancel exactly
    p_s, m_s = ks.groups
    slope0 = float(p_s.dot(m_s - ka.groups[1][0]))
    if slope0 <= 0.0:
        # a concave f with f(0) = 0 and f'(0) <= 0 has no positive root
        return None
    # f lies below the difference of the asymptotes, whose root therefore bounds theta* from above
    hi = min(p.theta_cap, (ks.intercept - ka.intercept) / (ka.edge - ks.edge))
    if hi < p.floor:
        return None
    lo, lo_at = p.floor, None
    # the root of f's second-order expansion theta * f'(0) - theta^2 * (var s + var a) / 2
    spread = ks.var + ka.var
    theta = 2.0 * slope0 / spread if spread > 0.0 else hi
    if not lo < theta < hi:
        theta = hi
    # hi is probed once an evaluated point holds it: until then the search may not converge below it
    probed = theta == hi
    for _ in range(MAX_STEPS):
        (s, ds), (a, da) = ks(theta), ka(theta)
        value, slope = s - a, ds - da
        if value >= 0.0:
            if theta == hi:
                return theta, (s, a)  # the cap, or the asymptotes' root when it is theta* to rounding
            lo, lo_at = theta, (s, a)
        else:
            hi, probed = theta, True
        tol = REL_TOL * hi
        # right of theta* the tangent of the concave f lies above it, so its root is still >= theta*
        step = -value / slope if slope < 0.0 else math.nan
        nxt = theta + step
        if value < 0.0 and lo == p.floor and nxt <= lo:
            return None
        if abs(step) <= tol and probed:
            if value >= 0.0:
                return theta, (s, a)
            nxt -= 0.5 * tol  # converged from the right: step back onto the feasible side
        if not lo < nxt < hi:
            if not probed:
                nxt = hi
            elif hi - lo <= tol:
                return (lo, lo_at) if lo > p.floor else None
            else:
                nxt = 0.5 * (lo + hi)
        theta = nxt
    return (lo, lo_at) if lo > p.floor else None


def find_theta_star(x_a: ArrivalSampleSet, x_s: CapacitySampleSet, pi) -> Optional[float]:
    """Locate theta* = sup{theta > 0 : K'_s(theta) >= K'_a(theta)}.

    Returns theta_cap when max(a) <= min(s) or the gap is still non-negative
    there, and None when f'(0) = E_pi[s] - mean(a) <= 0 or theta* lies below
    the floor (service cannot keep up); neither case evaluates an exp when
    the samples decide it.  Otherwise Newton steps on the gap start at the
    root of its second-order expansion, 2 f'(0) / (var s + var a) (Kingman's
    heavy-traffic decay rate), when that lies below hi, the root of the rate
    functions' asymptotes or the cap, whichever is less, and at hi otherwise.
    A start on the feasible side steps right of theta*, along its tangent or
    to hi itself, so hi is evaluated before the search converges below it;
    from there the steps run from the right, and any step that leaves the
    bracket becomes a bisection step.  The result is on the side where the
    gap reads >= 0, within REL_TOL of theta* relative unless the float noise
    of the gap over |f'(theta*)| is larger, as it can be near a critical load.
    """
    found = _search(_service_rate(x_s, pi), _arrival_rate(x_a))
    return None if found is None else found[0]


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
    counts TTIs; the returned value is scaled by the slot duration, which must
    be finite and positive.  Infinite W signals an under-provisioned service.
    K'_s and K'_a at theta* are the values the search evaluated there.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    check_slot(t_slot_ms)
    ks_of, ka_of = _service_rate(x_s, pi), _arrival_rate(x_a)
    found = _search(ks_of, ka_of)
    if found is None:
        return DelayBoundResult(None, math.inf, math.nan, math.nan)
    theta, at = found
    ks, ka = at if at is not None else (ks_of(theta)[0], ka_of(theta)[0])
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
