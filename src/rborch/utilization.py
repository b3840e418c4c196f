"""Estimate the PMF of additional-RB availability per service.

Two paths: a plain normalized histogram of observed extra-RB usage, and a
Gaussian mixture fitted by EM whose density is integrated over unit-wide
regions centred on each integer RB count (tails absorbed at both ends).
Both come from one UsageTable per window: the histogram's counts, or the
mixture's normal CDFs at the inner region edges, up to the largest n_add a
decision reads.  The PMF for any n_add is a fold of that table, and the
public functions build a table for their n_add and fold it, so a decision
builds each window's table once and both paths share one fold.

Usage windows hold few distinct values, so EM runs over those values
weighted by their counts (EM for grouped data): the same sums as over every
sample, one row per value.  The normal CDF is math.erfc, so no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .rt import whole_numbers

SIGMA_FLOOR = 1e-3
EM_ITERS = 200  # EM stops after this many iterations,
EM_TOL = 1e-8  # or once an iteration gains less log-likelihood than this
_SQRT2 = math.sqrt(2.0)
# unique_counts counts int64 values when their span is within this many
# times their number, and sorts them otherwise
_COUNT_SPAN = 4


@dataclass(frozen=True)
class GmmMixture:
    """1-d Gaussian mixture: weights, means (RBs) and standard deviations."""

    weights: np.ndarray
    means: np.ndarray
    sigmas: np.ndarray
    log_likelihoods: tuple[float, ...] = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        sg = np.asarray(self.sigmas, dtype=np.float64)
        if not (len(w) == len(mu) == len(sg)) or len(w) == 0:
            raise ValueError("weights, means and sigmas must share a positive length")
        if np.any(w <= 0) or not abs(float(w.sum()) - 1.0) <= 1e-9:
            raise ValueError("weights must be positive and sum to 1 within 1e-9")
        if not np.all(np.isfinite(mu)):
            raise ValueError("means must be finite")
        if not np.all((sg > 0) & np.isfinite(sg)):
            raise ValueError("sigmas must be positive and finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "sigmas", sg)


def unique_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct values, float64 counts) of a non-empty 1-d array: int64
    values are counted over their span when it is within _COUNT_SPAN times
    their number, any others sorted once and read as runs of equal values."""
    lo = values.min()
    if values.dtype == np.int64 and values.max() - lo < _COUNT_SPAN * len(values):
        counts = np.bincount(values - lo)
        vals = np.flatnonzero(counts)
        return vals + lo, counts[vals].astype(np.float64)
    values = np.sort(values)
    # starts of the runs of equal values, and the end of the last run
    edges = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1], [True])))
    return values[edges[:-1]], (edges[1:] - edges[:-1]).astype(np.float64)


def check_pmf(pi) -> np.ndarray:
    """pi as a non-empty float64 vector of non-negative entries that sum to 1
    within 1e-9; a NaN or an infinity fails."""
    arr = np.asarray(pi, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError(f"pi must be a non-empty vector, got shape {arr.shape}")
    if (arr < 0).any():
        raise ValueError("pi entries must be non-negative")
    if not abs(float(arr.sum()) - 1.0) <= 1e-9:
        raise ValueError("pi must sum to 1 within 1e-9")
    return arr


@dataclass(frozen=True)
class UtilizationPmf:
    """pi_n for n in [0, n_add]: probability of n extra RBs being available."""

    pi: np.ndarray

    def __post_init__(self):
        # the bound functions take a UtilizationPmf without checking it again,
        # so it keeps a checked copy that cannot be written
        pi = check_pmf(np.array(self.pi, dtype=np.float64))
        pi.flags.writeable = False
        object.__setattr__(self, "pi", pi)


# the weights of the histogram's one component
_ONE = np.ones(1)


def _check_n_add(n_add: int) -> None:
    if n_add < 0:
        raise ValueError("n_add must be non-negative")


class UsageTable:
    """One window's usage PMF for every n_add up to n_top, as one table.

    The table holds each component's CDF at the inner region edges 1/2 ..
    n_top - 1/2 and its whole mass: for the histogram one component of
    weight 1 whose mass is the number of observations (its CDF counts the
    observations at or below each edge), for a mixture its components'
    normal CDFs, of mass 1.  It keeps them as mass[c, k], component c's mass
    between the edges around k, and tail[c, k], its mass above k - 1/2.
    pmf(n_add) folds regions 0..n_add out of them, so a decision builds the
    table once per window and folds it for each candidate guarantee.
    """

    __slots__ = ("weights", "mass", "tail")

    def __init__(self, weights: np.ndarray, cdf: np.ndarray, top: float):
        self.weights = weights
        # the outer edges are -inf and +inf
        edges = np.empty((len(weights), cdf.shape[1] + 2))
        edges[:, 0] = 0.0
        edges[:, 1:-1] = cdf
        edges[:, -1] = top
        self.mass = np.diff(edges, axis=1)
        self.tail = top - edges[:, :-1]

    @classmethod
    def of_usage(cls, extra_rb_usage: Sequence[int], n_top: int) -> UsageTable:
        """The histogram of observed extra-RB usage, whole and non-negative."""
        usage = whole_numbers(extra_rb_usage, "extra-RB usage")
        if usage.size == 0:
            raise ValueError("empirical PMF needs at least one observation")
        if np.any(usage < 0):
            raise ValueError("extra-RB usage cannot be negative")
        _check_n_add(n_top)
        counts = np.bincount(np.minimum(usage, n_top), minlength=n_top + 1)
        return cls(_ONE, np.cumsum(counts[:n_top], dtype=np.float64)[None, :], float(usage.size))

    @classmethod
    def of_gmm(cls, gmm: GmmMixture, n_top: int) -> UsageTable:
        """The mixture's normal CDFs at the inner region edges."""
        _check_n_add(n_top)
        edges = np.arange(n_top, dtype=np.float64) + 0.5
        z = (edges[None, :] - gmm.means[:, None]) / gmm.sigmas[:, None]
        cdf = np.array([[0.5 * math.erfc(-t / _SQRT2) for t in row] for row in z.tolist()]).reshape(z.shape)
        return cls(gmm.weights, cdf, 1.0)

    def pmf(self, n_add: int) -> UtilizationPmf:
        """pi over regions 0..n_add: region 0 takes all mass below 1/2 and
        region n_add all mass above n_add - 1/2, renormalized to a PMF."""
        _check_n_add(n_add)
        if n_add >= self.tail.shape[1]:
            raise ValueError(f"n_add {n_add} exceeds the table's {self.tail.shape[1] - 1}")
        mass = self.mass[:, : n_add + 1].copy()
        mass[:, n_add] = self.tail[:, n_add]
        pi = np.maximum(self.weights @ mass, 0.0)
        return UtilizationPmf(pi / np.add.reduce(pi))


def empirical_pmf(extra_rb_usage: Sequence[int] | UsageTable, n_add: int) -> UtilizationPmf:
    """Normalized histogram of observed extra-RB usage, clamped into [0, n_add].

    The usage must be whole and non-negative; 2.7, NaN or 1e30 is refused,
    never truncated.  It may also be given as its UsageTable, built for
    n_add or more, which is folded as it is.
    """
    table = extra_rb_usage if isinstance(extra_rb_usage, UsageTable) else UsageTable.of_usage(extra_rb_usage, n_add)
    return table.pmf(n_add)


def _kmeanspp_centers(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    centers = [x[rng.integers(len(x))]]
    for _ in range(1, c):
        d2 = np.min((x[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0.0:
            centers.append(x[rng.integers(len(x))])
        else:
            centers.append(x[rng.choice(len(x), p=d2 / total)])
    return np.asarray(centers, dtype=np.float64)


def fit_gmm_em(
    samples: Sequence[float],
    c: int,
    rng: Optional[np.random.Generator] = None,
) -> GmmMixture:
    """Fit a 1-d Gaussian mixture by EM with kmeans++-style seeding.

    Sigmas are floored at SIGMA_FLOOR RBs so degenerate clusters stay
    well-defined; the per-iteration log-likelihood trail is kept on the
    result for convergence checks.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-d sequence")
    if c < 1:
        raise ValueError("component count must be positive")
    if len(x) < c:
        raise ValueError(f"need at least {c} samples to fit {c} components")
    rng = rng if rng is not None else np.random.default_rng(0)

    mu = _kmeanspp_centers(x, c, rng)
    sigma = np.full(c, max(float(np.std(x)), SIGMA_FLOOR))
    w = np.full(c, 1.0 / c)

    v, k = unique_counts(x)
    log_norm = 0.5 * math.log(2 * math.pi)
    lls: list[float] = []
    prev_ll = -math.inf
    for _ in range(EM_ITERS):
        z = (v[:, None] - mu) / sigma
        logp = -0.5 * z * z + (np.log(w) - np.log(sigma) - log_norm)
        row_max = logp.max(axis=1)
        p = np.exp(logp - row_max[:, None])
        tot = p.sum(axis=1)
        ll = float(k @ (row_max + np.log(tot)))
        lls.append(ll)
        resp = p * (k / tot)[:, None]
        nk = np.maximum(resp.sum(axis=0), 1e-300)
        w = nk / len(x)
        mu = (v @ resp) / nk
        d = v[:, None] - mu
        var = (resp * d * d).sum(axis=0) / nk
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        if ll - prev_ll < EM_TOL and math.isfinite(prev_ll):
            break
        prev_ll = ll
    return GmmMixture(w / w.sum(), mu, sigma, log_likelihoods=tuple(lls))


def region_probabilities(gmm: GmmMixture | UsageTable, n_add: int) -> UtilizationPmf:
    """Integrate the mixture over unit regions around each n; tails absorbed.

    Region n covers (n - 0.5, n + 0.5); region 0 additionally takes all mass
    below and region n_add all mass above, then the vector is renormalized so
    it is exactly a PMF.  The mixture may also be given as its UsageTable,
    built for n_add or more, which is folded as it is.
    """
    table = gmm if isinstance(gmm, UsageTable) else UsageTable.of_gmm(gmm, n_add)
    return table.pmf(n_add)
