"""Estimate the PMF of additional-RB availability per service.

Two paths: a plain normalized histogram of observed extra-RB usage, and a
Gaussian mixture fitted by EM whose density is integrated over unit-wide
regions centred on each integer RB count (tails absorbed at both ends).

Usage windows hold few distinct values, so EM runs over those values
weighted by their counts (EM for grouped data): the same sums as over every
sample, one row per value.  The normal CDF is math.erfc, so no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SIGMA_FLOOR = 1e-3
EM_ITERS = 200  # EM stops after this many iterations,
EM_TOL = 1e-8  # or once an iteration gains less log-likelihood than this
_SQRT2 = math.sqrt(2.0)


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


def check_pmf(pi) -> np.ndarray:
    """pi as a non-empty float64 vector of non-negative entries that sum to 1
    within 1e-9; a NaN or an infinity fails."""
    arr = np.asarray(pi, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError(f"pi must be a non-empty vector, got shape {arr.shape}")
    if np.any(arr < 0):
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


def empirical_pmf(extra_rb_usage: Sequence[int], n_add: int) -> UtilizationPmf:
    """Normalized histogram of observed extra-RB usage, clamped into [0, n_add]."""
    usage = np.asarray(extra_rb_usage, dtype=np.int64)
    if usage.size == 0:
        raise ValueError("empirical PMF needs at least one observation")
    if np.any(usage < 0):
        raise ValueError("extra-RB usage cannot be negative")
    if n_add < 0:
        raise ValueError("n_add must be non-negative")
    clamped = np.minimum(usage, n_add)
    counts = np.bincount(clamped, minlength=n_add + 1).astype(np.float64)
    return UtilizationPmf(counts / counts.sum())


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

    v, k = np.unique(x, return_counts=True)
    k = k.astype(np.float64)
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


def region_probabilities(gmm: GmmMixture, n_add: int) -> UtilizationPmf:
    """Integrate the mixture over unit regions around each n; tails absorbed.

    Region n covers (n - 0.5, n + 0.5); region 0 additionally takes all mass
    below and region n_add all mass above, then the vector is renormalized so
    it is exactly a PMF.
    """
    if n_add < 0:
        raise ValueError("n_add must be non-negative")
    # Phi at the inner edges 0.5 .. n_add - 0.5; the outer edges are -inf and +inf
    edges = np.arange(n_add, dtype=np.float64) + 0.5
    z = (edges[None, :] - gmm.means[:, None]) / gmm.sigmas[:, None]
    cdf = np.empty((len(gmm.means), n_add + 2))
    cdf[:, 0] = 0.0
    cdf[:, 1:-1] = [[0.5 * math.erfc(-t / _SQRT2) for t in row] for row in z.tolist()]
    cdf[:, -1] = 1.0
    pi = gmm.weights @ np.diff(cdf, axis=1)
    pi = np.maximum(pi, 0.0)
    return UtilizationPmf(pi / pi.sum())
