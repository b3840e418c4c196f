import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rborch.utilization import (
    _COUNT_SPAN,
    SIGMA_FLOOR,
    GmmMixture,
    UsageTable,
    UtilizationPmf,
    empirical_pmf,
    fit_gmm_em,
    region_probabilities,
    unique_counts,
)

# standard-normal CDF values from mpmath.ncdf at 50 digits
PHI_05 = 0.6914624612740131
PHI_15 = 0.9331927987311419
PHI_25 = 0.9937903346742238


class TestEmpiricalPmf:
    def test_uniform_usage(self):
        pmf = empirical_pmf([0, 1, 2, 3], 3)
        assert pmf.pi.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_all_zero(self):
        pmf = empirical_pmf([0, 0, 0, 0], 2)
        assert pmf.pi.tolist() == [1.0, 0.0, 0.0]

    def test_clamp_into_last_bin(self):
        pmf = empirical_pmf([5, 5], 3)
        assert pmf.pi.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_pmf([], 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            empirical_pmf([-1, 2], 3)


class TestRegionProbabilities:
    def test_tight_component_contained(self):
        gmm = GmmMixture([1.0], [3.0], [0.1])
        pmf = region_probabilities(gmm, 5)
        assert pmf.pi[3] >= 1 - 1e-6
        assert all(p <= 1e-6 for i, p in enumerate(pmf.pi) if i != 3)

    def test_standard_normal_split(self):
        gmm = GmmMixture([1.0], [0.0], [1.0])
        pmf = region_probabilities(gmm, 3)
        assert pmf.pi[0] == pytest.approx(PHI_05, abs=1e-12)
        assert pmf.pi[1] == pytest.approx(PHI_15 - PHI_05, abs=1e-12)
        assert pmf.pi[2] == pytest.approx(PHI_25 - PHI_15, abs=1e-12)
        assert pmf.pi[3] == pytest.approx(1 - PHI_25, abs=1e-12)

    def test_sums_to_one_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(c))
            gmm = GmmMixture(w, rng.uniform(-5, 25, c), rng.uniform(0.01, 8, c))
            pmf = region_probabilities(gmm, int(rng.integers(0, 20)))
            assert pmf.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(pmf.pi >= 0)

    def test_single_region(self):
        gmm = GmmMixture([1.0], [10.0], [2.0])
        pmf = region_probabilities(gmm, 0)
        assert pmf.pi.tolist() == [1.0]


class TestFitGmmEm:
    def test_constant_samples_single_component(self):
        gmm = fit_gmm_em([3.0] * 40, 1, rng=np.random.default_rng(0))
        assert gmm.means[0] == pytest.approx(3.0, abs=1e-9)
        assert gmm.sigmas[0] == SIGMA_FLOOR

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(42)
        data = np.concatenate([rng.normal(2, 0.1, 500), rng.normal(10, 0.1, 500)])
        gmm = fit_gmm_em(data, 2, rng=np.random.default_rng(1))
        means = sorted(gmm.means)
        assert means[0] == pytest.approx(2.0, abs=0.1)
        assert means[1] == pytest.approx(10.0, abs=0.1)
        assert all(abs(w - 0.5) <= 0.05 for w in gmm.weights)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_gmm_em([1.0, 2.0], 3)

    def test_degenerate_collapse_not_an_error(self):
        gmm = fit_gmm_em([5.0] * 30, 3, rng=np.random.default_rng(2))
        assert np.allclose(gmm.means, 5.0)
        assert gmm.weights.sum() == pytest.approx(1.0)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            data = np.concatenate(
                [
                    rng.normal(rng.uniform(0, 10), rng.uniform(0.2, 2), 80),
                    rng.normal(rng.uniform(0, 10), rng.uniform(0.2, 2), 80),
                ]
            )
            gmm = fit_gmm_em(data, int(rng.integers(1, 4)), rng=np.random.default_rng(trial))
            lls = gmm.log_likelihoods
            assert len(lls) >= 1
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-7 * max(1.0, abs(a))

    def test_deterministic_given_rng(self):
        data = np.random.default_rng(3).normal(4, 1, 200)
        a = fit_gmm_em(data, 3, rng=np.random.default_rng(7))
        b = fit_gmm_em(data, 3, rng=np.random.default_rng(7))
        assert np.array_equal(a.means, b.means) and np.array_equal(a.weights, b.weights)


class TestAgreementLimit:
    def test_empirical_matches_tight_gmm(self):
        k = 4
        pmf_emp = empirical_pmf([k] * 100, 7)
        gmm = fit_gmm_em([float(k)] * 100, 1, rng=np.random.default_rng(0))
        pmf_gmm = region_probabilities(gmm, 7)
        assert pmf_emp.pi[k] >= 1 - 1e-6
        assert pmf_gmm.pi[k] >= 1 - 1e-6


def _kernel_cases():
    """(id, values, whether an int64 window's span is within the counted bound): int64
    windows on both sides of the bound, negatives included, float64 windows with
    repeats, single values and all-equal vectors."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (2, 7, 50, 1000):
        for span in (_COUNT_SPAN * n - 1, _COUNT_SPAN * n):
            # the least and largest values pin the span; the others repeat between them
            lo = int(rng.integers(-3 * span, 5))
            values = np.concatenate(([lo, lo + span], rng.integers(lo, lo + span + 1, n - 2)))
            cases.append((f"int64-span{span}-n{n}", values.astype(np.int64), span < _COUNT_SPAN * n))
    cases += [
        ("float64-repeats", rng.integers(-40, 40, 500) * 0.25, None),
        ("float64-wide", rng.choice(rng.normal(0.0, 1e6, 30), 300), None),
        ("int64-single", np.array([-7], dtype=np.int64), True),
        ("float64-single", np.array([3.5]), None),
        ("int64-all-equal", np.full(40, 1 << 40, dtype=np.int64), True),
        ("float64-all-equal", np.full(40, -2.5), None),
    ]
    return cases


@pytest.mark.parametrize("values, counted", [c[1:] for c in _kernel_cases()], ids=[c[0] for c in _kernel_cases()])
def test_unique_counts_matches_np_unique_bit_for_bit(values, counted):
    if counted is not None:
        assert (values.max() - values.min() < _COUNT_SPAN * len(values)) == counted
    vals, counts = unique_counts(values)
    want_vals, want_counts = np.unique(values, return_counts=True)
    assert vals.dtype == values.dtype and vals.tobytes() == want_vals.tobytes()
    assert counts.dtype == np.float64 and counts.tobytes() == want_counts.astype(np.float64).tobytes()


def test_pmf_validation():
    with pytest.raises(ValueError):
        UtilizationPmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        GmmMixture([0.5, 0.6], [0, 1], [1, 1])
    with pytest.raises(ValueError):
        GmmMixture([1.0], [0.0], [0.0])


def test_region_probabilities_match_mpmath_oracle():
    # pi_n from the 50-digit normal CDF of each component, tails absorbed, over the exact weight sum
    rng = np.random.default_rng(5)
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(200):
            c = int(rng.integers(1, 5))
            gmm = GmmMixture(rng.dirichlet(np.ones(c)), rng.uniform(-5, 25, c), rng.uniform(0.01, 8, c))
            n_add = int(rng.integers(0, 30))
            got = region_probabilities(gmm, n_add).pi
            cdf = [
                [mpmath.mpf(0)]
                + [mpmath.ncdf(n + mpmath.mpf(0.5), mu=float(mu), sigma=float(sg)) for n in range(n_add)]
                + [mpmath.mpf(1)]
                for mu, sg in zip(gmm.means, gmm.sigmas)
            ]
            total = mpmath.fsum(mpmath.mpf(float(w)) for w in gmm.weights)
            for n in range(n_add + 1):
                exact = mpmath.fsum(mpmath.mpf(float(w)) * (row[n + 1] - row[n]) for w, row in zip(gmm.weights, cdf))
                worst = max(worst, abs(float(got[n]) - float(exact / total)))
    assert worst <= 1e-14


@pytest.mark.parametrize("usage", [[2.7, 0.5, 1.9], [1.0, math.nan], [1e30, 2.0], [3, math.inf]])
def test_empirical_pmf_refuses_non_whole_usage(usage):
    # at the parent 2.7 read as 2, NaN failed in numpy's cast and 1e30 overflowed
    with pytest.raises(ValueError, match="extra-RB usage must be finite whole numbers"):
        empirical_pmf(usage, 3)


def direct_histogram(usage, n_add):
    """The clamped histogram over its sum, as one formula."""
    counts = np.bincount(np.minimum(np.asarray(usage, dtype=np.int64), n_add), minlength=n_add + 1)
    counts = counts.astype(np.float64)
    return counts / counts.sum()


def direct_regions(gmm, n_add):
    """The mixture's mass per unit region, tails absorbed, as one formula."""
    z = (np.arange(n_add, dtype=np.float64)[None, :] + 0.5 - gmm.means[:, None]) / gmm.sigmas[:, None]
    cdf = np.empty((len(gmm.means), n_add + 2))
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    cdf[:, 1:-1] = [[0.5 * math.erfc(-t / math.sqrt(2.0)) for t in row] for row in z.tolist()]
    pi = np.maximum(gmm.weights @ np.diff(cdf, axis=1), 0.0)
    return pi / pi.sum()


def test_table_folds_match_direct_formulas_bit_for_bit():
    # one table per window, folded for every n_add, gives the PMF each formula gives for that n_add alone
    rng = np.random.default_rng(11)
    for _ in range(40):
        n_top = int(rng.integers(0, 60))
        usage = np.where(rng.random(300) < 0.3, rng.integers(0, 80, 300), rng.integers(0, 3, 300))
        c = int(rng.integers(1, 5))
        gmm = GmmMixture(rng.dirichlet(np.ones(c)), rng.uniform(-5, 70, c), rng.uniform(0.01, 20, c))
        hist, mix = UsageTable.of_usage(usage, n_top), UsageTable.of_gmm(gmm, n_top)
        for n_add in range(n_top + 1):
            want = direct_histogram(usage, n_add).tobytes()
            assert empirical_pmf(hist, n_add).pi.tobytes() == empirical_pmf(usage, n_add).pi.tobytes() == want
            want = direct_regions(gmm, n_add).tobytes()
            assert region_probabilities(mix, n_add).pi.tobytes() == region_probabilities(gmm, n_add).pi.tobytes() == want
        with pytest.raises(ValueError, match="exceeds"):
            hist.pmf(n_top + 1)


def _ref_log_pdf_matrix(x, mix_w, mu, sigma):
    z = (x[:, None] - mu[None, :]) / sigma[None, :]
    return -0.5 * z * z - np.log(sigma)[None, :] - 0.5 * math.log(2 * math.pi) + np.log(mix_w)[None, :]


def _ref_kmeanspp_centers(x, c, rng):
    centers = [x[rng.integers(len(x))]]
    for _ in range(1, c):
        d2 = np.min((x[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0.0:
            centers.append(x[rng.integers(len(x))])
        else:
            centers.append(x[rng.choice(len(x), p=d2 / total)])
    return np.asarray(centers, dtype=np.float64)


def ref_fit_gmm_em(samples, c, iters=200, tol=1e-8, rng=None):
    """EM with one row per sample: fit_gmm_em as it was before it grouped equal values."""
    x = np.asarray(samples, dtype=np.float64)
    rng = rng if rng is not None else np.random.default_rng(0)
    mu = _ref_kmeanspp_centers(x, c, rng)
    sigma = np.full(c, max(float(np.std(x)), SIGMA_FLOOR))
    w = np.full(c, 1.0 / c)
    lls = []
    prev_ll = -math.inf
    for _ in range(iters):
        logp = _ref_log_pdf_matrix(x, w, mu, sigma)
        row_max = logp.max(axis=1, keepdims=True)
        lse = row_max[:, 0] + np.log(np.exp(logp - row_max).sum(axis=1))
        ll = float(lse.sum())
        lls.append(ll)
        resp = np.exp(logp - lse[:, None])
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        w = nk / len(x)
        mu = (resp * x[:, None]).sum(axis=0) / nk
        var = (resp * (x[:, None] - mu[None, :]) ** 2).sum(axis=0) / nk
        sigma = np.maximum(np.sqrt(var), SIGMA_FLOOR)
        if ll - prev_ll < tol and math.isfinite(prev_ll):
            break
        prev_ll = ll
    return GmmMixture(w / w.sum(), mu, sigma, log_likelihoods=tuple(lls))


def assert_fit_matches_reference(usage, c, seed):
    """Same rng stream, the same log-likelihood trail, and the same parameters
    when both fits stopped after the same number of iterations."""
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = ref_fit_gmm_em(usage, c, rng=rng_ref)
    got = fit_gmm_em(usage, c, rng=rng_new)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    for a, b in zip(got.log_likelihoods, ref.log_likelihoods):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    if len(got.log_likelihoods) == len(ref.log_likelihoods):
        for mine, theirs in ((got.weights, ref.weights), (got.means, ref.means), (got.sigmas, ref.sigmas)):
            np.testing.assert_allclose(mine, theirs, rtol=1e-9, atol=1e-9)
    return got, ref


@st.composite
def usage_windows(draw):
    """Integer windows of 3-2000 values in 0..60: drawn value by value, or as
    draws from a few distinct values with drawn shares, as live usage looks."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 60), min_size=3, max_size=2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.integers(0, 61, draw(st.integers(1, 15)))
    return rng.choice(support, draw(st.integers(3, 2000)), p=rng.dirichlet(np.ones(len(support)))).tolist()


@settings(max_examples=150)
@given(usage=usage_windows(), c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_per_sample_reference(usage, c, seed):
    assume(len(usage) >= c)
    assert_fit_matches_reference(np.asarray(usage, dtype=np.float64), c, seed)


def test_fit_matches_reference_on_model_check_windows():
    # the extra-RB usage windows of perfbench model-check's GMM decisions at seed 61:
    # 8 rounds x 3 decisions, each fitting its 3 services from one shared rng
    seed, n_cell, length = 61, 40, 500
    for r in range(8):
        for i in (6, 7, 8):
            em_seed = np.random.SeedSequence([seed, 4, r, i])
            rng_ref, rng_new = np.random.default_rng(em_seed), np.random.default_rng(em_seed)
            for m in range(3):
                r_u = np.random.default_rng(np.random.SeedSequence([seed, 3, r, i, m]).spawn(3)[2])
                busy = r_u.random(length) < 0.3
                usage = np.where(busy, r_u.integers(5, n_cell // 3, length), r_u.integers(0, 3, length))
                x = usage.astype(np.float64)
                ref = ref_fit_gmm_em(x, 3, rng=rng_ref)
                got = fit_gmm_em(x, 3, rng=rng_new)
                assert len(got.log_likelihoods) == len(ref.log_likelihoods), (r, i, m)
                np.testing.assert_allclose(got.log_likelihoods, ref.log_likelihoods, rtol=1e-9)
                for mine, theirs in ((got.weights, ref.weights), (got.means, ref.means), (got.sigmas, ref.sigmas)):
                    np.testing.assert_allclose(mine, theirs, rtol=1e-9, atol=1e-9)
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_import_leaves_scipy_unloaded():
    # nothing in rborch needs scipy: importing it and taking a GMM decision loads none of it
    import rborch

    src = os.path.dirname(os.path.dirname(os.path.abspath(rborch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys
import numpy as np
import rborch, rborch.cli
from rborch.capacity import ConcatPerRbVector
from rborch.martingale import ArrivalSampleSet
from rborch.near_rt import AllocatorConfig, ServiceSpec, ServiceWindow, allocate
win = ServiceWindow(ArrivalSampleSet(np.tile([0, 200], 500)),
                    ConcatPerRbVector(np.full(2000, 25), np.ones(2000, np.int64)), np.arange(300) % 7)
alloc = allocate([ServiceSpec(0, 10.0, 1e-3)] * 2, [win, win], 10, AllocatorConfig(estimator="gmm"))
assert alloc.n_min == (5, 5), alloc
sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)
"""
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
