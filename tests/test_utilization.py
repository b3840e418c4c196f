import os
import subprocess
import sys

import numpy as np
import pytest

from rborch.utilization import (
    SIGMA_FLOOR,
    GmmMixture,
    UtilizationPmf,
    empirical_pmf,
    fit_gmm_em,
    region_probabilities,
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


def test_pmf_validation():
    with pytest.raises(ValueError):
        UtilizationPmf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        GmmMixture([0.5, 0.6], [0, 1], [1, 1])
    with pytest.raises(ValueError):
        GmmMixture([1.0], [0.0], [0.0])


def test_import_leaves_scipy_unloaded():
    # scipy.special is most of the import time; only region_probabilities needs it
    import rborch

    src = os.path.dirname(os.path.dirname(os.path.abspath(rborch.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rborch, rborch.cli; sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
