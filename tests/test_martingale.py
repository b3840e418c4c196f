import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rborch.martingale import (
    ArrivalSampleSet,
    CapacitySampleSet,
    DelayBoundResult,
    ThetaSearchParams,
    arrival_log_mgf,
    delay_bound,
    find_theta_star,
    service_log_neg_mgf,
    violation_bound,
)

# real root of u^3 = u^2 + u + 1, from mpmath.polyroots at 50 digits
U_ROOT = 1.8392867552141612
# log((1 + exp(200*0.0121876)) / 2) at 50 digits
KA_AT_0121876 = 1.8281414498184283
# -log(0.5*exp(-1) + 0.5*exp(-2)) at 50 digits
KS_TWO_REGION = 1.3798854930417225


def bernoulli_inputs():
    x_a = ArrivalSampleSet([0, 200])
    x_s = CapacitySampleSet([np.array([150])], n_min=6, n_add=0)
    return x_a, x_s


def theta_star_oracle() -> float:
    roots = np.roots([1.0, -1.0, -1.0, -1.0])
    u = float(roots[np.isreal(roots)].real.max())
    return math.log(u) / 50.0


class TestArrivalLogMgf:
    def test_constant_arrivals(self):
        x = ArrivalSampleSet([100] * 50)
        assert arrival_log_mgf(x, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_zero_arrivals(self):
        x = ArrivalSampleSet([0] * 10)
        assert arrival_log_mgf(x, 3.7) == pytest.approx(0.0, abs=1e-15)

    def test_two_point_frozen_value(self):
        x = ArrivalSampleSet([0, 200])
        assert arrival_log_mgf(x, 0.0121876) == pytest.approx(KA_AT_0121876, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            samples = rng.integers(0, 500, size=rng.integers(1, 40))
            x = ArrivalSampleSet(samples)
            theta = float(rng.uniform(1e-4, 1e-2))
            direct = math.log(np.exp(theta * samples.astype(float)).mean())
            assert arrival_log_mgf(x, theta) == pytest.approx(direct, rel=1e-10)

    def test_overflow_safe(self):
        x = ArrivalSampleSet([100_000, 200_000])
        val = arrival_log_mgf(x, 1.0)  # exp(2e5) would overflow directly
        assert math.isfinite(val) and val == pytest.approx(200_000 - math.log(2), rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ArrivalSampleSet([])
        with pytest.raises(ValueError):
            ArrivalSampleSet([-1])
        with pytest.raises(ValueError):
            arrival_log_mgf(ArrivalSampleSet([1]), 0.0)


class TestServiceLogNegMgf:
    def test_constant_service(self):
        x = CapacitySampleSet([np.full(20, 150)], 5, 0)
        assert service_log_neg_mgf(x, [1.0], 0.01) == pytest.approx(1.5, abs=1e-12)

    def test_all_zero_samples(self):
        x = CapacitySampleSet([np.zeros(4)], 5, 0)
        assert service_log_neg_mgf(x, [1.0], 0.3) == pytest.approx(0.0, abs=1e-15)

    def test_two_region_frozen_value(self):
        x = CapacitySampleSet([np.full(3, 100), np.full(7, 200)], 4, 1)
        assert service_log_neg_mgf(x, [0.5, 0.5], 0.01) == pytest.approx(KS_TWO_REGION, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n_add = int(rng.integers(0, 4))
            vecs = [rng.integers(1, 400, size=rng.integers(1, 30)) for _ in range(n_add + 1)]
            pi = rng.dirichlet(np.ones(n_add + 1))
            x = CapacitySampleSet(vecs, 3, n_add)
            theta = float(rng.uniform(1e-4, 5e-2))
            direct = -math.log(
                sum(p * np.exp(-theta * v.astype(float)).mean() for p, v in zip(pi, vecs))
            )
            assert service_log_neg_mgf(x, pi, theta) == pytest.approx(direct, rel=1e-10)

    def test_pi_length_mismatch(self):
        x = CapacitySampleSet([np.array([10])], 2, 0)
        with pytest.raises(ValueError):
            service_log_neg_mgf(x, [0.5, 0.5], 0.1)


class TestFindThetaStar:
    def test_bernoulli_closed_form(self):
        x_a, x_s = bernoulli_inputs()
        theta = find_theta_star(x_a, x_s, [1.0])
        assert theta == pytest.approx(theta_star_oracle(), abs=1e-6)
        assert theta == pytest.approx(0.0121876, abs=1e-6)

    def test_under_provisioned_absent(self):
        x_a = ArrivalSampleSet([200] * 8)
        x_s = CapacitySampleSet([np.full(8, 150)], 6, 0)
        assert find_theta_star(x_a, x_s, [1.0]) is None

    def test_over_provisioned_hits_cap(self):
        x_a = ArrivalSampleSet([50] * 8)
        x_s = CapacitySampleSet([np.full(8, 150)], 6, 0)
        assert find_theta_star(x_a, x_s, [1.0]) == 64.0

    def test_bracketed_root_tightness(self):
        x_a, x_s = bernoulli_inputs()
        theta = find_theta_star(x_a, x_s, [1.0])
        ka = arrival_log_mgf(x_a, theta)
        ks = service_log_neg_mgf(x_s, [1.0], theta)
        assert abs(ks - ka) <= 1e-6 * max(1.0, ka)

    def test_custom_params_validation(self):
        with pytest.raises(ValueError):
            ThetaSearchParams(shrink=1.5)
        with pytest.raises(ValueError):
            ThetaSearchParams(floor=2.0)


class TestDelayBound:
    def test_bernoulli_w(self):
        x_a, x_s = bernoulli_inputs()
        res = delay_bound(x_a, x_s, [1.0], 1e-3, 1.0)
        w_ref = -math.log(1e-3) / (150.0 * theta_star_oracle())
        assert res.w_ms == pytest.approx(w_ref, abs=1e-3)
        assert res.w_ms == pytest.approx(3.7786, abs=1e-3)
        assert res.k_prime_s_at_star >= res.k_prime_a_at_star - 1e-9

    def test_infeasible_is_infinite(self):
        x_a = ArrivalSampleSet([200] * 4)
        x_s = CapacitySampleSet([np.full(4, 150)], 6, 0)
        res = delay_bound(x_a, x_s, [1.0], 1e-3)
        assert res.theta_star is None and math.isinf(res.w_ms)

    def test_epsilon_boundaries_rejected(self):
        x_a, x_s = bernoulli_inputs()
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                delay_bound(x_a, x_s, [1.0], eps)

    def test_t_slot_scaling(self):
        x_a, x_s = bernoulli_inputs()
        w1 = delay_bound(x_a, x_s, [1.0], 1e-3, 1.0).w_ms
        w2 = delay_bound(x_a, x_s, [1.0], 1e-3, 0.5).w_ms
        assert w2 == pytest.approx(0.5 * w1, rel=1e-12)


class TestViolationBound:
    def test_zero_query_caps_at_one(self):
        x_a, x_s = bernoulli_inputs()
        res = delay_bound(x_a, x_s, [1.0], 1e-3)
        assert violation_bound(res, 0.0) == 1.0

    def test_inverse_of_delay_bound(self):
        x_a, x_s = bernoulli_inputs()
        res = delay_bound(x_a, x_s, [1.0], 1e-3)
        assert violation_bound(res, res.w_ms) == pytest.approx(1e-3, rel=1e-9)

    def test_exponential_halving(self):
        x_a, x_s = bernoulli_inputs()
        res = delay_bound(x_a, x_s, [1.0], 1e-3)
        assert violation_bound(res, 2 * res.w_ms) == pytest.approx(1e-6, rel=1e-9)

    def test_absent_theta_raises(self):
        res = DelayBoundResult(None, math.inf, math.nan, math.nan)
        with pytest.raises(ValueError):
            violation_bound(res, 1.0)


class TestStructuralProperties:
    def test_convexity_and_jensen_small(self):
        rng = np.random.default_rng(11)
        thetas = np.geomspace(1e-4, 0.5, 12)
        for _ in range(20):
            samples = rng.integers(0, 300, size=int(rng.integers(2, 30)))
            x = ArrivalSampleSet(samples)
            vals = [arrival_log_mgf(x, t) for t in thetas]
            for i in range(len(thetas) - 2):
                mid = arrival_log_mgf(x, 0.5 * (thetas[i] + thetas[i + 2]))
                assert mid <= 0.5 * (vals[i] + vals[i + 2]) + 1e-9
            for t, v in zip(thetas, vals):
                assert v >= t * samples.mean() - 1e-9

    def test_service_jensen_upper(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n_add = int(rng.integers(0, 3))
            vecs = [rng.integers(1, 200, size=int(rng.integers(1, 20))) for _ in range(n_add + 1)]
            pi = rng.dirichlet(np.ones(n_add + 1))
            x = CapacitySampleSet(vecs, 2, n_add)
            weighted_mean = sum(p * v.mean() for p, v in zip(pi, vecs))
            for t in (1e-3, 1e-2, 0.1):
                assert service_log_neg_mgf(x, pi, t) <= t * weighted_mean + 1e-9

    def test_w_non_increasing_in_n_min_constant_channel(self):
        x_a = ArrivalSampleSet(np.random.default_rng(3).integers(0, 200, 500))
        prev = math.inf
        for n_min in range(5, 12):
            x_s = CapacitySampleSet([np.full(100, 25 * n_min)], n_min, 0)
            res = delay_bound(x_a, x_s, [1.0], 1e-3)
            assert res.w_ms <= prev + 1e-9
            prev = res.w_ms

    def test_scaling_invariance_single(self):
        x_a = ArrivalSampleSet([0, 120, 260, 40])
        x_s = CapacitySampleSet([np.array([150, 140, 170])], 6, 0)
        base = delay_bound(x_a, x_s, [1.0], 1e-3)
        for c in (3.0, 0.5, 17.0):
            xa2 = ArrivalSampleSet(np.asarray([0, 120, 260, 40]) * c)
            xs2 = CapacitySampleSet([np.array([150, 140, 170]) * c], 6, 0)
            scaled = delay_bound(xa2, xs2, [1.0], 1e-3)
            assert scaled.theta_star == pytest.approx(base.theta_star / c, rel=1e-6)
            assert scaled.w_ms == pytest.approx(base.w_ms, rel=1e-6)


# ------------------------------------------------ pre-shift reference search


def _lse_max_shift(x, w):
    m = float(np.max(x))
    return m + math.log(float(np.dot(w, np.exp(x - m))))


def reference_delay_bound(x_a, x_s, pi, epsilon, params=ThetaSearchParams()):
    """The search with the shift taken by np.max on every evaluation, and the
    rate functions at theta* computed from fresh flattenings."""
    pi = np.asarray(pi, dtype=np.float64)
    a_vals, a_cnt = np.unique(x_a.samples, return_counts=True)
    a_cnt = a_cnt.astype(np.float64)
    log_t_obs = math.log(len(x_a))
    chunks_v, chunks_w = [], []
    for n, v in enumerate(x_s.per_n_samples):
        if pi[n] == 0.0:
            continue
        vals, cnt = np.unique(v, return_counts=True)
        chunks_v.append(vals)
        chunks_w.append(cnt.astype(np.float64) * (pi[n] / len(v)))
    s_vals, s_wts = np.concatenate(chunks_v), np.concatenate(chunks_w)

    def ks(theta):
        return -_lse_max_shift(-theta * s_vals, s_wts)

    def ka(theta):
        return _lse_max_shift(theta * a_vals, a_cnt) - log_t_obs

    def f(theta):
        return ks(theta) - ka(theta)

    def bisect(lo, hi):
        for _ in range(params.bisection_iters):
            if hi - lo <= 1e-9 * hi:
                break
            mid = 0.5 * (lo + hi)
            if f(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return lo

    def search():
        if f(params.theta_init) >= 0.0:
            lo = params.theta_init
            while lo < params.theta_cap:
                hi = min(2.0 * lo, params.theta_cap)
                if f(hi) >= 0.0:
                    lo = hi
                else:
                    return bisect(lo, hi)
            return params.theta_cap
        theta_old = params.theta_init
        while True:
            theta_new = theta_old * params.shrink
            if f(theta_new) >= 0.0:
                return bisect(theta_new, theta_old)
            theta_old = theta_new
            if theta_new < params.floor:
                return None

    theta = search()
    if theta is None or ks(theta) <= 0.0:
        return None, math.inf, math.nan, math.nan
    return theta, -math.log(epsilon) / ks(theta), ks(theta), ka(theta)


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@st.composite
def bound_inputs(draw):
    arrivals = draw(st.lists(st.integers(0, 3000), min_size=1, max_size=40))
    n_add = draw(st.integers(0, 4))
    vecs = [draw(st.lists(st.integers(0, 2000), min_size=1, max_size=25)) for _ in range(n_add + 1)]
    weights = draw(st.lists(st.integers(0, 9), min_size=n_add + 1, max_size=n_add + 1).filter(any))
    pi = np.asarray(weights, dtype=np.float64) / sum(weights)
    pi[-1] = 1.0 - pi[:-1].sum()  # sums to 1 within one rounding
    pi = np.clip(pi, 0.0, None)
    epsilon = draw(st.sampled_from([1e-1, 1e-3, 1e-5]))
    return ArrivalSampleSet(arrivals), CapacitySampleSet(vecs, 1, n_add), pi, epsilon


@settings(max_examples=200, deadline=None)
@given(bound_inputs())
def test_theta_star_bit_exact_against_max_shift(inputs):
    x_a, x_s, pi, epsilon = inputs
    theta, w_ms, ks, ka = reference_delay_bound(x_a, x_s, pi, epsilon)
    assert same_bits(find_theta_star(x_a, x_s, pi), theta)
    res = delay_bound(x_a, x_s, pi, epsilon)
    assert same_bits(res.theta_star, theta)
    assert same_bits(res.w_ms, w_ms)
    assert same_bits(res.k_prime_s_at_star, ks)
    assert same_bits(res.k_prime_a_at_star, ka)
