import math

import numpy as np
import pytest
import mpmath as mp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import table_specs, table_windows
from test_capacity import oracle_samples
from test_near_rt import PACKET_SPECS, packet_windows

from rborch import martingale, near_rt
from rborch.capacity import ConcatPerRbVector, build_capacity_samples
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
from rborch.near_rt import AllocatorConfig, brute_force_allocate
from rborch.utilization import GmmMixture, UtilizationPmf, empirical_pmf

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

    def test_hole_read_only_when_weighted(self):
        # regions 1 and 3 are holes: no values, no samples
        t_n = np.array([3, 0, 7, 0])
        vals, counts = np.array([100.0, 200.0]), np.array([3.0, 7.0])
        x = CapacitySampleSet._of_table(4, t_n, vals, counts, np.array([0, 1, 1, 2, 2]))
        pi = [0.5, 0.0, 0.5, 0.0]
        assert service_log_neg_mgf(x, pi, 0.01) == pytest.approx(KS_TWO_REGION, abs=1e-12)
        for pi, n in (([0.5, 0.5, 0.0, 0.0], 1), ([0.5, 0.0, 0.25, 0.25], 3), ([0.0, 0.0, 0.0, 1.0], 3)):
            with pytest.raises(ValueError, match=f"capacity region {n} has pi_n = {pi[n]} but no samples"):
                service_log_neg_mgf(x, pi, 0.01)
            with pytest.raises(ValueError, match=f"region {n}"):
                delay_bound(ArrivalSampleSet([50]), x, pi, 1e-3)


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
        # the constants, read as the benchmark's tracer reads them
        assert ThetaSearchParams().theta_cap == 64.0 and ThetaSearchParams.floor == 1e-9

    def test_balanced_means_infeasible(self):
        # E_pi[s] == mean(a) exactly: f'(0) = 0, so no positive root, even with weights 1/7
        cases = [
            ([1], [[0, 2]], [1.0]),
            ([2, 4, 1, 0, 1, 3, 1, 4, 1, 0, 0, 0, 0, 0, 4, 4, 2, 1, 4, 4, 4, 3, 3, 3, 0, 3, 3, 1],
             [[0, 0, 3, 0, 4, 4, 3]], [1.0]),
            ([1, 1, 4], [[0, 4], [2]], [0.5, 0.5]),
        ]
        for arrivals, vecs, pi in cases:
            x_s = CapacitySampleSet([np.array(v) for v in vecs], 1, len(vecs) - 1)
            assert find_theta_star(ArrivalSampleSet(arrivals), x_s, pi) is None

    def test_root_at_asymptote_bound(self):
        # at theta* every term but max(a) and min(s) underflows, so f equals the
        # difference of its asymptotes there: the root is log(40 * 25), not the cap
        x_a = ArrivalSampleSet([0] * 39 + [1001])
        x_s = CapacitySampleSet([np.array([1000] + [2000] * 24)], 1, 0)
        assert find_theta_star(x_a, x_s, [1.0]) == pytest.approx(math.log(1000.0), rel=1e-9)

    def test_bracketed_root_tightness(self):
        x_a, x_s = bernoulli_inputs()
        theta = find_theta_star(x_a, x_s, [1.0])
        ka = arrival_log_mgf(x_a, theta)
        ks = service_log_neg_mgf(x_s, [1.0], theta)
        assert abs(ks - ka) <= 1e-6 * max(1.0, ka)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: delay_bound(
            ArrivalSampleSet([100, 0, 50]), CapacitySampleSet([[150, 140], [300]], 1, 1), [math.nan, 1.0], 1e-3
        ),
        lambda: ArrivalSampleSet([math.nan, 1.0]),
        lambda: CapacitySampleSet([[math.nan, 2.0]], 1, 0),
        lambda: UtilizationPmf([math.nan, 1.0]),
        lambda: GmmMixture(np.array([math.nan, 1.0]), np.array([1.0, 2.0]), np.array([1.0, 1.0])),
        lambda: GmmMixture(np.array([0.5, 0.5]), np.array([math.nan, 2.0]), np.array([1.0, 1.0])),
    ],
    ids=["delay-bound-pi", "arrivals", "capacity", "utilization-pmf", "gmm-weight", "gmm-mean"],
)
def test_non_finite_inputs_rejected(make):
    with pytest.raises(ValueError):
        make()


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


# ------------------------------------------------ 50-digit oracle for theta*

mp.mp.dps = 50


def mp_gap(arrivals, vecs, pi):
    """f = K'_s - K'_a and f' in 50-digit arithmetic, the sign of f'(0), and
    whether max(a) <= min(s) over the regions with pi_n > 0, from the raw
    arrival samples and per-region service samples."""
    a = [mp.mpf(float(v)) for v in arrivals]
    atoms = [
        (mp.mpf(float(p)) / len(v), mp.mpf(float(s)))
        for p, v in zip(pi, vecs) if p > 0
        for s in v
    ]

    def rates(theta):
        ea = [mp.exp(theta * v) for v in a]
        es = [w * mp.exp(-theta * s) for w, s in atoms]
        za, zs = mp.fsum(ea), mp.fsum(es)
        ka = mp.log(za / len(a))
        f = -mp.log(zs) - ka
        df = mp.fsum(s * e for (_, s), e in zip(atoms, es)) / zs - mp.fsum(v * e for v, e in zip(a, ea)) / za
        return f, df, ka

    slope0 = mp.fsum(w * s for w, s in atoms) / mp.fsum(w for w, _ in atoms) - mp.fsum(a) / len(a)
    dominated = max(a) <= min(s for _, s in atoms)
    return rates, slope0, dominated


def mp_root(rates, cap):
    """The positive root of a concave f with f(0) = 0 < f'(0) and f(cap) < 0."""
    lo = mp.mpf(cap)
    while rates(lo)[0] < 0:
        lo /= 2
    hi = min(2 * lo, mp.mpf(cap))
    return mp.findroot(lambda t: rates(t)[0], (lo, hi), solver="anderson")


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
    return arrivals, vecs, pi, epsilon


@settings(max_examples=200, deadline=None)
@given(bound_inputs())
def test_theta_star_against_mpmath_root(inputs):
    arrivals, vecs, pi, epsilon = inputs
    x_a, x_s = ArrivalSampleSet(arrivals), CapacitySampleSet(vecs, 1, len(vecs) - 1)
    p = ThetaSearchParams()
    rates, slope0, dominated = mp_gap(arrivals, vecs, pi)
    theta = find_theta_star(x_a, x_s, pi)
    res = delay_bound(x_a, x_s, pi, epsilon)
    if dominated or (slope0 > 0 and rates(mp.mpf(p.theta_cap))[0] >= 0):
        assert theta == p.theta_cap
    elif slope0 <= 0:
        assert theta is None and res.theta_star is None
    else:
        root = mp_root(rates, p.theta_cap)
        if root < p.floor:
            assert theta is None
            return
        _, df, ka = rates(root)
        # the relative tolerance of the search plus the float conditioning of f near its root
        tol = 1e-9 * root + 1e-13 * (1 + abs(ka)) / abs(df)
        assert theta is not None and abs(mp.mpf(theta) - root) <= tol
        assert res.theta_star == theta
        assert res.k_prime_s_at_star == service_log_neg_mgf(x_s, pi, theta)
        assert res.k_prime_a_at_star == arrival_log_mgf(x_a, theta)
        assert res.w_ms == -math.log(epsilon) / res.k_prime_s_at_star


# ------------------------------------------------ evaluation counts


@pytest.fixture
def gap_evals(monkeypatch):
    """Counts calls of every arrival rate function: one per gap evaluation,
    plus one in delay_bound for K'_a at the cap when max(a) <= min(s)
    decided theta* without an evaluation."""
    box = [0]
    make = martingale._arrival_rate

    class Counting:
        def __init__(self, rate):
            self._rate = rate

        def __call__(self, theta):
            box[0] += 1
            return self._rate(theta)

        def __getattr__(self, name):
            return getattr(self._rate, name)

    monkeypatch.setattr(martingale, "_arrival_rate", lambda x_a: Counting(make(x_a)))
    return box


def test_under_provisioned_without_evaluation(gap_evals):
    x_a = ArrivalSampleSet([200] * 8)
    x_s = CapacitySampleSet([np.full(8, 150)], 6, 0)
    assert find_theta_star(x_a, x_s, [1.0]) is None
    assert delay_bound(x_a, x_s, [1.0], 1e-3).theta_star is None
    assert gap_evals[0] == 0


@pytest.mark.parametrize(
    "arrivals, vecs, pi, evaluated",
    [
        # the asymptotes' root, about 2e-12, is below the floor: decided without an evaluation
        ([150], [[100], [1e12]], [1.0 - 1e-10, 1e-10], False),
        # f'(0) = 2.5e-7 and theta* is about 3.6e-11: the Newton steps from hi fall below the floor
        ([150 - 5e-7, 150 - 5e-7, 0, 300], [[100, 200]], [1.0], True),
    ],
    ids=["asymptote-root", "newton-step"],
)
def test_root_below_the_floor_is_infeasible(gap_evals, arrivals, vecs, pi, evaluated):
    x_a, x_s = ArrivalSampleSet(arrivals), CapacitySampleSet([np.array(v) for v in vecs], 1, len(vecs) - 1)
    rates, slope0, dominated = mp_gap(arrivals, vecs, pi)
    assert not dominated and slope0 > 0
    assert mp_root(rates, ThetaSearchParams.theta_cap) < ThetaSearchParams.floor
    assert find_theta_star(x_a, x_s, pi) is None
    assert (gap_evals[0] > 0) == evaluated
    res = delay_bound(x_a, x_s, pi, 1e-3)
    assert res.theta_star is None and res.w_ms == math.inf


def test_dominated_arrivals_capped_without_evaluation(gap_evals):
    x_a = ArrivalSampleSet([0, 40, 90, 90])
    x_s = CapacitySampleSet([np.array([90, 120]), np.array([200, 95])], 6, 1)
    assert find_theta_star(x_a, x_s, [0.3, 0.7]) == 64.0
    assert gap_evals[0] == 0


def test_equal_constant_rates_capped():
    x_a = ArrivalSampleSet([150] * 8)
    x_s = CapacitySampleSet([np.full(5, 150)], 6, 0)
    assert find_theta_star(x_a, x_s, [1.0]) == 64.0
    res = delay_bound(x_a, x_s, [1.0], 1e-3)
    assert res.theta_star == 64.0 and math.isfinite(res.w_ms)


def test_criterion_2_windows_average_evaluations(gap_evals, monkeypatch):
    calls = [0]
    bound = near_rt.delay_bound

    def counted(*args, **kwargs):
        calls[0] += 1
        return bound(*args, **kwargs)

    monkeypatch.setattr(near_rt, "delay_bound", counted)
    specs = table_specs()
    brute_force_allocate(specs, table_windows(specs), 40, AllocatorConfig())
    assert calls[0] == 3 * 38
    assert gap_evals[0] / calls[0] <= 10


# ------------------------------------------------ service rate from the table


def per_region_service_rate(vecs, pi):
    """The service rate's (values, weights, pi, means) by a loop over the raw per-region samples."""
    chunks_v, chunks_w, ps, means = [], [], [], []
    for n, p in enumerate(pi):
        if p == 0.0:
            continue
        samples = np.asarray(vecs[n], dtype=np.float64)
        vals, counts = np.unique(samples, return_counts=True)
        counts = counts.astype(np.float64)
        t_n = len(samples)
        chunks_v.append(vals)
        chunks_w.append(counts * (p / t_n))
        ps.append(p)
        means.append(float(np.dot(counts, vals)) / t_n)
    return np.concatenate(chunks_v), np.concatenate(chunks_w), np.array(ps), np.array(means)


@st.composite
def rate_inputs(draw):
    n_add = draw(st.integers(0, 12))
    if draw(st.booleans()):
        vecs = [draw(st.lists(st.integers(0, 5000), min_size=1, max_size=30)) for _ in range(n_add + 1)]
        x_s = CapacitySampleSet(vecs, 2, n_add)
    else:  # a slice of a window's group table, against the Fraction oracle's groups
        runs = draw(st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 80)), min_size=1, max_size=40))
        bits, rbs = zip(*runs)
        n_min = draw(st.integers(1, 40))
        x_s = build_capacity_samples(ConcatPerRbVector(bits, rbs), n_min, n_min + n_add)
        vecs = oracle_samples(bits, rbs, n_min, n_min + n_add)
    kind = draw(st.sampled_from(["some zero", "one active", "all active"]))
    if kind == "one active":
        weights = [0] * (n_add + 1)
        weights[draw(st.integers(0, n_add))] = 1
    else:
        low = 0 if kind == "some zero" else 1
        weights = draw(st.lists(st.integers(low, 9), min_size=n_add + 1, max_size=n_add + 1).filter(any))
    pi = np.asarray(weights, dtype=np.float64) / sum(weights)
    return x_s, vecs, pi


EXAMPLE_VECS = [[5, 5, 9], [7], [1, 2, 2, 3]]


@settings(max_examples=150, deadline=None)
@given(rate_inputs())
@example((CapacitySampleSet(EXAMPLE_VECS, 1, 2), EXAMPLE_VECS, np.array([0.5, 0.0, 0.5])))
@example((CapacitySampleSet(EXAMPLE_VECS, 1, 2), EXAMPLE_VECS, np.array([0.0, 1.0, 0.0])))
@example((CapacitySampleSet(EXAMPLE_VECS, 1, 2), EXAMPLE_VECS, np.array([0.25, 0.25, 0.5])))
def test_service_rate_matches_per_region_loop(inputs):
    x_s, vecs, pi = inputs
    rate = martingale._service_rate(x_s, pi)
    vals, w, ps, means = per_region_service_rate(vecs, pi)
    for got, want in ((rate.vals, vals), (rate.w, w), (rate.wv, w * vals), *zip(rate.groups, (ps, means))):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rate.edge == float(vals.min())


def test_packet_windows_average_evaluations(gap_evals, monkeypatch):
    # short packet-run windows at n_cell 100, as a trace-driven cell's decisions read them: the
    # search starts at the second-order root, so it needs few gap evaluations (8.26 from the asymptotes' root)
    calls = [0]
    bound = near_rt.delay_bound

    def counted(*args, **kwargs):
        calls[0] += 1
        return bound(*args, **kwargs)

    monkeypatch.setattr(near_rt, "delay_bound", counted)
    rng = np.random.default_rng(2)
    for _ in range(40):
        near_rt.allocate(PACKET_SPECS, packet_windows(rng), 100)
    assert calls[0] > 400
    assert gap_evals[0] / calls[0] <= 6


class Recording:
    """A rate function that records the thetas it is evaluated at."""

    def __init__(self, rate, seen):
        self._rate, self._seen = rate, seen

    def __call__(self, theta):
        self._seen.append(theta)
        return self._rate(theta)

    def __getattr__(self, name):
        return getattr(self._rate, name)


def second_order_root(ks, ka):
    return 2.0 * (ks.mean - ka.mean) / (ks.var + ka.var)


def test_capped_from_a_feasible_start():
    # the second-order root 0.08 is feasible and far below the cap, and so is the cap itself: the
    # search evaluates the cap before it converges below it, and returns it exactly
    x_a = ArrivalSampleSet([0, 100])
    x_s = CapacitySampleSet([np.array([150]), np.array([99])], 1, 1)
    pi = [1.0, 1e-30]  # min(s) = 99 < max(a) = 100, but weighted by 1e-30
    ks, ka = martingale._service_rate(x_s, pi), martingale._arrival_rate(x_a)
    cap = ThetaSearchParams().theta_cap
    start = second_order_root(ks, ka)
    assert 0 < start < cap
    assert ks(start)[0] >= ka(start)[0] and ks(cap)[0] >= ka(cap)[0]
    seen = []
    assert martingale._search(Recording(ks, seen), ka)[0] == cap
    assert seen == [start, cap]
    assert find_theta_star(x_a, x_s, pi) == cap
    assert delay_bound(x_a, x_s, pi, 1e-3).theta_star == cap


def test_feasible_starts_evaluate_an_infeasible_point_above_the_result():
    # a search that starts where the gap is >= 0 returns only after it has seen the gap < 0 above its result
    rng = np.random.default_rng(8)
    feasible = 0
    for _ in range(40):
        for w in packet_windows(rng):
            n_min = int(rng.integers(20, 80))
            pi = empirical_pmf(w.extra_rb_usage, 100 - n_min)
            ks = martingale._service_rate(build_capacity_samples(w.per_rb, n_min, 100, pi.pi), pi)
            ka = martingale._arrival_rate(w.arrivals)
            seen = []
            found = martingale._search(Recording(ks, seen), ka)
            if found is None or not seen or ks(seen[0])[0] < ka(seen[0])[0]:
                continue
            feasible += 1
            theta = found[0]
            assert any(t > theta and ks(t)[0] < ka(t)[0] for t in seen)
    assert feasible >= 10


@pytest.mark.parametrize("arrivals, service", [([40, 886], 463.2119084344541), ([226, 534, 226, 534], 380.0446103524517)])
def test_feasible_start_converges_to_rel_tol(arrivals, service):
    # near-critical cells: the second-order root lies just left of theta* (~2e-6), far below hi,
    # so a Newton step from it is below REL_TOL * hi yet far above REL_TOL * theta*
    x_a, x_s = ArrivalSampleSet(arrivals), CapacitySampleSet([np.array([service])], 1, 0)
    ks, ka = martingale._service_rate(x_s, [1.0]), martingale._arrival_rate(x_a)
    start = second_order_root(ks, ka)
    assert ks(start)[0] >= ka(start)[0]
    s = mp.mpf(service)
    root = mp.findroot(lambda t: s * t - mp.log(mp.fsum(mp.exp(t * a) for a in arrivals) / len(arrivals)), start)
    theta = find_theta_star(x_a, x_s, [1.0])
    assert abs(mp.mpf(theta) - root) <= 1e-9 * root


class FakeRate:
    """A rate function given as (value, slope) callables, with the attributes the search reads."""

    def __init__(self, fn, edge, intercept, mean, var, groups):
        self.fn, self.edge, self.intercept, self.mean, self.var, self.groups = fn, edge, intercept, mean, var, groups

    def __call__(self, theta):
        return self.fn(theta)


def test_search_returns_the_rates_at_its_result():
    # f = t - t^2 with no slope reported: every step is a bisection of [floor, 2] (the start, below
    # the asymptotes' root 3), and the search ends on its bracket, returning its feasible end with
    # the rates at it
    ka = FakeRate(lambda t: (t * t, 0.0), 2.0, -3.0, 0.0, 1.0, (np.ones(1), np.array([0.0])))
    ks = FakeRate(lambda t: (t, 0.0), 1.0, 0.0, 1.0, 0.0, (np.ones(1), np.array([1.0])))
    theta, (s, a) = martingale._search(ks, ka)
    assert 1.0 - 2e-9 <= theta <= 1.0
    assert (s, a) == (ks(theta)[0], ka(theta)[0])
