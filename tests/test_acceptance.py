"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py`; the full module takes a few
minutes (bound-validity measurements and the million-TTI benchmark dominate).
"""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

import rborch as rb
from rborch.cli import table1_windows, validate_point
from rborch.martingale import ArrivalSampleSet, CapacitySampleSet, arrival_log_mgf, delay_bound, find_theta_star, service_log_neg_mgf
from rborch.near_rt import AllocatorConfig, ServiceWindow, allocate, brute_force_allocate
from rborch.rt import FsmRecord, STATE_A, STATE_B, STATE_C, mitigate, schedule_tti
from rborch.sim import run
from rborch.traces import SyntheticModel
from rborch.utilization import GmmMixture, empirical_pmf, region_probabilities

mk = SyntheticModel


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS — {detail}", flush=True)


# ---------------------------------------------------------------- scenarios

def table_specs():
    """Heterogeneous tall-peak traffic: smooth bound curves over 20..40 RBs."""
    return [
        rb.ServiceSpec(0, 5.0, 1e-5, mk("empirical-table", (0, 100, 1000), (0.6, 0.3, 0.1)),
                       mk("constant", (25,))),
        rb.ServiceSpec(1, 10.0, 1e-4, mk("empirical-table", (0, 100, 900), (0.7, 0.2, 0.1)),
                       mk("constant", (20,))),
        rb.ServiceSpec(2, 15.0, 1e-3, mk("empirical-table", (0, 80, 1000), (0.65, 0.2, 0.15)),
                       mk("constant", (30,))),
    ]


def table_windows(specs, seed=99, t_obs=2000, rbs_per_tti=8):
    return table1_windows(specs, (seed,), t_obs, rbs_per_tti)


def ordering_config(seed: int, controller: str) -> rb.ScenarioConfig:
    """Congested 3-service cell with a mid-run traffic anomaly on service 0."""
    services = [
        rb.ServiceSpec(0, 5.0, 1e-3, mk("two-point", (0, 200), (0.5, 0.5)), mk("constant", (25,))),
        rb.ServiceSpec(1, 10.0, 1e-3, mk("uniform-integer", (0, 300)), mk("constant", (25,))),
        rb.ServiceSpec(2, 15.0, 1e-2, mk("empirical-table", (0, 150, 600), (0.5, 0.4, 0.1)),
                       mk("constant", (25,))),
    ]
    return rb.ScenarioConfig(
        n_cell=30, horizon=24000, services=services, controller=controller,
        t_obs=4000, t_out=1000, seed=seed,
        anomaly=rb.AnomalyConfig(0, 8000, 16000, 3.5),
    )


BOUND_SCENARIOS = [
    ("two-point bursts", mk("two-point", (0, 200), (0.5, 0.5)), mk("constant", (11,)), 10),
    ("uniform arrivals", mk("uniform-integer", (0, 240)), mk("constant", (14,)), 10),
    ("heavy-tail table", mk("empirical-table", (0, 500), (0.8, 0.2)), mk("constant", (12,)), 10),
]


# ---------------------------------------------------------------- criteria

def test_criterion_1_theta_star_closed_form():
    x_a = ArrivalSampleSet([0, 200])
    x_s = CapacitySampleSet([np.array([150])], n_min=6, n_add=0)

    roots = np.roots([1.0, -1.0, -1.0, -1.0])  # independent oracle for u^3 = u^2+u+1
    u = float(roots[np.isreal(roots)].real.max())
    theta_ref = math.log(u) / 50.0

    theta = find_theta_star(x_a, x_s, [1.0])
    assert theta is not None
    assert abs(theta - theta_ref) <= 1e-6
    assert abs(theta - 0.0121876) <= 1e-6

    res = delay_bound(x_a, x_s, [1.0], 1e-3, 1.0)
    w_ref = -math.log(1e-3) / (150.0 * theta_ref)
    assert abs(res.w_ms - w_ref) <= 1e-3
    assert abs(res.w_ms - 3.7786) <= 1e-3
    report(1, f"theta*={theta:.9f} (oracle {theta_ref:.9f}), W={res.w_ms:.6f} ms")


def test_criterion_2_brute_force_counts_and_optimality():
    specs = table_specs()
    windows = table_windows(specs)
    cfg = AllocatorConfig()

    expected_counts = {60: 1711, 70: 2346, 80: 3081, 90: 3916, 100: 4851}
    for n_cell, expect in expected_counts.items():
        brute, count = brute_force_allocate(specs, windows, n_cell, cfg)
        assert count == expect, f"N_cell={n_cell}: {count} != {expect}"
        heur = allocate(specs, windows, n_cell, cfg)
        assert heur.objective == brute.objective

    mismatches = []
    for n_cell in range(20, 41):
        h = allocate(specs, windows, n_cell, cfg)
        b, _ = brute_force_allocate(specs, windows, n_cell, cfg)
        assert sum(h.n_min) <= n_cell
        if h.objective != b.objective:
            mismatches.append(n_cell)
    assert not mismatches, f"heuristic != brute at N_cell {mismatches}"
    report(2, "brute counts {1711,2346,3081,3916,4851} exact; relative error 0 on N_cell 20..40")


def test_criterion_3_bound_validity():
    t_obs = 4000
    eps = 1e-3
    runs, run_ttis = 2, 4_000_000
    seed = 5
    lines = []
    for name, arrival, channel, n_min in BOUND_SCENARIOS:
        # the validate-model grid point: W_model includes the transmitting slot
        spec = rb.ServiceSpec(0, 10.0, eps, arrival, channel)
        w_model, _, rel, delays = validate_point(spec, seed, n_min, t_obs, runs, run_ttis, 1.0)
        assert math.isfinite(w_model)
        p_exceed = float(np.mean(delays >= w_model))
        assert rel <= 0.5, f"{name}: rel err {rel:.2%}"
        assert p_exceed <= 3 * eps, f"{name}: P[w >= W] = {p_exceed:.2e}"
        lines.append(f"{name}: rel={rel:.1%}, P={p_exceed:.1e}")
    report(3, "; ".join(lines))


def test_criterion_4_monotone_convergence():
    specs = table_specs()
    windows = table_windows(specs)
    checked = 0
    for n_cell in range(20, 41):
        res = allocate(specs, windows, n_cell)
        for a, b in zip(res.objective_history, res.objective_history[1:]):
            assert b <= a
        checked += 1
    # ordering scenario with a live utilization window
    usage_rng = np.random.default_rng(1)
    live = [
        ServiceWindow(w.arrivals, w.per_rb, usage_rng.integers(0, 6, 1000))
        for w in table_windows(ordering_config(0, "marea").services, seed=3)
    ]
    res = allocate(ordering_config(0, "marea").services, live, 30)
    for a, b in zip(res.objective_history, res.objective_history[1:]):
        assert b <= a
    checked += 1
    report(4, f"committed objective non-increasing across {checked} allocation runs")


def test_criterion_5_controller_ordering():
    seeds = range(10)
    totals = {}
    for ctrl in ("marea", "ref4", "ref3"):
        viol = np.zeros(3)
        pkts = np.zeros(3)
        for seed in seeds:
            m = run(ordering_config(seed, ctrl))
            for i, s in enumerate(m.services):
                viol[i] += s.violation_prob * s.packets
                pkts[i] += s.packets
        totals[ctrl] = viol / np.maximum(pkts, 1)
    ordered = sum(
        totals["marea"][i] <= totals["ref4"][i] <= totals["ref3"][i] for i in range(3)
    )
    twofold = any(
        totals["ref3"][i] > 0 and totals["ref3"][i] >= 2 * totals["marea"][i] for i in range(3)
    )
    assert ordered >= 2, f"ordering holds for only {ordered} of 3 services: {totals}"
    assert twofold, f"no service improved 2x over ref3: {totals}"
    detail = "; ".join(
        f"svc{i}: marea={totals['marea'][i]:.2e} ref4={totals['ref4'][i]:.2e} ref3={totals['ref3'][i]:.2e}"
        for i in range(3)
    )
    report(5, f"{ordered}/3 services ordered over 10 seeds; {detail}")


def _random_sim_configs(rng):
    kinds = ("marea", "ref1", "ref2", "ref3", "ref4")
    for i in range(8):
        m_count = int(rng.integers(1, 4))
        services = []
        for sid in range(m_count):
            mean_scale = int(rng.integers(40, 220))
            arr = mk("empirical-table",
                     (0, mean_scale, 4 * mean_scale),
                     (0.5, 0.35, 0.15))
            ch = mk("constant", (int(rng.integers(15, 35)),))
            services.append(rb.ServiceSpec(sid, float(rng.integers(4, 16)), 1e-3, arr, ch))
        cfg = rb.ScenarioConfig(
            n_cell=int(rng.integers(3 * m_count, 8 * m_count)),
            horizon=2400,
            services=services,
            controller=kinds[i % len(kinds)],
            t_obs=1200,
            t_out=1000,
            seed=int(rng.integers(0, 2**31)),
            check_invariants=True,
            debug_log=True,
        )
        if int(rng.integers(0, 2)):
            cfg = dataclasses.replace(cfg, anomaly=rb.AnomalyConfig(0, 1400, 1900, float(rng.uniform(1.5, 4.0))))
        yield cfg


def test_criterion_6_invariant_suites():
    cases = 10_000
    rng = np.random.default_rng(2024)

    # a+d+e: RB ledger, flow conservation, FIFO across randomized simulations
    # (run() raises internally on any per-TTI violation when checks are on)
    ledger_ttis = 0
    for cfg in _random_sim_configs(rng):
        m = run(cfg)
        n_svc = len(cfg.services)
        rows = m.debug_rows
        for base in range(0, len(rows), n_svc):
            used = sum(rows[base + j][5] for j in range(n_svc))
            assert used <= cfg.n_cell
            ledger_ttis += 1
    assert ledger_ttis >= cases

    # b: mitigation conserves the allocation total and stays non-negative
    for _ in range(cases):
        m_count = int(rng.integers(1, 7))
        alloc = rng.integers(0, 12, m_count).tolist()
        recs = []
        for _ in range(m_count):
            s = rng.choice([STATE_A, STATE_B, STATE_C])
            recs.append(FsmRecord(s, 0 if s == STATE_A else int(rng.integers(0, 6))))
        out = mitigate(alloc, recs)
        assert sum(out) == sum(alloc) and all(v >= 0 for v in out)

    # c: PMF normalization for both estimator paths
    for _ in range(cases // 2):
        n_add = int(rng.integers(0, 20))
        usage = rng.integers(0, n_add + 4, int(rng.integers(1, 50)))
        pmf = empirical_pmf(usage, n_add)
        assert abs(pmf.pi.sum() - 1.0) <= 1e-9 and np.all(pmf.pi >= 0)
    for _ in range(cases // 2):
        c = int(rng.integers(1, 5))
        w = rng.dirichlet(np.ones(c))
        gmm = GmmMixture(w, rng.uniform(-4, 24, c), rng.uniform(0.01, 6, c))
        pmf = region_probabilities(gmm, int(rng.integers(0, 24)))
        assert abs(pmf.pi.sum() - 1.0) <= 1e-9 and np.all(pmf.pi >= 0)

    # f: log-MGF convexity and Jensen bounds
    for _ in range(cases // 2):
        samples = rng.integers(0, 400, int(rng.integers(2, 16)))
        x = ArrivalSampleSet(samples)
        t0 = float(rng.uniform(1e-4, 0.05))
        t2 = t0 * float(rng.uniform(2.0, 8.0))
        t1 = 0.5 * (t0 + t2)
        v0, v1, v2 = (arrival_log_mgf(x, t) for t in (t0, t1, t2))
        assert v1 <= 0.5 * (v0 + v2) + 1e-9
        assert v1 >= t1 * samples.mean() - 1e-9
    for _ in range(cases // 2):
        n_add = int(rng.integers(0, 3))
        vecs = [rng.integers(1, 300, int(rng.integers(1, 12))) for _ in range(n_add + 1)]
        pi = rng.dirichlet(np.ones(n_add + 1))
        x_s = CapacitySampleSet(vecs, 2, n_add)
        theta = float(rng.uniform(1e-4, 0.05))
        weighted_mean = sum(p * v.mean() for p, v in zip(pi, vecs))
        assert service_log_neg_mgf(x_s, pi, theta) <= theta * weighted_mean + 1e-9

    # g: scaling invariance of theta* and W; arrival mean below service mean
    # with a peak above the service support keeps theta* interior
    for _ in range(cases):
        small = rng.integers(0, 60, int(rng.integers(8, 17)))
        big = int(rng.integers(220, 400))
        arr = np.concatenate([small, [big]])
        svc = rng.integers(130, 200, int(rng.integers(2, 6)))
        x_a, x_s = ArrivalSampleSet(arr), CapacitySampleSet([svc], 3, 0)
        base = delay_bound(x_a, x_s, [1.0], 1e-3)
        assert base.theta_star is not None
        c = float(rng.uniform(0.05, 30.0))
        scaled = delay_bound(
            ArrivalSampleSet(arr * c), CapacitySampleSet([svc * c], 3, 0), [1.0], 1e-3
        )
        assert scaled.theta_star == pytest.approx(base.theta_star / c, rel=1e-6)
        assert scaled.w_ms == pytest.approx(base.w_ms, rel=1e-6)

    report(6, f"ledger/flow/FIFO over {ledger_ttis} TTIs; 10^4 cases per suite, zero failures")


def test_criterion_7_determinism(tmp_path):
    from rborch.cli import main

    cfg_text = """
[scenario]
n_cell = 14
horizon = 3600
t_obs = 2000
t_out = 1000
seed = 11
controller = marea
debug_log = true

[service.0]
w_th_ms = 5
epsilon = 1e-3
arrival = two-point 0:0.5 220:0.5
channel = uniform-integer 20 30

[service.1]
w_th_ms = 12
epsilon = 1e-2
arrival = empirical-table 0:0.6 140:0.3 500:0.1
channel = constant 25
"""
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(cfg_text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        outs.append(out)
    files = ["summary.csv", "ccdf.csv", "alloc.csv", "debug.csv"]
    for f in files:
        a = (outs[0] / f).read_bytes()
        b = (outs[1] / f).read_bytes()
        assert a == b, f"{f} differs between identical runs"
    report(7, f"byte-identical {', '.join(files)} across repeated runs")


def criterion_8_config() -> rb.ScenarioConfig:
    """10^6 TTIs, 3 services, marea; CI also runs it alone to report its peak memory."""
    services = [
        rb.ServiceSpec(0, 5.0, 1e-3, mk("two-point", (0, 200), (0.5, 0.5)), mk("constant", (25,))),
        rb.ServiceSpec(1, 10.0, 1e-3, mk("empirical-table", (0, 100, 300), (0.3, 0.5, 0.2)),
                       mk("constant", (25,))),
        rb.ServiceSpec(2, 15.0, 1e-2, mk("uniform-integer", (0, 240)),
                       mk("two-point", (20, 30), (0.5, 0.5))),
    ]
    return rb.ScenarioConfig(
        n_cell=30, horizon=1_000_000, services=services, t_obs=4000, t_out=1000, seed=1
    )


def test_criterion_8_performance():
    cfg = criterion_8_config()
    t0 = time.perf_counter()
    m = run(cfg)
    elapsed = time.perf_counter() - t0
    assert sum(s.packets for s in m.services) > 1_000_000
    assert elapsed < 60.0, f"1e6-TTI run took {elapsed:.1f} s"
    # the decisions themselves are pinned: SHA-256 of the repr of alloc_rows
    digest = hashlib.sha256(repr(m.alloc_rows).encode()).hexdigest()
    assert digest == "9e6e2f8126284c42cea10140bd32bc4606acf81c303308994f1fb81ac5738589", digest
    report(8, f"1e6 TTIs, 3 services, marea controller: {elapsed:.1f} s (< 60 s)")
