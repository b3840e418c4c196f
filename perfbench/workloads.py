"""The three benchmark workloads: seeded input files, one round of operations
each, and the checks applied to every operation's output.

A workload writes its INI (and trace CSV) files once from the run seed, then
runs a fixed number of rounds, set by the run's length and not by how fast
the code is, so that every build measures the same inputs.  Round r draws
fresh inputs from (seed, r) where the program takes a seed, so later rounds
widen the sample instead of replaying it, and round 0 is the same on every
run with that seed; its output digests are the ones printed.  Every
operation is one CLI invocation or one library call.

rborch is imported inside functions: the runner puts the checkout's sources on
the import path only after checking that they exist.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

CONTROLLERS = ("marea", "ref1", "ref2", "ref3", "ref4")


class CheckError(Exception):
    """An operation's output violates a property the benchmark checks."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] & 0x7FFFFFFF)


def _write_ini(path: str, scenario: dict, services: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("[scenario]\n")
        for key, val in scenario.items():
            fh.write(f"{key} = {val}\n")
        for sid, svc in enumerate(services):
            fh.write(f"\n[service.{sid}]\n")
            for key, val in svc.items():
                fh.write(f"{key} = {val}\n")


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def file_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_run_outputs(out_dir: str, n_cell: int) -> float:
    """Checks summary/ccdf/alloc CSVs of one `rborch run`; returns the worst
    service's violation probability."""
    summary = _read_csv(os.path.join(out_dir, "summary.csv"))
    _require(len(summary) > 0, "summary.csv is empty")
    viol = {}
    for row in summary:
        p = float(row["violation_prob"])
        _require(0.0 <= p <= 1.0, f"violation_prob {p} outside [0, 1]")
        viol[row["service_id"]] = p
    curves: dict[str, list[tuple[float, float]]] = {}
    for row in _read_csv(os.path.join(out_dir, "ccdf.csv")):
        curves.setdefault(row["service_id"], []).append((float(row["x"]), float(row["ccdf"])))
    for sid, curve in curves.items():
        xs = [x for x, _ in curve]
        ys = [y for _, y in curve]
        _require(xs == sorted(xs), f"service {sid}: ccdf grid not increasing")
        _require(all(b <= a for a, b in zip(ys, ys[1:])), f"service {sid}: ccdf increases in x")
        at0 = [y for x, y in curve if x == 0.0]
        _require(len(at0) == 1, f"service {sid}: ccdf has no point at x = 0")
        _require(
            abs(at0[0] - viol[sid]) <= 1e-8 * max(1.0, viol[sid]),
            f"service {sid}: ccdf(0) = {at0[0]} but violation_prob = {viol[sid]}",
        )
    periods: dict[str, list[int]] = {}
    for row in _read_csv(os.path.join(out_dir, "alloc.csv")):
        periods.setdefault(row["period"], []).append(int(row["n_min"]))
    for period, n_mins in periods.items():
        _require(min(n_mins) >= 1, f"alloc period {period}: n_min below 1")
        _require(sum(n_mins) <= n_cell, f"alloc period {period}: {sum(n_mins)} RBs > n_cell {n_cell}")
    return max(viol.values())


def check_allocation(alloc, n_cell: int) -> None:
    _require(min(alloc.n_min) >= 1, f"allocation {alloc.n_min} has n_min below 1")
    _require(sum(alloc.n_min) <= n_cell, f"allocation {alloc.n_min} exceeds n_cell {n_cell}")


def result_digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


class Workload:
    """Base: subclasses set `name`, write inputs in prepare() and run one round."""

    name = ""
    # Rounds per second of --seconds: sized so that the rounds and the set-up
    # probes of one run take about --seconds on a 2-vCPU machine.
    rounds_per_s = 1.0

    def __init__(self, work_dir: str, seed: int, tiny: bool, seconds: float):
        self.work = work_dir
        self.seed = seed
        self.tiny = tiny
        self.rounds = 1 if tiny else max(1, round(self.rounds_per_s * seconds))
        self.setup_ini = ""
        self.model: dict[str, float] = {}

    def out_dir(self, tag: str, r: int, op: str) -> str:
        return os.path.join(self.work, "out", tag, f"r{r:03d}-{op}")

    def _cli_run(self, ctx, r, ini, seed, controller, n_cell, horizon):
        out = self.out_dir(ctx.tag, r, controller)
        argv = ["run", "--config", ini, "--out", out, "--seed", str(seed),
                "--controller", controller, "--overwrite"]

        def check(code):
            _require(code == 0, f"rborch run exited {code}")
            viol = check_run_outputs(out, n_cell)
            if r == 0 and controller == "marea":
                self.model["viol_prob.marea"] = viol

        dt = ctx.cli(argv, check)
        if dt is not None:
            ctx.sim(controller, horizon, dt)
        if r == 0:
            ctx.outputs(out)


class UrllcAnomaly(Workload):
    """Acceptance criterion-5 congested cell on 0.125 ms slots with a x3.5
    burst on service 0, run under each of the five controllers."""

    name = "urllc-anomaly"
    rounds_per_s = 0.2

    def prepare(self):
        if self.tiny:
            self.horizon, t_obs, anomaly = 6000, 2000, (2000, 4000)
        else:
            self.horizon, t_obs, anomaly = 48000, 8000, (16000, 32000)
        self.n_cell = 30
        self.ini = self.setup_ini = os.path.join(self.work, "urllc.ini")
        _write_ini(
            self.ini,
            {"n_cell": self.n_cell, "horizon": self.horizon, "controller": "marea",
             "estimator": "empirical", "t_slot_ms": 0.125, "t_obs": t_obs, "t_out": t_obs,
             "seed": derive_seed(self.seed, 0), "anomaly_service": 0,
             "anomaly_start": anomaly[0], "anomaly_end": anomaly[1], "anomaly_factor": 3.5},
            [
                {"w_th_ms": 1.0, "epsilon": 1e-3, "arrival": "two-point 0:0.5 200:0.5",
                 "channel": "constant 25"},
                {"w_th_ms": 2.0, "epsilon": 1e-3, "arrival": "uniform-integer 0 300",
                 "channel": "constant 25"},
                {"w_th_ms": 3.0, "epsilon": 1e-2, "arrival": "empirical-table 0:0.5 150:0.4 600:0.1",
                 "channel": "constant 25"},
            ],
        )

    def round(self, ctx, r):
        seed = derive_seed(self.seed, 1, r)
        for controller in CONTROLLERS:
            self._cli_run(ctx, r, self.ini, seed, controller, self.n_cell, self.horizon)


class LargePacket(Workload):
    """Trace-driven cell with packets of up to 100 RBs: every capacity build
    takes the exact-Fraction path."""

    name = "large-packet"
    rounds_per_s = 0.45

    def prepare(self):
        self.horizon = 300 if self.tiny else 500
        # Short windows: many cheap decisions per round rather than a few
        # costly ones, so a round's cost varies less with its inputs.
        t_obs = t_out = 50
        self.n_cell = 100
        self.inis = []
        for k in range(self.rounds):  # one trace set per round
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2, k]))
            arr_path = os.path.join(self.work, f"lp{k}-arrivals.csv")
            ch_path = os.path.join(self.work, f"lp{k}-channel.csv")
            with open(arr_path, "w") as arr, open(ch_path, "w") as ch:
                arr.write("tti,service_id,bits,packet_sizes\n")
                ch.write("tti,service_id,bits_per_rb\n")
                for sid in range(2):
                    counts = rng.integers(0, 3, size=self.horizon)
                    sizes = rng.integers(300, 1501, size=int(counts.sum()))
                    rates = rng.integers(15, 31, size=self.horizon)
                    pos = 0
                    for t in range(self.horizon):
                        pk = sizes[pos:pos + counts[t]]
                        pos += counts[t]
                        arr.write(f"{t},{sid},{int(pk.sum())},{';'.join(str(int(v)) for v in pk)}\n")
                        ch.write(f"{t},{sid},{int(rates[t])}\n")
            ini = os.path.join(self.work, f"lp{k}.ini")
            _write_ini(
                ini,
                {"n_cell": self.n_cell, "horizon": self.horizon, "controller": "marea",
                 "estimator": "empirical", "t_slot_ms": 1.0, "t_obs": t_obs, "t_out": t_out,
                 "seed": derive_seed(self.seed, 0)},
                [
                    {"w_th_ms": 5.0 * (1 + sid), "epsilon": 1e-3,
                     "arrival": f"trace {os.path.basename(arr_path)}",
                     "channel": f"trace {os.path.basename(ch_path)}"}
                    for sid in range(2)
                ],
            )
            self.inis.append(ini)
        self.setup_ini = self.inis[0]

    def round(self, ctx, r):
        ini = self.inis[r % len(self.inis)]
        self._cli_run(ctx, r, ini, derive_seed(self.seed, 1, r), "marea", self.n_cell, self.horizon)


class ModelCheck(Workload):
    """Offline tools as a library: allocator decisions (empirical and GMM),
    the brute-force oracle, vectorized FIFO measurement and validate-model."""

    name = "model-check"
    rounds_per_s = 0.23

    def prepare(self):
        import rborch.config

        tiny = self.tiny
        self.decide = dict(n_cell=40, t_obs=200 if tiny else 500, rbs=4, usage=200 if tiny else 500,
                           empirical=1 if tiny else 6, gmm=1 if tiny else 3)
        self.oracle = dict(grid=(60,) if tiny else (60, 80, 100), t_obs=250, rbs=2)
        self.fifo = dict(calls=1 if tiny else 2, ttis=100_000 if tiny else 2_000_000, n_min=10)
        self.validate_args = ["--n-min-grid", "10,12", "--t-obs-grid", "2000,4000",
                              "--runs", "1" if tiny else "2", "--run-ttis", "20000" if tiny else "250000"]
        self.triple_ini = os.path.join(self.work, "triple.ini")
        _write_ini(
            self.triple_ini,
            {"n_cell": 100, "horizon": 5000, "t_obs": 2000, "seed": derive_seed(self.seed, 0)},
            [
                {"w_th_ms": 5.0, "epsilon": 1e-5, "arrival": "empirical-table 0:0.6 100:0.3 1000:0.1",
                 "channel": "constant 25"},
                {"w_th_ms": 10.0, "epsilon": 1e-4, "arrival": "empirical-table 0:0.7 100:0.2 900:0.1",
                 "channel": "constant 20"},
                {"w_th_ms": 15.0, "epsilon": 1e-3, "arrival": "empirical-table 0:0.65 80:0.2 1000:0.15",
                 "channel": "constant 30"},
            ],
        )
        self.single_ini = self.setup_ini = os.path.join(self.work, "single.ini")
        _write_ini(
            self.single_ini,
            {"n_cell": 20, "horizon": 5000, "t_obs": 2000, "seed": derive_seed(self.seed, 0)},
            [{"w_th_ms": 10.0, "epsilon": 1e-3, "arrival": "two-point 0:0.5 200:0.5",
              "channel": "constant 11"}],
        )
        self.specs = rborch.config.load_config(self.triple_ini).services
        self.single = rborch.config.load_config(self.single_ini).services[0]

    def _windows(self, r, key, n_cell, t_obs, rbs, usage_len):
        from rborch.sim import synthesize_window

        windows = []
        for m, spec in enumerate(self.specs):
            ss = np.random.SeedSequence([self.seed, 3, r, key, m])
            r_a, r_c, r_u = (np.random.default_rng(s) for s in ss.spawn(3))
            # extra-RB usage as a live cell shows it: mostly idle, bursts of several RBs
            busy = r_u.random(usage_len) < 0.3
            usage = np.where(busy, r_u.integers(5, n_cell // 3, usage_len), r_u.integers(0, 3, usage_len))
            windows.append(synthesize_window(spec.arrival, spec.channel, t_obs, rbs, r_a, r_c, usage))
        return windows

    def round(self, ctx, r):
        from rborch.near_rt import AllocatorConfig, allocate, brute_force_allocate
        from rborch.sim import measure_fifo_delays
        from rborch.traces import sample_many

        specs = self.specs
        d = self.decide
        if r == 0:
            self.library_results = []
            self.model.pop("heuristic_gap", None)
        n_dec = d["empirical"] + d["gmm"]
        for i in range(n_dec):
            estimator = "empirical" if i < d["empirical"] else "gmm"
            cfg = AllocatorConfig(estimator=estimator)
            windows = ctx.bench("window", lambda: self._windows(r, i, d["n_cell"], d["t_obs"], d["rbs"], d["usage"]))
            em_rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4, r, i]))

            def check(alloc):
                check_allocation(alloc, d["n_cell"])
                if r == 0:
                    self.library_results.append(("decide", alloc.n_min, alloc.w_est, alloc.objective))

            dt = ctx.call("decide", lambda: allocate(specs, windows, d["n_cell"], cfg, em_rng), check,
                          count=lambda tr, a: _count_allocate(tr, a, len(specs)))
            if dt is not None:
                ctx.decision(dt)

        o = self.oracle
        for n_cell in o["grid"]:
            windows = ctx.bench("window", lambda: self._windows(r, 1000 + n_cell, n_cell, o["t_obs"], o["rbs"], d["usage"]))
            expected = math.comb(n_cell - 1, len(specs) - 1)
            brute = {}

            def check_brute(res):
                alloc, count = res
                _require(count == expected, f"n_cell {n_cell}: {count} compositions, expected {expected}")
                check_allocation(alloc, n_cell)
                brute["objective"] = alloc.objective

            def count_brute(tr, res):
                tr.add("near_rt.oracle_compositions", res[1])

            dt = ctx.call("oracle", lambda: brute_force_allocate(specs, windows, n_cell), check_brute,
                          count=count_brute)
            if dt is not None:
                ctx.oracle(dt)

            def check_heuristic(alloc):
                check_allocation(alloc, n_cell)
                if "objective" in brute:
                    b = brute["objective"]
                    _require(alloc.objective >= b, f"n_cell {n_cell}: heuristic {alloc.objective} below brute {b}")
                    if r == 0:
                        gap = (alloc.objective - b) / b if b > 0 else 0.0
                        self.model["heuristic_gap"] = max(self.model.get("heuristic_gap", 0.0), gap)
                        self.library_results.append(("oracle", n_cell, alloc.n_min, alloc.objective, b))

            ctx.call("heuristic", lambda: allocate(specs, windows, n_cell), check_heuristic,
                     count=lambda tr, a: _count_allocate(tr, a, len(specs)))

        f = self.fifo
        spec = self.single
        for i in range(f["calls"]):
            def streams():
                rng = np.random.default_rng(np.random.SeedSequence([self.seed, 5, r, i]))
                return sample_many(spec.arrival, rng, f["ttis"]), f["n_min"] * sample_many(spec.channel, rng, f["ttis"])

            arr, svc = ctx.bench("window", streams)

            def check_fifo(res):
                delays, pending = res
                _require(len(delays) + len(pending) == int(np.count_nonzero(arr)), "FIFO lost packets")
                _require(len(delays) == 0 or float(delays.min()) >= 1.0, "FIFO delay below one slot")
                if r == 0:
                    self.library_results.append(("fifo", len(delays), float(delays.sum()), len(pending)))

            dt = ctx.call("fifo", lambda: measure_fifo_delays(arr, svc, 1.0), check_fifo,
                          count=lambda tr, res: tr.add("sim.fifo.ttis", len(arr)))
            if dt is not None:
                ctx.sim("fifo", f["ttis"], dt)

        out = self.out_dir(ctx.tag, r, "validate")
        argv = ["validate-model", "--config", self.single_ini, "--out", out,
                "--seed", str(derive_seed(self.seed, 1, r)), "--overwrite", *self.validate_args]

        def check_validate(code):
            _require(code == 0, f"rborch validate-model exited {code}")
            rows = _read_csv(os.path.join(out, "validate.csv"))
            _require(len(rows) == 4, f"validate.csv has {len(rows)} grid points, expected 4")
            worst = 0.0
            for row in rows:
                w_model = float(row["W_model_ms"])
                _require(math.isfinite(w_model), f"W_model not finite at n_min {row['n_min']}")
                worst = max(worst, float(row["rel_err"]))
            if r == 0:
                self.model["bound_rel_err"] = worst

        ctx.cli(argv, check_validate)
        if r == 0:
            ctx.outputs(out)
            ctx.extra_digest("library-results", result_digest(self.library_results))


def _count_allocate(tr, alloc, services):
    tr.add("near_rt.iterations", alloc.evaluations)
    tr.add("near_rt.evaluations_x_services", alloc.evaluations * services)


WORKLOADS = {w.name: w for w in (UrllcAnomaly, LargePacket, ModelCheck)}
