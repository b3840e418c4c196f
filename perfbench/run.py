"""rborch benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's INI and
trace files from --seed under .perfbench/ in the checkout, drives rborch
in-process (CLI subcommands through rborch.cli.main, library calls where a
per-call latency is measured), checks every output, and prints one JSON
result as its last line of standard output.  With --trace 0 the result holds
the end-to-end metrics listed in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced pass and the tracing overhead against an
untraced pass over the same rounds.
"""

import os

# Pin native thread pools before numpy is imported: the benchmark measures one
# core's worth of work, and the same in every run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import CONTROLLERS, WORKLOADS, file_digests  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 15
# A run stops starting rounds this many times --seconds after it began.
DEADLINE_FACTOR = 1.2


class Session:
    """Operation counts across every pass of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"FAILED {what}: {detail.strip()}", file=sys.stderr)


class Pass:
    """One sequence of rounds, untraced or traced; collects its timings."""

    def __init__(self, session: Session, tag: str, tracer=None):
        self.session = session
        self.tag = tag
        self.tracer = tracer
        self.decisions: list[float] = []  # seconds per near-RT decision
        self.oracles: list[float] = []
        self.per_controller: dict[str, list[float]] = {}  # label -> [ttis, seconds]
        self.rounds: list[dict] = []
        self.digests: dict[str, str] = {}
        self._round: dict = {}

    # ---- operations

    def call(self, kind: str, fn, check=None, count=None):
        """Run one operation; returns its host seconds, or None if it failed."""
        s = self.session
        s.attempted += 1
        tr = self.tracer
        mark = len(self.decisions)
        span = None
        if tr is not None:
            tr.run_id = s.attempted
            span = tr.open("bench." + kind)
        t0 = time.perf_counter()
        try:
            result = fn()
            error = None
        except Exception:  # noqa: BLE001 - every failure is counted, none stops the run
            error = traceback.format_exc(limit=3)
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tr.close(span)
        if error is None and check is not None:
            try:
                self.bench("check", lambda: check(result))
            except Exception as exc:  # noqa: BLE001
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            s.fail(kind, error)
            del self.decisions[mark:]  # a failed operation contributes no timing
            self._round["ok"] = False
            return None
        if count is not None and tr is not None:
            count(tr, result)
        self._round["op_s"] += dt
        return dt

    def cli(self, argv, check):
        import rborch.cli

        return self.call("cli", lambda: rborch.cli.main(argv), check)

    def bench(self, kind: str, fn):
        """Benchmark-side work (input synthesis, output checks), traced as such."""
        tr = self.tracer
        if tr is None:
            return fn()
        span = tr.open("bench." + kind)
        try:
            return fn()
        finally:
            tr.close(span)

    # ---- measurements reported by workloads

    def sim(self, label: str, ttis: int, seconds: float) -> None:
        self._round["ttis"] += ttis
        self._round["sim_s"] += seconds
        acc = self.per_controller.setdefault(label, [0, 0.0])
        acc[0] += ttis
        acc[1] += seconds

    def decision(self, seconds: float) -> None:
        self.decisions.append(seconds)

    def oracle(self, seconds: float) -> None:
        self.oracles.append(seconds)

    def outputs(self, out_dir: str) -> None:
        rel = os.path.basename(out_dir)
        if os.path.isdir(out_dir):
            for name, sha in self.bench("check", lambda: file_digests(out_dir)).items():
                self.digests[f"{rel}/{name}"] = sha

    def extra_digest(self, name: str, sha: str) -> None:
        self.digests[name] = sha

    # ---- rounds

    def run_rounds(self, workload, count: int, between=None, deadline=None) -> float:
        """Rounds 0..count-1, calling between(done, count) after each; returns
        the wall time the rounds took.  No round starts after `deadline` (a
        perf_counter value), so a run on a slowed machine still ends."""
        total = 0.0
        for r in range(count):
            if deadline is not None and time.perf_counter() > deadline:
                break
            self._round = {"op_s": 0.0, "ttis": 0, "sim_s": 0.0, "ok": True}
            start = time.perf_counter()
            try:
                workload.round(self, r)
            except Exception:  # noqa: BLE001 - input synthesis is a library call too
                self.session.attempted += 1
                self.session.fail(f"round {r}", traceback.format_exc(limit=3))
                self._round["ok"] = False
            total += time.perf_counter() - start
            self.rounds.append(self._round)
            if between is not None:
                between(r + 1, count)
        return total

    def ok_rounds(self) -> list[dict]:
        return [rd for rd in self.rounds if rd["ok"]]


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class SetupProbes:
    """Fresh-process set-up times, spread evenly over the run's rounds so
    that they see the same machine as the rounds do.  A first probe, which
    may compile bytecode, is not kept."""

    def __init__(self, session: Session, ini: str, probes: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.cmd = [sys.executable, os.path.join(HERE, "probe_setup.py"), ini]
        self.env = env
        self.session = session
        self.probes = probes
        self.done = 0
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float | None:
        self.session.attempted += 1
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            self.session.fail("setup probe", proc.stderr[-2000:])
            return None
        return float(proc.stdout.split()[-1])

    def between_rounds(self, done: int, count: int) -> None:
        while self.done < math.ceil(self.probes * done / count):
            self.done += 1
            t = self._probe()
            if t is not None:
                self.times.append(t)


def install_decision_probe(holder: list):
    """Times each near-RT decision inside `rborch run` (two clock reads per
    decision).  holder[0] is the list the current pass collects into; the
    library calls of model-check are timed by the benchmark instead."""
    import rborch.sim

    inner = getattr(rborch.sim, "allocate", None)
    if inner is None:
        return

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        result = inner(*args, **kwargs)
        holder[0].append(time.perf_counter() - t0)
        return result

    rborch.sim.allocate = timed


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(p: Pass, setup: list[float]) -> dict:
    ok = p.ok_rounds()
    return {
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": statistics.fmean([rd["op_s"] for rd in ok]) if ok else 0.0,
        "tti_per_s": _ratio(sum(rd["ttis"] for rd in ok), sum(rd["sim_s"] for rd in ok)),
        "decision_ms.p50": _median(p.decisions, 1e3),
    }


def untraced_extras(p: Pass, workload) -> dict:
    out = {}
    for ctrl in CONTROLLERS:
        ttis, secs = p.per_controller.get(ctrl, (0, 0.0))
        out[f"sim.tti_per_s.{ctrl}"] = _ratio(ttis, secs)
    out["near_rt.oracle_ms.p50"] = _median(p.oracles, 1e3)
    for key in ("viol_prob.marea", "bound_rel_err", "heuristic_gap"):
        out[f"model.{key}"] = workload.model.get(key, 0.0)
    return out


def report_human(args, session: Session, p: Pass) -> None:
    rate = session.failed / session.attempted if session.attempted else 0.0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(p.rounds)} "
          f"attempted={session.attempted} failed={session.failed} error_rate={rate:.6g}")
    print(f"samples: decisions={len(p.decisions)} oracle_calls={len(p.oracles)}")
    if len(p.decisions) >= 100:
        print(f"decision_ms.p90 {statistics.quantiles(p.decisions, n=10)[-1] * 1e3:.6g} ms")
    for name in sorted(p.digests):
        print(f"digest {name} {p.digests[name]}")
    combined = hashlib.sha256(json.dumps(p.digests, sort_keys=True).encode()).hexdigest()
    print(f"digest-all {combined}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke check")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rborch", "__init__.py")):
        print(f"error: no rborch sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rborch

    if not os.path.abspath(rborch.__file__).startswith(SRC + os.sep):
        print(f"error: imported rborch from {rborch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    os.makedirs(STATE_DIR, exist_ok=True)
    work = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        session = Session()
        deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
        workload = WORKLOADS[args.workload](work, args.seed, args.tiny, args.seconds)
        workload.prepare()
        plain = Pass(session, "plain")
        holder = [plain.decisions]
        install_decision_probe(holder)
        if not args.trace:
            setup = SetupProbes(session, workload.setup_ini, 1 if args.tiny else SETUP_PROBES)
            plain.run_rounds(workload, workload.rounds, setup.between_rounds, deadline)
            values = end_to_end(plain, setup.times)
            report_human(args, session, plain)
            for name, val in untraced_extras(plain, workload).items():
                print(f"info {name} {val:.9g}")
            for name, val in values.items():
                print(f"metric {name} {val:.9g}")
        else:
            # The first half of the rounds twice: untraced for the overhead
            # baseline, then traced.
            untraced_s = plain.run_rounds(workload, max(1, workload.rounds // 2))
            extras = untraced_extras(plain, workload)
            tracer = Tracer()
            traced = Pass(session, "traced", tracer)
            holder[0] = traced.decisions
            tracer.install()
            try:
                traced_s = traced.run_rounds(workload, count=len(plain.rounds))
            finally:
                tracer.uninstall()
            tracer.save(os.path.join(STATE_DIR, f"spans-{args.workload}.npz"))
            if traced.digests != plain.digests:
                session.attempted += 1
                session.fail("digest", "traced outputs differ from untraced outputs")
            values = tracer.layer_metrics(traced_s)
            values["trace.overhead"] = traced_s / untraced_s - 1.0
            values.update(extras)
            report_human(args, session, plain)
            if tracer.missing:
                print("unmeasured hooks: " + " ".join(tracer.missing))
            for name, val in values.items():
                print(f"layer {name} {val:.9g}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"benchmark bug: metrics {missing} not computed")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
