"""In-memory span recorder that wraps rborch's public functions from outside.

Each hook replaces a module attribute (the name a caller looks up at run
time) with a wrapper that records one span: name, start, end, parent span
and run id (the benchmark operation it belongs to).  Spans live in flat
arrays while the run is going and are written out once, when it ends.  A
hook whose target no longer exists is recorded as missing, so a refactor
that removes a function leaves its layer unmeasured instead of crashing the
benchmark.

The wrapper's own work (bookkeeping and result inspection) is kept out of
every layer: each span also records when the wrapper was entered and left,
and the remaining cost of calling through a wrapper is calibrated once on a
wrapped no-op.  That time is reported as the `trace` layer.
"""

from __future__ import annotations

import importlib
import logging
import time
from array import array

import numpy as np

# (module, attribute, layer).  The module is where the caller looks the name
# up, so the hook sees exactly the calls that module makes.
HOOKS = (
    ("rborch.sim", "sample_many", "traces.gen"),
    ("rborch.sim", "extend_cyclically", "traces.gen"),
    ("rborch.cli", "sample_many", "traces.gen"),
    ("rborch.cli", "extend_cyclically", "traces.gen"),
    ("rborch.config", "load_arrival_trace", "traces.load"),
    ("rborch.config", "load_channel_trace", "traces.load"),
    ("rborch.near_rt", "build_capacity_samples", "capacity"),
    ("rborch.cli", "build_capacity_samples", "capacity"),
    ("rborch.near_rt", "delay_bound", "martingale"),
    ("rborch.cli", "delay_bound", "martingale"),
    ("rborch.near_rt", "empirical_pmf", "utilization"),
    ("rborch.near_rt", "fit_gmm_em", "utilization"),
    ("rborch.near_rt", "region_probabilities", "utilization"),
    ("rborch.sim", "allocate", "near_rt"),
    ("rborch.sim", "qldr_allocate", "sim.qldr"),
    ("rborch.sim", "schedule_tti", "rt.schedule"),
    ("rborch.rt", "drain_queue", "rt.drain"),
    ("rborch.sim", "fsm_step", "rt.fsm"),
    ("rborch.sim", "mitigate", "rt.mitigate"),
    ("rborch.sim", "ccdf", "sim.ccdf"),
    ("rborch.cli", "measure_fifo_delays", "sim.fifo"),
    ("rborch.cli", "run", "sim.loop"),
    ("rborch.cli", "load_config", "config.load"),
)

# Spans the benchmark opens around its own calls.
BENCH_LAYERS = {
    "bench.cli": "cli",
    "bench.decide": "near_rt",
    "bench.heuristic": "near_rt",
    "bench.oracle": "near_rt",
    "bench.fifo": "sim.fifo",
    "bench.window": "bench",
    "bench.check": "bench",
}

DECISION_SPANS = ("rborch.sim.allocate", "bench.decide", "bench.heuristic")


class _FallbackCounter(logging.Handler):
    """Counts the capacity module's degraded-window records."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "scaled fallback" in str(record.msg):
            self.count += 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_of: dict[str, str] = dict(BENCH_LAYERS)
        self.name = array("i")
        self.enter = array("d")  # wrapper entered
        self.start = array("d")  # wrapped function called
        self.end = array("d")  # wrapped function returned
        self.leave = array("d")  # wrapper left
        self.parent = array("i")
        self.run = array("i")
        self.call_cost = 0.0  # caller-side cost of a wrapped call outside [enter, leave]
        self._stack: list[int] = []
        self.run_id = -1
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._installed: list[tuple] = []
        self._fallbacks = _FallbackCounter()
        self._cap_logger = None
        self._cap_level = None

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.leave.append(0.0)
        self._stack.append(idx)
        t = time.perf_counter()
        self.enter.append(t)
        self.start.append(t)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.leave[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ---------------------------------------------------------------- hooks

    def install(self) -> None:
        self.call_cost = self._calibrate()
        for mod_name, attr, layer in HOOKS:
            span = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(span)
                continue
            target = getattr(module, attr, None)
            if not callable(target):
                self.missing.append(span)
                continue
            self.layer_of[span] = layer
            setattr(module, attr, self._wrap(span, target, _ON_RESULT.get(span)))
            self._installed.append((module, attr, target))
        self._cap_logger = logging.getLogger("rborch.capacity")
        self._cap_level = self._cap_logger.level
        self._cap_logger.setLevel(logging.INFO)
        self._cap_logger.addHandler(self._fallbacks)

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._installed):
            setattr(module, attr, target)
        self._installed.clear()
        if self._cap_logger is not None:
            self._cap_logger.removeHandler(self._fallbacks)
            self._cap_logger.setLevel(self._cap_level)
            self._cap_logger = None

    def _wrap(self, span: str, fn, on_result):
        nid = self._name_id(span)
        stack = self._stack
        name, parent, run = self.name, self.parent, self.run
        enter, start, end, leave = self.enter, self.start, self.end, self.leave
        clock = time.perf_counter
        tracer = self

        # open()/close() inlined: this runs on every hooked call, several per TTI
        def wrapper(*args, **kwargs):
            t = clock()
            idx = len(start)
            enter.append(t)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(tracer.run_id)
            end.append(0.0)
            leave.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = clock()
                stack.pop()
                end[idx] = leave[idx] = t
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
                leave[idx] = clock()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _calibrate(self, calls: int = 20000, repeats: int = 7) -> float:
        """Seconds a caller spends on one wrapped call outside [enter, leave]:
        the call into the wrapper and the return from it.  Median of
        `repeats` timings of a wrapped no-op against an empty loop."""

        def noop():
            return None

        wrapped = self._wrap("trace.calibrate", noop, None)
        mark = len(self.start)
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            inside = float((np.array(self.leave[mark:]) - np.array(self.enter[mark:])).sum())
            costs.append(((t2 - t1) - (t1 - t0) - inside) / calls)
            for col in (self.name, self.enter, self.start, self.end, self.leave, self.parent, self.run):
                del col[mark:]
        return max(0.0, sorted(costs)[repeats // 2])

    # --------------------------------------------------------------- output

    def arrays(self) -> dict:
        """Copies of the span columns."""
        cols = {"name": self.name, "parent": self.parent, "run": self.run}
        out = {key: np.array(col, dtype=np.int32) for key, col in cols.items()}
        for key in ("enter", "start", "end", "leave"):
            out[key] = np.array(getattr(self, key), dtype=np.float64)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), call_cost=self.call_cost, **self.arrays())

    def _times(self, cols: dict):
        """Per span: duration without any tracer work below it, self time,
        and the tracer's own time the span accounts for."""
        parent = cols["parent"]
        n = len(parent)
        has_parent = parent >= 0
        inner = cols["end"] - cols["start"]
        # a caller sees a hooked call take [enter, leave] plus the calibrated call cost
        seen = cols["leave"] - cols["enter"] + np.where(has_parent, self.call_cost, 0.0)
        overhead = seen - inner
        child_seen = np.bincount(parent[has_parent], weights=seen[has_parent], minlength=n)
        self_t = inner - child_seen
        # tracer time anywhere below each span, summed bottom-up by depth
        depth = np.zeros(n, dtype=np.int32)
        up = parent.copy()
        while (live := up >= 0).any():
            depth[live] += 1
            up[live] = parent[up[live]]
        below = np.zeros(n)
        for d in range(int(depth.max()) if n else 0, 0, -1):
            sel = depth == d
            below += np.bincount(parent[sel], weights=overhead[sel] + below[sel], minlength=n)
        return inner - below, self_t, overhead

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer busy and self times, call counts and latency percentiles."""
        cols = self.arrays()
        name, parent = cols["name"], cols["parent"]
        dur, self_t, overhead = self._times(cols)
        n = len(dur)

        def ids(spans):
            return [self._name_ids[s] for s in spans if s in self._name_ids]

        def mask(spans):
            return np.isin(name, ids(spans)) if n else np.zeros(0, dtype=bool)

        spans_of: dict[str, list[str]] = {}
        for span, layer in self.layer_of.items():
            spans_of.setdefault(layer, []).append(span)

        def busy(layer):
            return float(dur[mask(spans_of.get(layer, []))].sum())

        def self_s(layer):
            return float(self_t[mask(spans_of.get(layer, []))].sum())

        def calls(layer):
            return int(mask(spans_of.get(layer, [])).sum())

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        decisions = dur[mask(DECISION_SPANS)] * 1e3
        schedules = dur[mask(["rborch.sim.schedule_tti"])] * 1e6
        # capacity builds made directly by a decision are the allocator's cache misses
        decision_ids = ids(DECISION_SPANS)
        cap = mask(["rborch.near_rt.build_capacity_samples"])
        candidates = 0
        if n and cap.any():
            par = parent[cap]
            candidates = int(np.isin(name[par[par >= 0]], decision_ids).sum())
        evals_x_services = self.counts.get("near_rt.evaluations_x_services", 0)
        c = self.counts
        out = {
            "traces.gen_s": busy("traces.gen"),
            "traces.load_s": busy("traces.load"),
            "capacity.calls": calls("capacity"),
            "capacity.busy_s": busy("capacity"),
            "capacity.rb_entries": c.get("capacity.rb_entries", 0),
            "capacity.degraded": self._fallbacks.count,
            "martingale.calls": calls("martingale"),
            "martingale.busy_s": busy("martingale"),
            "martingale.infeasible": c.get("martingale.infeasible", 0),
            "martingale.capped": c.get("martingale.capped", 0),
            "utilization.calls": calls("utilization"),
            "utilization.busy_s": busy("utilization"),
            "utilization.em_iters": c.get("utilization.em_iters", 0),
            "near_rt.decisions": len(decisions),
            "near_rt.self_s": self_s("near_rt"),
            "near_rt.decision_ms.p50": pct(decisions, 50),
            "near_rt.decision_ms.p99": pct(decisions, 99),
            "near_rt.candidates": candidates,
            "near_rt.iterations": c.get("near_rt.iterations", 0),
            "near_rt.cache_hit_ratio": (1.0 - candidates / evals_x_services) if evals_x_services else 0.0,
            "near_rt.oracle_compositions": c.get("near_rt.oracle_compositions", 0),
            "rt.schedule.calls": calls("rt.schedule"),
            "rt.schedule.self_s": self_s("rt.schedule"),
            "rt.schedule_us.p50": pct(schedules, 50),
            "rt.schedule_us.p99": pct(schedules, 99),
            "rt.drain.calls": calls("rt.drain"),
            "rt.drain.busy_s": busy("rt.drain"),
            "rt.fsm.calls": calls("rt.fsm"),
            "rt.fsm.busy_s": busy("rt.fsm"),
            "rt.fsm.stressed": c.get("rt.fsm.stressed", 0),
            "rt.mitigate.calls": calls("rt.mitigate"),
            "rt.mitigate.busy_s": busy("rt.mitigate"),
            "rt.mitigate.rbs_moved": c.get("rt.mitigate.rbs_moved", 0),
            "rt.rbs_granted": c.get("rt.rbs_granted", 0),
            "rt.packets_completed": c.get("rt.packets_completed", 0),
            "sim.run_s": busy("sim.loop"),
            "sim.loop_self_s": self_s("sim.loop"),
            "sim.qldr.calls": calls("sim.qldr"),
            "sim.fifo.busy_s": busy("sim.fifo"),
            "sim.fifo.ttis": c.get("sim.fifo.ttis", 0),
            "sim.ccdf.busy_s": busy("sim.ccdf"),
            "config.load_s": self_s("config.load"),
            "cli.self_s": self_s("cli"),
            "bench.self_s": self_s("bench"),
        }
        out["trace.self_s"] = float(overhead.sum())
        # Every layer is disjoint in self time; with the tracer's own time they
        # should cover the traced wall time up to the benchmark's loop overhead.
        layers = set(self.layer_of.values())
        covered = sum(self_s(layer) for layer in layers) + out["trace.self_s"]
        out["trace.accounted"] = covered / wall_s if wall_s > 0 else 0.0
        run_s = out["sim.run_s"]
        near = (
            self_s("near_rt") + busy("capacity") + busy("martingale") + busy("utilization") + busy("sim.qldr")
        )
        rt_loop = (
            out["rt.schedule.self_s"] + out["rt.drain.busy_s"] + out["rt.fsm.busy_s"]
            + out["rt.mitigate.busy_s"] + out["sim.loop_self_s"]
        )
        out["share.near_rt"] = near / run_s if run_s else 0.0
        out["share.capacity_martingale"] = (busy("capacity") + busy("martingale")) / run_s if run_s else 0.0
        out["share.rt_loop"] = rt_loop / run_s if run_s else 0.0
        return out


# ----------------------------------------------------- result inspectors

def _capacity(tr, args, kwargs, result):
    tr.add("capacity.rb_entries", len(args[0]))


def _delay_bound(tr, args, kwargs, result):
    theta = getattr(result, "theta_star", 0.0)
    if theta is None:
        tr.add("martingale.infeasible", 1)
        return
    params = args[5] if len(args) > 5 else kwargs.get("params")
    if params is None:
        from rborch.martingale import ThetaSearchParams

        params = ThetaSearchParams()
    if theta == params.theta_cap:
        tr.add("martingale.capped", 1)


def _gmm(tr, args, kwargs, result):
    tr.add("utilization.em_iters", len(getattr(result, "log_likelihoods", ())))


def _allocate(tr, args, kwargs, result):
    evals = getattr(result, "evaluations", 0)
    tr.add("near_rt.iterations", evals)
    tr.add("near_rt.evaluations_x_services", evals * len(args[0]))


def _schedule(tr, args, kwargs, result):
    rbs_used, completed = result
    tr.add("rt.rbs_granted", sum(rbs_used))
    tr.add("rt.packets_completed", len(completed))


def _fsm(tr, args, kwargs, result):
    if getattr(result, "state", "A") != "A":
        tr.add("rt.fsm.stressed", 1)


def _mitigate(tr, args, kwargs, result):
    tr.add("rt.mitigate.rbs_moved", sum(max(0, new - old) for new, old in zip(result, args[0])))


def _fifo(tr, args, kwargs, result):
    tr.add("sim.fifo.ttis", len(args[0]))


_ON_RESULT = {
    "rborch.near_rt.build_capacity_samples": _capacity,
    "rborch.cli.build_capacity_samples": _capacity,
    "rborch.near_rt.delay_bound": _delay_bound,
    "rborch.cli.delay_bound": _delay_bound,
    "rborch.near_rt.fit_gmm_em": _gmm,
    "rborch.sim.allocate": _allocate,
    "rborch.sim.schedule_tti": _schedule,
    "rborch.sim.fsm_step": _fsm,
    "rborch.sim.mitigate": _mitigate,
    "rborch.cli.measure_fifo_delays": _fifo,
}
