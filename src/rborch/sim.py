"""Discrete-time single-cell simulation wiring traffic, channel and both
control loops, with baseline schedulers and per-packet delay accounting.

Time advances in TTIs.  A packet arrives at the start of a TTI and, when its
last bit is sent, completes at the end of that TTI, so the minimum delay is
one slot.  The first t_obs TTIs warm the observation windows under a static
equal split and are excluded from the reported metrics.

Each service's traffic is one packet table (arrival TTI and size of every
packet, FIFO order) drawn for the whole horizon and served through an
`rt.PacketQueue`, which queues a packet once its arrival TTI is reached.  The
bits queued at TTI t are derived, where they are read, as the bits arrived by
t less the bits the queue has sent.  The near-RT transmission window is a
slice of the queue's completion records, and delays come from the completion
TTIs at the end of the run through the same helper `measure_fifo_delays`
uses.  The controller kinds are rows of `ControllerStrategy` data.
"""

from __future__ import annotations

import itertools
import logging
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .martingale import ArrivalSampleSet
from .capacity import ConcatPerRbVector
from .near_rt import AllocatorConfig, ServiceSpec, ServiceWindow, allocate
from .rt import IDLE, PacketQueue, RtThresholds, fsm_step, mitigate, schedule_tti, slot_count
from .traces import ArrivalTrace, ChannelTrace, SyntheticModel, extend_cyclically, sample_many

log = logging.getLogger(__name__)

CCDF_GRID = tuple((5 * i - 100) / 100.0 for i in range(81))


@dataclass(frozen=True)
class ControllerStrategy:
    """What a controller kind actually switches on.

    guarantee: where the guaranteed RBs come from after warm-up -- "model"
    (near-RT allocator every t_out TTIs), "qldr" (queue-length proportional
    split every qldr_window TTIs) or "none" (zero guarantees).
    """

    kind: str
    guarantee: str
    shares: bool
    mitigates: bool


_STRATEGIES = {
    s.kind: s
    for s in (
        ControllerStrategy("marea", "model", shares=True, mitigates=True),
        ControllerStrategy("ref1", "none", shares=True, mitigates=False),
        ControllerStrategy("ref2", "qldr", shares=False, mitigates=False),
        ControllerStrategy("ref3", "model", shares=False, mitigates=False),
        ControllerStrategy("ref4", "model", shares=True, mitigates=False),
    )
}
CONTROLLER_KINDS = tuple(_STRATEGIES)


def controller_for(kind: str) -> ControllerStrategy:
    try:
        return _STRATEGIES[kind]
    except KeyError:
        raise ValueError(f"unknown controller {kind!r}; expected one of {CONTROLLER_KINDS}") from None


@dataclass(frozen=True)
class AnomalyConfig:
    """Scale one service's arrivals by `factor` over [start_tti, end_tti)."""

    service_id: int
    start_tti: int
    end_tti: int
    factor: float

    def __post_init__(self):
        if self.factor < 0:
            raise ValueError("anomaly factor must be non-negative")
        if not (0 <= self.start_tti < self.end_tti):
            raise ValueError("anomaly range must be non-empty and non-negative")


@dataclass
class ScenarioConfig:
    n_cell: int
    horizon: int
    services: list[ServiceSpec]
    controller: str = "marea"
    estimator: str = "empirical"
    t_slot_ms: float = 1.0
    t_obs: int = 4000
    t_out: int = 1000
    eta: float = 0.75
    tau: float = 0.3
    seed: int = 0
    gmm_components: int = 3
    qldr_window: int = 10
    anomaly: Optional[AnomalyConfig] = None
    debug_log: bool = False
    check_invariants: bool = False

    def validate(self) -> None:
        if self.n_cell < 1:
            raise ValueError("n_cell must be positive")
        if not self.services:
            raise ValueError("at least one service required")
        if self.n_cell < len(self.services):
            raise ValueError("n_cell must be at least the number of services")
        if self.t_slot_ms <= 0 or self.t_obs < 1 or self.t_out < 1:
            raise ValueError("t_slot_ms, t_obs and t_out must be positive")
        if self.horizon < self.t_obs + self.t_out:
            raise ValueError("horizon must cover at least t_obs + t_out TTIs")
        if self.t_obs < self.t_out:
            log.warning("t_obs (%d) < t_out (%d); windows will be thin", self.t_obs, self.t_out)
        controller_for(self.controller)
        if self.estimator not in ("empirical", "gmm"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.qldr_window < 1:
            raise ValueError("qldr_window must be positive")
        ids = [s.id for s in self.services]
        if len(set(ids)) != len(ids):
            raise ValueError("service ids must be unique")
        for s in self.services:
            if s.arrival is None or s.channel is None:
                raise ValueError(f"service {s.id} is missing a traffic or channel source")
            if isinstance(s.channel, SyntheticModel) and s.channel.min_value <= 0:
                raise ValueError(f"service {s.id}: channel support must be positive")
            if s.w_th_ms < self.t_slot_ms:
                raise ValueError(f"service {s.id}: delay budget below one slot")
            slot_count(s.w_th_ms, self.t_slot_ms)  # the budget must be a whole number of slots
        if self.anomaly is not None and self.anomaly.service_id not in ids:
            raise ValueError("anomaly references an unknown service id")
        if controller_for(self.controller).mitigates:
            for s in self.services:
                RtThresholds.for_budget(s.w_th_ms, self.t_slot_ms, self.eta, self.tau)


@dataclass
class ServiceMetrics:
    service_id: int
    packets: int
    completed: int
    pending_violations: int
    violation_prob: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    ccdf: list[tuple[float, float]]
    delays_ms: np.ndarray


@dataclass
class Metrics:
    services: list[ServiceMetrics]
    rb_utilization: float
    alloc_rows: list[tuple]
    debug_rows: Optional[list[tuple]] = None


def ccdf(delays_ms: Sequence[float], w_th_ms: float) -> list[tuple[float, float]]:
    """P[(w - W_th)/W_th > x] on the fixed grid x in {-1.0, -0.95, ..., 3.0}."""
    arr = np.asarray(delays_ms, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("ccdf needs at least one delay sample")
    if w_th_ms <= 0:
        raise ValueError("w_th_ms must be positive")
    rel = (arr - w_th_ms) / w_th_ms
    rel.sort()  # in place: a sorted copy would add to the run's peak memory
    if np.isnan(rel[-1]):  # NaN sorts last
        raise ValueError("ccdf delays must not be NaN")
    # the values above x follow the last one at most x; k / n is np.mean(rel > x) exactly
    n = len(rel)
    above = n - np.searchsorted(rel, CCDF_GRID, side="right")
    return [(x, k / n) for x, k in zip(CCDF_GRID, above.tolist())]


def qldr_allocate(
    avg_queue_bits: Sequence[float],
    avg_bits_per_rb: Sequence[float],
    w_th_ms: Sequence[float],
    n_cell: int,
) -> list[int]:
    """Proportional split by normalized queue pressure, largest remainder.

    score_m = (avg queue bits / avg bits per RB) / budget; an all-zero score
    vector falls back to an equal split.
    """
    m_count = len(avg_queue_bits)
    if not (m_count == len(avg_bits_per_rb) == len(w_th_ms)):
        raise ValueError("window stat lengths differ")
    scores = []
    for q, c, t in zip(avg_queue_bits, avg_bits_per_rb, w_th_ms):
        if c <= 0 or t <= 0:
            raise ValueError("rates and budgets must be positive")
        scores.append((q / c) / t)
    total = sum(scores)
    if total <= 0.0:
        scores = [1.0] * m_count
        total = float(m_count)
    shares = [n_cell * s / total for s in scores]
    base = [int(math.floor(sh)) for sh in shares]
    left = n_cell - sum(base)
    order = sorted(range(m_count), key=lambda m: (-(shares[m] - base[m]), m))
    for m in order[:left]:
        base[m] += 1
    return base


def measure_fifo_delays(arr_bits: np.ndarray, svc_bits: np.ndarray, t_slot_ms: float = 1.0):
    """Per-packet delays through one FIFO queue with per-TTI service capacity.

    One packet per non-empty TTI.  Vectorized via the reflected cumulative
    backlog, so multi-million-TTI measurement runs stay cheap.  Returns
    (delays_ms of completed packets, arrival TTIs of packets still pending).
    """
    a = np.asarray(arr_bits, dtype=np.int64)
    s = np.asarray(svc_bits, dtype=np.int64)
    if a.shape != s.shape:
        raise ValueError("arrival and service arrays must align per TTI")
    x = np.cumsum(a - s)
    backlog = x - np.minimum(np.minimum.accumulate(x), 0)
    a_cum = np.cumsum(a)
    dep = a_cum - backlog
    t_arr = np.nonzero(a > 0)[0]
    comp = np.searchsorted(dep, a_cum[t_arr], side="left")
    return _fifo_delays(t_arr, comp[: np.searchsorted(comp, len(dep))], t_slot_ms)


def _fifo_delays(t_arr: np.ndarray, t_done: np.ndarray, t_slot_ms: float):
    """(delays_ms, pending arrival TTIs) of FIFO packets arriving at t_arr,
    the first len(t_done) of which completed at the TTIs t_done."""
    k = len(t_done)
    return (t_done - t_arr[:k] + 1).astype(np.float64) * t_slot_ms, t_arr[k:]


def synthesize_window(
    arrival_model: SyntheticModel,
    channel_model: SyntheticModel,
    t_obs: int,
    rbs_per_tti: int,
    rng_arrival: np.random.Generator,
    rng_channel: np.random.Generator,
    extra_rb_usage: Optional[np.ndarray] = None,
) -> ServiceWindow:
    """Observation window drawn straight from synthetic sources.

    The capacity stream carries one entry per RB opportunity; with no RT
    history the extra-RB usage defaults to zero (all mass on the guarantee).
    """
    arrivals = ArrivalSampleSet(sample_many(arrival_model, rng_arrival, t_obs))
    if channel_model.min_value <= 0:
        raise ValueError("channel model support must be strictly positive")
    stream = sample_many(channel_model, rng_channel, t_obs * rbs_per_tti)
    per_rb = ConcatPerRbVector(stream, np.ones(len(stream), dtype=np.int64))
    usage = extra_rb_usage if extra_rb_usage is not None else np.zeros(1, dtype=np.int64)
    return ServiceWindow(arrivals, per_rb, usage)


def _source_rng(seed: int, domain: int, index: int, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, domain, index, stream_id]))


def _gen_service_streams(cfg: ScenarioConfig, m: int):
    """Pre-draw the whole horizon for service m.

    Returns its packet table -- arrival TTI and size of every packet, in FIFO
    order -- with the per-TTI arrival bits derived from it, and the per-TTI
    bits per RB.  Synthetic sources and bare traces give one packet per
    non-empty TTI; packet traces are flattened and extended cyclically.
    """
    spec = cfg.services[m]
    src = spec.arrival
    horizon = cfg.horizon
    what = f"arrival trace {spec.id}"
    if isinstance(src, ArrivalTrace) and src.packet_sizes_per_tti is not None:
        counts = np.array([len(p) for p in src.packet_sizes_per_tti], dtype=np.int64)
        t_arr = np.repeat(np.arange(horizon), extend_cyclically(counts, horizon, what))
        flat = np.fromiter(itertools.chain.from_iterable(src.packet_sizes_per_tti), np.int64)
        sizes = np.resize(flat, len(t_arr))
    else:
        if isinstance(src, SyntheticModel):
            bits = sample_many(src, _source_rng(cfg.seed, 0, m, src.stream_id), horizon)
        elif isinstance(src, ArrivalTrace):
            bits = extend_cyclically(src.bits_per_tti, horizon, what)
        else:
            raise ValueError(f"service {spec.id}: unsupported arrival source {type(src)}")
        t_arr = np.flatnonzero(bits)
        sizes = bits[t_arr]

    if isinstance(spec.channel, SyntheticModel):
        rng = _source_rng(cfg.seed, 1, m, spec.channel.stream_id)
        rates = sample_many(spec.channel, rng, horizon)
    elif isinstance(spec.channel, ChannelTrace):
        rates = extend_cyclically(spec.channel.bits_per_rb, horizon, f"channel trace {spec.id}")
    else:
        raise ValueError(f"service {spec.id}: unsupported channel source {type(spec.channel)}")

    anom = cfg.anomaly
    if anom is not None and anom.service_id == spec.id:
        hit = (t_arr >= anom.start_tti) & (t_arr < anom.end_tti)
        sizes[hit] = np.rint(sizes[hit] * anom.factor).astype(np.int64)
        t_arr, sizes = t_arr[sizes > 0], sizes[sizes > 0]
    bits = np.zeros(horizon, dtype=np.int64)
    np.add.at(bits, t_arr, sizes)
    return t_arr, sizes, bits, rates


def run(cfg: ScenarioConfig) -> Metrics:
    """Execute one scenario and collect per-service delay metrics."""
    cfg.validate()
    strat = controller_for(cfg.controller)
    m_count = len(cfg.services)
    horizon = cfg.horizon
    n_cell = cfg.n_cell
    t_slot = cfg.t_slot_ms
    warmup_end = cfg.t_obs

    t_arr_np, sizes_np, arrivals_np, rates_np = zip(*(_gen_service_streams(cfg, m) for m in range(m_count)))
    rates_all = [r.tolist() for r in rates_np]
    queues = [PacketQueue(a.tolist(), s.tolist()) for a, s in zip(t_arr_np, sizes_np)]

    q_t = [slot_count(s.w_th_ms, t_slot) for s in cfg.services]
    if strat.mitigates:
        thresholds = [RtThresholds.for_budget(s.w_th_ms, t_slot, cfg.eta, cfg.tau) for s in cfg.services]
    alloc_cfg = AllocatorConfig(t_slot_ms=t_slot, estimator=cfg.estimator, gmm_components=cfg.gmm_components)
    em_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))

    baseline = [n_cell // m_count] * m_count  # static equal split while warming up
    fsm = [IDLE] * m_count
    model = strat.guarantee == "model"
    extras = [deque(maxlen=cfg.t_out) for _ in range(m_count)]  # read by model guarantees only
    qldr = strat.guarantee == "qldr"
    if qldr:
        qldr_qbits = [deque(maxlen=cfg.qldr_window) for _ in range(m_count)]
        rate_sums = [np.concatenate(([0], np.cumsum(r))) for r in rates_np]
    rbs_used_measured = 0
    alloc_rows: list[tuple] = []
    debug_rows: list[tuple] = [] if cfg.debug_log else None
    period = 0
    check = cfg.check_invariants
    if qldr or debug_rows is not None or check:
        # bits arrived by the end of each TTI; less a queue's sent bits, the
        # bits it holds.  Built only for these readers: 8 bytes per TTI and service
        arrived = [array("q", np.cumsum(a).tobytes()) for a in arrivals_np]
    w_th = [s.w_th_ms for s in cfg.services]

    for t in range(horizon):
        warm = t < warmup_end
        since = t - warmup_end
        source = None if warm else strat.guarantee  # guarantees stay at the equal split while warm
        if source == "model" and since % cfg.t_out == 0:
            lo = t - cfg.t_obs
            windows = []
            for m, q in enumerate(queues):
                # packets completed in [lo, t): a FIFO prefix slice of the table
                i, j = bisect_left(q.done_tti, lo), len(q.done_tti)
                if i < j:
                    per_rb = ConcatPerRbVector(sizes_np[m][i:j], np.frombuffer(q.done_rbs[i:j], np.int64))
                else:
                    # no transmissions observed: fall back to raw channel rates
                    rate_win = rates_np[m][lo:t]
                    per_rb = ConcatPerRbVector(rate_win, np.ones(len(rate_win), dtype=np.int64))
                windows.append(
                    ServiceWindow(
                        ArrivalSampleSet(arrivals_np[m][lo:t]),
                        per_rb,
                        np.fromiter(extras[m], np.int64, len(extras[m])),
                    )
                )
            decision = allocate(cfg.services, windows, n_cell, alloc_cfg, em_rng)
            del windows  # frees the capacity prefixes built for this decision
            baseline = list(decision.n_min)
            for m in range(m_count):
                alloc_rows.append(
                    (period, cfg.services[m].id, decision.n_min[m], decision.w_est[m], decision.objective)
                )
            period += 1
        elif source == "qldr" and since and since % cfg.qldr_window == 0:
            avg_q = [
                (sum(qldr_qbits[m]) / len(qldr_qbits[m])) if qldr_qbits[m] else 0.0
                for m in range(m_count)
            ]
            lo = max(0, t - cfg.qldr_window)
            # whole-bit rates: the exact window sum over its length, as np.mean gives it
            avg_c = [int(rate_sums[m][t] - rate_sums[m][lo]) / (t - lo) for m in range(m_count)]
            baseline = qldr_allocate(avg_q, avg_c, w_th, n_cell)
        elif source == "none" and not since:
            baseline = [0] * m_count

        rt_alloc = baseline
        share = strat.shares and not warm
        if strat.mitigates and not warm:
            any_active = False
            for m in range(m_count):
                rec = fsm_step(queues[m].head_wait(t), fsm[m], thresholds[m])
                fsm[m] = rec
                if rec is not IDLE:
                    any_active = True
            if any_active:
                rt_alloc = mitigate(baseline, fsm)

        rates_t = [r[t] for r in rates_all]
        rbs_used, completed = schedule_tti(t, queues, rt_alloc, rates_t, n_cell, q_t, share)

        if not warm:
            rbs_used_measured += sum(rbs_used)
        if model:
            for e, used, base in zip(extras, rbs_used, baseline):
                e.append(used - base if used > base else 0)
        elif qldr:
            for m in range(m_count):
                qldr_qbits[m].append(arrived[m][t] - queues[m].sent_bits)
        if debug_rows is not None:
            for m, q in enumerate(queues):
                rec = fsm[m]
                debug_rows.append((
                    t, cfg.services[m].id, rec.state, rec.n_req, rt_alloc[m], rbs_used[m],
                    arrived[m][t] - q.sent_bits, q.head_wait(t),
                ))
        if check:
            if strat.mitigates and not warm and sum(rt_alloc) != sum(baseline):
                raise AssertionError(f"mitigation broke conservation at tti {t}")
            _check_invariants(t, queues, arrived, rbs_used, n_cell, completed)

    services_out = []
    measured_ttis = horizon - warmup_end
    for m, q in enumerate(queues):
        # packets arriving after warm-up are a suffix of the table
        first = int(np.searchsorted(t_arr_np[m], warmup_end))
        darr, pending = _fifo_delays(t_arr_np[m][first:], np.frombuffer(q.done_tti, np.int64)[first:], t_slot)
        pending_viol = int(np.count_nonzero((horizon - pending) * t_slot > w_th[m]))
        # pending packets already past their budget count as violations
        scored = np.concatenate([darr, np.full(pending_viol, np.inf)])
        total = len(scored)
        viol_prob = int(np.count_nonzero(scored > w_th[m])) / total if total else 0.0
        curve = ccdf(scored, w_th[m]) if total else []
        if len(darr):
            p50, p95, p99, p999 = np.percentile(darr, [50, 95, 99, 99.9])
            stats = (float(darr.mean()), float(p50), float(p95), float(p99), float(p999), float(darr.max()))
        else:
            stats = (math.nan,) * 6
        services_out.append(
            ServiceMetrics(cfg.services[m].id, total, len(darr), pending_viol, viol_prob, *stats, curve, darr)
        )
    util = rbs_used_measured / (n_cell * measured_ttis) if measured_ttis else 0.0
    return Metrics(services_out, util, alloc_rows, debug_rows)


def _check_invariants(
    t: int, queues: Sequence[PacketQueue], arrived, rbs_used, n_cell: int, completed
) -> None:
    """RB ledger, FIFO order and flow conservation after serving TTI t."""
    total_used = sum(rbs_used)
    if total_used > n_cell:
        raise AssertionError(f"RB ledger violated at tti {t}: {total_used} > {n_cell}")
    for sid, i in completed:
        done = queues[sid].done_tti
        # completion TTIs never precede the arrival and never decrease
        if done[i] < queues[sid].arrival[i] or (i and done[i] < done[i - 1]):
            raise AssertionError(f"FIFO order violated at tti {t} service {sid}")
    for m, q in enumerate(queues):
        # the completed packets are the table prefix before the head, and the
        # bits arrived less the bits sent are exactly the bits still owed on
        # the queued packets [head, tail)
        tail = bisect_right(q.arrival, t)
        owed = q.head_rem + sum(q.size[q.head + 1 : tail]) if q.head < tail else 0
        if len(q.done_tti) != q.head or arrived[m][t] - q.sent_bits != owed:
            raise AssertionError(f"flow conservation violated at tti {t} service {m}")
