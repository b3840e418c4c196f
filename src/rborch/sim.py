"""Discrete-time single-cell simulation wiring traffic, channel and both
control loops, with baseline schedulers and per-packet delay accounting.

Time advances in TTIs.  A packet arrives at the start of a TTI and, when its
last bit is sent, completes at the end of that TTI, so the minimum delay is
one slot.  The first t_obs TTIs warm the observation windows under a static
equal split and are excluded from the reported metrics.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .martingale import ArrivalSampleSet, ThetaSearchParams
from .capacity import ConcatPerRbVector
from .near_rt import AllocatorConfig, GuaranteedAllocation, ServiceSpec, ServiceWindow, allocate
from .rt import FsmRecord, RtThresholds, STATE_A, fsm_step, mitigate, schedule_tti, slot_count
from .traces import ArrivalTrace, ChannelTrace, SyntheticModel, extend_cyclically, sample_many

log = logging.getLogger(__name__)

CONTROLLER_KINDS = ("marea", "ref1", "ref2", "ref3", "ref4")

CCDF_GRID = tuple((5 * i - 100) / 100.0 for i in range(81))


@dataclass(frozen=True)
class ControllerStrategy:
    """What a controller kind actually switches on."""

    kind: str
    uses_model: bool
    shares: bool
    mitigates: bool
    uses_qldr: bool


_STRATEGIES = {
    "marea": ControllerStrategy("marea", True, True, True, False),
    "ref1": ControllerStrategy("ref1", False, True, False, False),
    "ref2": ControllerStrategy("ref2", False, False, False, True),
    "ref3": ControllerStrategy("ref3", True, False, False, False),
    "ref4": ControllerStrategy("ref4", True, True, False, False),
}


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
            if s.w_th_ms < self.t_slot_ms:
                raise ValueError(f"service {s.id}: delay budget below one slot")
            slot_count(s.w_th_ms, self.t_slot_ms)  # the budget must be a whole number of slots
        if self.anomaly is not None and self.anomaly.service_id not in ids:
            raise ValueError("anomaly references an unknown service id")
        if self.controller == "marea":
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
    horizon: int
    measured_from: int
    debug_rows: Optional[list[tuple]] = None


def ccdf(delays_ms: Sequence[float], w_th_ms: float) -> list[tuple[float, float]]:
    """P[(w - W_th)/W_th > x] on the fixed grid x in {-1.0, -0.95, ..., 3.0}."""
    arr = np.asarray(delays_ms, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("ccdf needs at least one delay sample")
    if w_th_ms <= 0:
        raise ValueError("w_th_ms must be positive")
    rel = (arr - w_th_ms) / w_th_ms
    return [(x, float(np.mean(rel > x))) for x in CCDF_GRID]


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
    done = comp < len(dep)
    delays = (comp[done] - t_arr[done] + 1).astype(np.float64) * t_slot_ms
    return delays, t_arr[~done]


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
    """Pre-draw the whole horizon of arrivals and per-RB capacity for service m."""
    spec = cfg.services[m]
    if isinstance(spec.arrival, SyntheticModel):
        rng = _source_rng(cfg.seed, 0, m, spec.arrival.stream_id)
        bits = sample_many(spec.arrival, rng, cfg.horizon)
        pkts = None
    elif isinstance(spec.arrival, ArrivalTrace):
        bits = extend_cyclically(spec.arrival.bits_per_tti, cfg.horizon, f"arrival trace {spec.id}")
        pkts = None
        if spec.arrival.packet_sizes_per_tti is not None:
            pkts = [spec.arrival.packets_at(t) for t in range(cfg.horizon)]
    else:
        raise ValueError(f"service {spec.id}: unsupported arrival source {type(spec.arrival)}")

    if isinstance(spec.channel, SyntheticModel):
        if spec.channel.min_value <= 0:
            raise ValueError(f"service {spec.id}: channel support must be positive")
        rng = _source_rng(cfg.seed, 1, m, spec.channel.stream_id)
        rates = sample_many(spec.channel, rng, cfg.horizon)
    elif isinstance(spec.channel, ChannelTrace):
        rates = extend_cyclically(spec.channel.bits_per_rb, cfg.horizon, f"channel trace {spec.id}")
    else:
        raise ValueError(f"service {spec.id}: unsupported channel source {type(spec.channel)}")

    anom = cfg.anomaly
    if anom is not None and anom.service_id == spec.id:
        lo, hi = anom.start_tti, min(anom.end_tti, cfg.horizon)
        if pkts is None:
            bits = bits.copy()
            bits[lo:hi] = np.rint(bits[lo:hi] * anom.factor).astype(np.int64)
        else:
            for t in range(lo, hi):
                scaled = tuple(
                    int(v) for v in (int(round(p * anom.factor)) for p in pkts[t]) if v > 0
                )
                pkts[t] = scaled
                bits[t] = sum(scaled)
    return bits, pkts, rates


def run(cfg: ScenarioConfig) -> Metrics:
    """Execute one scenario and collect per-service delay metrics."""
    cfg.validate()
    strat = controller_for(cfg.controller)
    m_count = len(cfg.services)
    horizon = cfg.horizon
    n_cell = cfg.n_cell
    t_slot = cfg.t_slot_ms
    warmup_end = cfg.t_obs

    streams = [_gen_service_streams(cfg, m) for m in range(m_count)]
    bits_all = [s[0].tolist() for s in streams]
    pkts_all = [s[1] for s in streams]
    rates_np = [s[2] for s in streams]
    rates_all = [s[2].tolist() for s in streams]
    arrivals_np = [np.asarray(s[0], dtype=np.int64) for s in streams]

    q_t = [slot_count(s.w_th_ms, t_slot) for s in cfg.services]
    thresholds = None
    if strat.mitigates:
        thresholds = [
            RtThresholds.for_budget(s.w_th_ms, t_slot, cfg.eta, cfg.tau) for s in cfg.services
        ]

    alloc_cfg = AllocatorConfig(
        t_slot_ms=t_slot,
        estimator=cfg.estimator,
        gmm_components=cfg.gmm_components,
        theta=ThetaSearchParams(),
    )
    em_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))

    equal_split = [n_cell // m_count] * m_count
    baseline = list(equal_split)
    queues = [deque() for _ in range(m_count)]
    fsm = [FsmRecord() for _ in range(m_count)]
    tx_tti = [deque() for _ in range(m_count)]
    tx_bits = [deque() for _ in range(m_count)]
    tx_rbs = [deque() for _ in range(m_count)]
    extras = [deque(maxlen=cfg.t_out) for _ in range(m_count)]
    qldr_qbits = [deque(maxlen=cfg.qldr_window) for _ in range(m_count)]
    delays: list[list[float]] = [[] for _ in range(m_count)]
    arrived_cum = [0] * m_count
    sent_cum = [0] * m_count
    rbs_used_measured = 0
    alloc_rows: list[tuple] = []
    debug_rows: list[tuple] = [] if cfg.debug_log else None
    period = 0
    check = cfg.check_invariants
    last_completed_arrival = [-1] * m_count
    w_th = [s.w_th_ms for s in cfg.services]

    for t in range(horizon):
        for m in range(m_count):
            pk = pkts_all[m]
            if pk is None:
                b = bits_all[m][t]
                if b:
                    queues[m].append([t, b, b, 0.0])
                    arrived_cum[m] += b
            else:
                for size in pk[t]:
                    queues[m].append([t, size, size, 0.0])
                    arrived_cum[m] += size

        warm = t < warmup_end
        if not warm:
            if strat.uses_model and (t - cfg.t_obs) % cfg.t_out == 0:
                windows = []
                for m in range(m_count):
                    lo = t - cfg.t_obs
                    while tx_tti[m] and tx_tti[m][0] < lo:
                        tx_tti[m].popleft()
                        tx_bits[m].popleft()
                        tx_rbs[m].popleft()
                    if tx_bits[m]:
                        per_rb = ConcatPerRbVector(
                            np.fromiter(tx_bits[m], np.int64, len(tx_bits[m])),
                            np.fromiter(tx_rbs[m], np.int64, len(tx_rbs[m])),
                        )
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
            elif strat.uses_qldr and (t - warmup_end) % cfg.qldr_window == 0 and t > warmup_end:
                avg_q = [
                    (sum(qldr_qbits[m]) / len(qldr_qbits[m])) if qldr_qbits[m] else 0.0
                    for m in range(m_count)
                ]
                lo = max(0, t - cfg.qldr_window)
                avg_c = [float(np.mean(rates_np[m][lo:t])) for m in range(m_count)]
                baseline = qldr_allocate(avg_q, avg_c, w_th, n_cell)

        if warm:
            rt_alloc = baseline
            share = False
        elif strat.kind == "ref1":
            rt_alloc = [0] * m_count
            share = True
        else:
            rt_alloc = baseline
            share = strat.shares
            if strat.mitigates:
                any_active = False
                for m in range(m_count):
                    qm = queues[m]
                    q_wait = (t - qm[0][0]) if qm else 0
                    rec = fsm_step(q_wait, fsm[m], thresholds[m])
                    fsm[m] = rec
                    if rec.state != STATE_A:
                        any_active = True
                if any_active:
                    rt_alloc = mitigate(baseline, fsm)

        rates_t = [rates_all[m][t] for m in range(m_count)]
        rbs_used, completed = schedule_tti(t, queues, rt_alloc, rates_t, n_cell, q_t, share)

        measured = t >= warmup_end
        if measured:
            rbs_used_measured += sum(rbs_used)
        for m in range(m_count):
            extra = rbs_used[m] - baseline[m]
            extras[m].append(extra if extra > 0 else 0)
        for sid, arr_tti, size, n_pkt, comp_tti in completed:
            tx_tti[sid].append(comp_tti)
            tx_bits[sid].append(size)
            tx_rbs[sid].append(n_pkt)
            sent_cum[sid] += size
            if arr_tti >= warmup_end:
                delays[sid].append((comp_tti - arr_tti + 1) * t_slot)
        if strat.uses_qldr:
            for m in range(m_count):
                qldr_qbits[m].append(sum(p[2] for p in queues[m]))
        if debug_rows is not None:
            for m in range(m_count):
                qm = queues[m]
                debug_rows.append(
                    (
                        t,
                        cfg.services[m].id,
                        fsm[m].state,
                        fsm[m].n_req,
                        rt_alloc[m],
                        rbs_used[m],
                        sum(p[2] for p in qm),
                        (t - qm[0][0]) if qm else 0,
                    )
                )
        if check:
            total_used = sum(rbs_used)
            if total_used > n_cell:
                raise AssertionError(f"RB ledger violated at tti {t}: {total_used} > {n_cell}")
            if strat.mitigates and not warm and sum(rt_alloc) != sum(baseline):
                raise AssertionError(f"mitigation broke conservation at tti {t}")
            for sid, arr_tti, _size, _n_pkt, _comp in completed:
                if arr_tti < last_completed_arrival[sid]:
                    raise AssertionError(f"FIFO order violated at tti {t} service {sid}")
                last_completed_arrival[sid] = arr_tti
            for m in range(m_count):
                # arrived = completed sizes + full sizes of packets still queued
                in_flight = sum(p[1] for p in queues[m])
                if arrived_cum[m] != sent_cum[m] + in_flight:
                    raise AssertionError(f"flow conservation violated at tti {t} service {m}")

    services_out = []
    measured_ttis = horizon - warmup_end
    for m in range(m_count):
        darr = np.asarray(delays[m], dtype=np.float64)
        pending_viol = 0
        for p in queues[m]:
            if p[0] >= warmup_end and (horizon - p[0]) * t_slot > w_th[m]:
                pending_viol += 1
        total = len(darr) + pending_viol
        if total:
            viol = int(np.count_nonzero(darr > w_th[m])) + pending_viol
            viol_prob = viol / total
            with_pending = (
                np.concatenate([darr, np.full(pending_viol, np.inf)]) if pending_viol else darr
            )
            curve = ccdf(with_pending, w_th[m]) if len(with_pending) else []
        else:
            viol_prob = 0.0
            curve = []
        if len(darr):
            p50, p95, p99, p999 = np.percentile(darr, [50, 95, 99, 99.9])
            stats = (float(darr.mean()), float(p50), float(p95), float(p99), float(p999), float(darr.max()))
        else:
            stats = (math.nan,) * 6
        services_out.append(
            ServiceMetrics(
                cfg.services[m].id,
                total,
                len(darr),
                pending_viol,
                viol_prob,
                *stats,
                curve,
                darr,
            )
        )
    util = rbs_used_measured / (n_cell * measured_ttis) if measured_ttis else 0.0
    return Metrics(services_out, util, alloc_rows, horizon, warmup_end, debug_rows)
