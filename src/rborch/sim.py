"""Discrete-time single-cell simulation wiring traffic, channel and both
control loops, with baseline schedulers and per-packet delay accounting.

Time advances in TTIs.  A packet arrives at the start of a TTI and, when its
last bit is sent, completes at the end of that TTI, so the minimum delay is
one slot.  The first t_obs TTIs warm the observation windows under a static
equal split and are excluded from the reported metrics.

Each service's traffic is one packet table (arrival TTI and size of every
packet, FIFO order) drawn for the whole horizon and held once, as the
cumulative bits of an `rt.PacketQueue`, together with the service's channel,
its bits per RB in every TTI, which every serving call reads from the queue.
Serving a TTI writes the queue's two logs, cumulative bits sent and RBs used,
and everything else is read from them: the near-RT window's packets and RB
counts, the extra-RB usage and the QLDR queue bits, the utilization, and the
delays.  Warm-up is served in one Lindley pass over each queue.

After it `run` walks served ranges, not TTIs: each pass handles the event due
at its first TTI t (a near-RT decision every t_out TTIs, or a QLDR update
every qldr_window), serves the one range that starts at t, writes its debug
rows and invariant checks in one record step, and moves t to the range's end.
ref3, which neither shares nor mitigates, leaves its services decoupled, so
its range is the period up to the next decision, in one Lindley pass.  A TTI
that starts with every queue empty, and whose arrivals fit in the cell (sum
over services of ceil(a / c) <= n_cell), sends every bit that arrived in it
in ceil(a / c) RBs per service, whatever the guarantees, the mitigation and
the EDF order, and leaves a state-A FSM idle.  So for a controller that
shares (marea, ref1, ref4), a TTI whose queues are empty and, for marea,
whose FSM records are all idle starts a clear-cell stretch up to the first
TTI that does not fit or the next event.  With q_lower == 0 a record can stay
in C over an empty queue; then marea steps.  Any other range is one stepped
TTI: FSM, mitigation, then `schedule_tti`.  QLDR (ref2) steps although its
services are decoupled between updates: bulk windows of 10 TTIs would be
about 3x slower (about 19 us per queue, against 1.7 us per stepped TTI of
three queues).  The controller kinds are rows of `ControllerStrategy` data.

Delays are scored by one completion-and-delay step, `_complete`, shared by
`run`'s end-of-run scoring and `measure_fifo_delays`; their docstrings and
`rt.lindley_sent`'s give the closed form, Lindley's points and the memory
each holds.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .martingale import ArrivalSampleSet
from .capacity import ConcatPerRbVector
from .near_rt import AllocatorConfig, ServiceSpec, ServiceWindow, allocate
from .rt import (
    IDLE,
    _NEVER,
    FsmRecord,
    PacketQueue,
    RtThresholds,
    _from_start,
    check_slot,
    clearing_rbs,
    completion_ttis,
    fsm_step,
    lindley_sent,
    mitigate,
    packet_rbs,
    schedule_tti,
    serve_cleared,
    serve_guaranteed,
    slot_count,
    whole_numbers,
)
from .traces import ArrivalTrace, ChannelTrace, SyntheticModel, extend_cyclically, sample_many

log = logging.getLogger(__name__)

CCDF_GRID = tuple((5 * i - 100) / 100.0 for i in range(81))
# TTIs per block of measure_fifo_delays and packets per block of run's delay
# scoring: 256 KiB per int64 temporary, so a block's passes stay in cache
_FIFO_BLOCK = 1 << 15


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


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, checked when it is made; derive a variant with `dataclasses.replace`."""

    n_cell: int
    horizon: int
    services: tuple[ServiceSpec, ...]
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

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        if self.n_cell < 1:
            raise ValueError("n_cell must be positive")
        if not self.services:
            raise ValueError("at least one service required")
        if self.n_cell < len(self.services):
            raise ValueError("n_cell must be at least the number of services")
        check_slot(self.t_slot_ms)
        if self.t_obs < 1 or self.t_out < 1:
            raise ValueError("t_obs and t_out must be positive")
        if self.horizon < self.t_obs + self.t_out:
            raise ValueError("horizon must cover at least t_obs + t_out TTIs")
        controller_for(self.controller)
        AllocatorConfig(self.t_slot_ms, self.estimator, self.gmm_components)  # checks estimator, gmm_components
        if self.qldr_window < 1:
            raise ValueError("qldr_window must be positive")
        ids = [s.id for s in self.services]
        if len(set(ids)) != len(ids):
            raise ValueError("service ids must be unique")
        for s in self.services:
            if not isinstance(s.arrival, (SyntheticModel, ArrivalTrace)):
                raise ValueError(f"service {s.id}: arrival source must be a SyntheticModel or ArrivalTrace")
            if not isinstance(s.channel, (SyntheticModel, ChannelTrace)):
                raise ValueError(f"service {s.id}: channel source must be a SyntheticModel or ChannelTrace")
            if isinstance(s.channel, SyntheticModel) and s.channel.min_value <= 0:
                raise ValueError(f"service {s.id}: channel support must be positive")
            # a queue is offered at most n_cell x top bits per TTI; kept below 2^62 over the
            # horizon, no int64 column of the RT loop can wrap
            top = max(s.channel.values) if isinstance(s.channel, SyntheticModel) else int(s.channel.bits_per_rb.max())
            if self.n_cell * top * self.horizon >= _NEVER:
                raise ValueError(f"service {s.id}: n_cell x largest bits per RB x horizon must be below 2^62")
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
    rel = np.subtract(arr, w_th_ms)
    rel /= w_th_ms
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

    One packet per non-empty TTI; both inputs hold whole, non-negative bits,
    one entry per TTI, in 1-d arrays of one length, and each sums to less
    than 2^62 bits, and the slot length is finite and positive (anything
    else raises ValueError).  Returns (delays_ms of completed packets,
    arrival TTIs of packets still pending).  The stream is walked in blocks
    of _FIFO_BLOCK TTIs, each through one Lindley pass (`rt.lindley_sent`)
    started from the bits arrived and sent before it, and `_complete`.  A
    block whose every TTI offers the same bits s > 0 is passed only at its
    points, the TTI before each of its packets and its last TTI, and
    completes its packets in closed form; any other block is passed over
    every TTI and searched.  Besides its inputs a call holds one float64 per
    packet, the arrival TTI and cumulative end of each packet still queued,
    and block-sized temporaries, so multi-million-TTI measurement runs stay
    cheap.
    """
    check_slot(t_slot_ms)
    a_in, s_in = np.asarray(arr_bits), np.asarray(svc_bits)
    if a_in.ndim != 1 or a_in.shape != s_in.shape:
        raise ValueError(f"arrival and service bits must be 1-d and align per TTI, got {a_in.shape} and {s_in.shape}")
    delays = np.empty(np.count_nonzero(a_in), dtype=np.float64)
    queued: list = []
    k = arrived = sent = offered = 0
    for t0 in range(0, len(a_in), _FIFO_BLOCK):
        a = whole_numbers(a_in[t0 : t0 + _FIFO_BLOCK], "arrival bits")
        s = whole_numbers(s_in[t0 : t0 + _FIFO_BLOCK], "service bits")
        # read as unsigned, a negative entry is the largest, so one pass checks the sign and finds the largest
        a_max, s_max = int(a.view(np.uint64).max()), int(s.view(np.uint64).max())
        if (a_max | s_max) >> 63:
            raise ValueError(f"arrival and service bits must be non-negative, not so in TTIs [{t0}, {t0 + len(a)})")
        rate = _block_rate(s, s_max)
        # the bits offered and arrived, counted exactly, must stay below 2^62
        offered += len(s) * rate if rate else _bits_in(s, s_max)
        if offered >= _NEVER or (arrived + len(a) * a_max >= _NEVER and arrived + _bits_in(a, a_max) >= _NEVER):
            raise ValueError(f"arrival and service bits must each sum to less than 2^62, not so by TTI {t0 + len(a)}")
        new = (a > 0).nonzero()[0]  # faster than on the int64 bits themselves
        if rate:
            # Lindley's points: the TTI before each packet (t0 - 1, the block's
            # start, for one at t0) and the block's last TTI.  Their bits
            # arrived, offered and sent share one buffer sized by the block, not
            # its packet count, so it fits where an earlier block's was freed
            # (buffers of varying size raised the peak RSS of repeated 2M-TTI
            # calls by about 8 MB)
            a_cum, offered_by, sent_block = np.empty((3, len(a) + 1), dtype=np.int64)[:, : len(new) + 1]
            a_cum[0] = arrived
            np.cumsum(a[new], out=a_cum[1:])
            a_cum[1:] += arrived
            ends = a_cum[1:]
            offered_by[:-1] = new
            offered_by[-1] = len(a)
            offered_by *= rate
            lindley_sent(a_cum, offered_by, sent, out=sent_block)
        else:
            a_cum = np.cumsum(a)
            a_cum += arrived
            ends = a_cum[new]
            sent_block = lindley_sent(a_cum, np.cumsum(s), sent)
        if len(new):
            queued.append((new + t0, ends))
        k = _complete(queued, sent_block, t0, delays, k, t_slot_ms, rate, sent)
        arrived, sent = int(a_cum[-1]), int(sent_block[-1])
    pending = np.concatenate([arr for arr, _ in queued]) if queued else np.zeros(0, dtype=np.intp)
    return delays[:k], pending


def _bits_in(x: np.ndarray, top: int) -> int:
    """Exact sum of a block of non-negative int64 bits whose largest entry is `top`."""
    return int(x.sum()) if len(x) * top < _NEVER else sum(x.tolist())


def _block_rate(s: np.ndarray, s_max: int) -> int:
    """The bits every TTI of a block of service bits offers, or 0 when they
    differ (its ends tell most such blocks); `s_max` is its largest entry."""
    return s_max if s[0] == s_max == s[-1] and s.min() == s_max else 0


def _complete(
    queued: list, sent: np.ndarray, t0: int, out: np.ndarray, k: int, t_slot_ms: float, rate: int = 0, sent0: int = 0
) -> int:
    """Complete FIFO packets from the front of `queued` within a block of TTIs
    from t0 on, whose bits sent by its end are sent[-1].

    `queued` lists the packets not yet completed, in FIFO order, as chunks of
    (arrival TTIs, cumulative ends).  The packets that complete leave it, and
    their delays in ms are written to out[k], out[k + 1], ...  Returns the
    index of out after the last delay written.  A packet completes in the
    first TTI whose sent bits reach its end E.  With `rate` 0, `sent` holds
    the cumulative bits sent by the end of every TTI of the block, and that
    TTI is found by searching it.  With `rate` > 0 every TTI of the block
    offers `rate` bits, `sent0` bits were sent before t0, and `sent` holds
    Lindley's points of the block (`measure_fifo_delays`): the bits sent
    before each of its packets arrived, then by its end.  A packet queued
    from TTI b = max(arrival, t0) on is sent `rate` bits in every TTI until E
    is, so it completes at TTI b - 1 + ceil((E - bits sent before b) / rate),
    with the bits sent before b read from `sent` for the block's packets and
    `sent0` for those carried into it.
    """
    for i, (arr, ends) in enumerate(queued):
        if rate:
            j = int(ends.searchsorted(sent[-1], side="right"))
            # a chunk holds either packets carried into the block or the block's own
            carried = arr[0] < t0
            done = np.subtract(ends[:j], sent0 if carried else sent[:j])
            # the slots waited are the TTIs from b to completion, plus b - arrival
            done += rate - 1
            done //= rate
            if carried:
                done += t0
                done -= arr[:j]
        else:
            done = completion_ttis(sent, ends)
            j = len(done)
            # a packet arriving at TTI a and completing at TTI t waited t - a + 1 slots
            done -= arr[:j]
            done += t0 + 1
        delays = out[k : k + j]
        delays[:] = done
        delays *= t_slot_ms
        k += j
        if j < len(ends):
            queued[i] = (arr[j:], ends[j:])
            del queued[:i]
            return k
    queued.clear()
    return k


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


def _source_rng(seed: int, domain: int, index: int) -> np.random.Generator:
    # the trailing 0 is part of the entropy: dropping it would change every draw
    return np.random.default_rng(np.random.SeedSequence([seed, domain, index, 0]))


def _gen_service_streams(cfg: ScenarioConfig, m: int):
    """Pre-draw the whole horizon for service m.

    Returns the columns of its `PacketQueue`: the packet table -- arrival TTI
    and size of every packet, in FIFO order -- and the per-TTI bits per RB.  A
    synthetic source gives one packet per non-empty TTI; a trace repeats its
    per-TTI packet counts and sizes (`ScenarioConfig` admits no other source).
    """
    spec = cfg.services[m]
    src = spec.arrival
    horizon = cfg.horizon
    if isinstance(src, SyntheticModel):
        bits = sample_many(src, _source_rng(cfg.seed, 0, m), horizon)
        t_arr = np.flatnonzero(bits)
        sizes = bits[t_arr]
    else:
        counts = np.bincount(src.arrival, minlength=src.length)
        t_arr = np.repeat(np.arange(horizon), extend_cyclically(counts, horizon, f"arrival trace {spec.id}"))
        sizes = np.resize(src.size, len(t_arr))

    if isinstance(spec.channel, SyntheticModel):
        rates = sample_many(spec.channel, _source_rng(cfg.seed, 1, m), horizon)
    else:
        rates = extend_cyclically(spec.channel.bits_per_rb, horizon, f"channel trace {spec.id}")

    anom = cfg.anomaly
    if anom is not None and anom.service_id == spec.id:
        hit = (t_arr >= anom.start_tti) & (t_arr < anom.end_tti)
        sizes[hit] = np.rint(sizes[hit] * anom.factor).astype(np.int64)
        t_arr, sizes = t_arr[sizes > 0], sizes[sizes > 0]
    return t_arr, sizes, rates


def run(cfg: ScenarioConfig) -> Metrics:
    """Execute one scenario: warm up, walk the served ranges, then score the delays."""
    if cfg.t_obs < cfg.t_out:
        log.warning("t_obs (%d) < t_out (%d); windows will be thin", cfg.t_obs, cfg.t_out)
    strat = controller_for(cfg.controller)
    m_count = len(cfg.services)
    horizon = cfg.horizon
    n_cell = cfg.n_cell
    t_slot = cfg.t_slot_ms
    warmup_end = cfg.t_obs

    queues = [PacketQueue(*_gen_service_streams(cfg, m)) for m in range(m_count)]

    q_t = [slot_count(s.w_th_ms, t_slot) for s in cfg.services]
    if strat.mitigates:
        thresholds = [RtThresholds.for_budget(s.w_th_ms, t_slot, cfg.eta, cfg.tau) for s in cfg.services]
    alloc_cfg = AllocatorConfig(t_slot_ms=t_slot, estimator=cfg.estimator, gmm_components=cfg.gmm_components)
    em_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))

    fsm = [IDLE] * m_count
    model = strat.guarantee == "model"
    qldr = strat.guarantee == "qldr"
    # a model-guarantee controller that neither shares nor mitigates serves each period in bulk
    shares, mitigates = strat.shares, strat.mitigates
    bulk_periods = model and not shares and not mitigates
    alloc_rows: list[tuple] = []
    debug_rows: list[tuple] = [] if cfg.debug_log else None
    t_out, qldr_window = cfg.t_out, cfg.qldr_window
    check = cfg.check_invariants
    w_th = [s.w_th_ms for s in cfg.services]
    sids = [s.id for s in cfg.services]

    def record(t0: int, t1: int, alloc: Sequence[int]) -> None:
        """Debug rows and invariant checks of the served TTIs [t0, t1)."""
        if debug_rows is not None:
            debug_rows.extend(_debug_rows(t0, t1, queues, alloc, fsm, sids))
        if check:
            if sum(alloc) != sum(baseline):
                raise AssertionError(f"mitigation broke conservation at tti {t0}")
            _check_invariants(t0, t1, queues, n_cell)

    # static equal split while warming up: no sharing, no mitigation
    baseline = [n_cell // m_count] * m_count
    for m, q in enumerate(queues):
        serve_guaranteed(q, 0, warmup_end, baseline[m])
    if debug_rows is not None or check:
        record(0, warmup_end, baseline)
    if strat.guarantee == "none":  # no guarantee after warm-up
        baseline = [0] * m_count
    if shares:
        # the TTIs whose arrivals do not fit in the cell; every other TTI that
        # starts with empty queues (and idle FSMs) is cleared, in the RBs that
        # clearing_rbs writes ahead of time and a stepped TTI overwrites
        need = sum(clearing_rbs(q, warmup_end) for q in queues)
        blocked = memoryview(np.append(np.flatnonzero(need > n_cell) + warmup_end, horizon))
        del need
    t, next_block, next_event, any_active = warmup_end, -1, horizon, False
    while t < horizon:
        since = t - warmup_end
        if model and since % t_out == 0:
            windows = [
                _service_window(q, t - cfg.t_obs, max(0, t - t_out), t, baseline[m]) for m, q in enumerate(queues)
            ]
            decision = allocate(cfg.services, windows, n_cell, alloc_cfg, em_rng)
            del windows  # frees the capacity prefixes built for this decision
            baseline = list(decision.n_min)
            rows = zip(sids, decision.n_min, decision.w_est)
            alloc_rows.extend((since // t_out, *row, decision.objective) for row in rows)
            next_event = min(t + t_out, horizon)
        elif qldr and since and since % qldr_window == 0:
            lo = t - qldr_window
            # mean queued bits and bits per RB over the last window, from exact whole-bit sums
            avg_q = [(sum(q.arrived[lo:t]) - sum(q.sent_log[lo:t])) / (t - lo) for q in queues]
            avg_c = [sum(q.rate[lo:t]) / (t - lo) for q in queues]
            baseline = qldr_allocate(avg_q, avg_c, w_th, n_cell)

        rt_alloc, end = baseline, t  # end stays t until a range is served
        if bulk_periods:
            end = next_event
            for m, q in enumerate(queues):
                serve_guaranteed(q, t, end, baseline[m])
        elif shares and not any_active:
            if next_block < t:
                next_block = blocked[bisect_left(blocked, t)]
            if next_block != t:
                for q in queues:
                    if q.sent != q.arrived[t - 1]:
                        break
                else:
                    # a clear cell, up to the next TTI that does not fit or the next event
                    end = min(next_block, next_event)
                    for q in queues:
                        serve_cleared(q, t, end)
        if end == t:  # one stepped TTI
            end = t + 1
            if mitigates:
                any_active = False
                for m, q in enumerate(queues):
                    rec = fsm[m] = fsm_step(q.head_wait(t), fsm[m], thresholds[m])
                    if rec is not IDLE:
                        any_active = True
                if any_active:
                    rt_alloc = mitigate(baseline, fsm)
            schedule_tti(t, queues, rt_alloc, n_cell, q_t, shares)
        if debug_rows is not None or check:
            record(t, end, rt_alloc)
        t = end

    services_out = []
    for m, q in enumerate(queues):
        # packets arriving after warm-up are a suffix of the table (less its sentinel)
        arrival, ends = np.asarray(q.arrival)[:-1], np.asarray(q.ends)[:-1]
        first = int(np.searchsorted(arrival, warmup_end))
        blocks = range(first, len(arrival), _FIFO_BLOCK)
        chunks = [(arrival[p : p + _FIFO_BLOCK], ends[p : p + _FIFO_BLOCK]) for p in blocks]
        scored = np.empty(len(arrival) - first)
        k = _complete(chunks, np.asarray(q.sent_log), 0, scored, 0, t_slot)
        pending_viol = int(np.count_nonzero((horizon - arrival[first + k :]) * t_slot > w_th[m]))
        # pending packets already past their budget count as violations: they
        # are scored as infinite delays after the completed packets' delays
        scored[k : k + pending_viol] = np.inf
        darr, scored = scored[:k], scored[: k + pending_viol]
        total = len(scored)
        viol_prob = int(np.count_nonzero(scored > w_th[m])) / total if total else 0.0
        curve = ccdf(scored, w_th[m]) if total else []
        if len(darr):
            p50, p95, p99, p999 = np.percentile(darr, [50, 95, 99, 99.9])
            stats = (float(darr.mean()), float(p50), float(p95), float(p99), float(p999), float(darr.max()))
        else:
            stats = (math.nan,) * 6
        services_out.append(
            ServiceMetrics(sids[m], total, len(darr), pending_viol, viol_prob, *stats, curve, darr)
        )
    rbs_used_measured = sum(int(np.asarray(q.used_log)[warmup_end:].sum()) for q in queues)
    util = rbs_used_measured / (n_cell * (horizon - warmup_end))
    return Metrics(services_out, util, alloc_rows, debug_rows)


def _service_window(q: PacketQueue, lo: int, lo_extra: int, t: int, base: int) -> ServiceWindow:
    """Observation window of one service for a decision at TTI t, read from its
    logs: arrivals over [lo, t), the packets completed in [lo, t) with their
    RB counts, and the extra-RB usage over [lo_extra, t) above `base`."""
    # the packets completed in [lo, t) end after the bits sent by the end of
    # lo - 1, and at most at the bits sent by the end of t - 1
    i = bisect_right(q.ends, q.sent_log[lo - 1]) if lo else 0
    j = bisect_right(q.ends, q.sent_log[t - 1], i)
    if i < j:
        sizes = np.diff(_from_start(q.ends, i, j))
        per_rb = ConcatPerRbVector(sizes, packet_rbs(q, i, j, t))
    else:
        # no transmissions observed: fall back to raw channel rates
        rate_win = np.asarray(q.rate)[lo:t]
        per_rb = ConcatPerRbVector(rate_win, np.ones(len(rate_win), dtype=np.int64))
    arrivals = np.diff(_from_start(q.arrived, lo, t))
    extra = np.asarray(q.used_log)[lo_extra:t] - base
    return ServiceWindow(ArrivalSampleSet(arrivals), per_rb, np.maximum(extra, 0, out=extra))


def _debug_rows(
    t0: int, t1: int, queues: Sequence[PacketQueue], alloc: Sequence[int], records: Sequence[FsmRecord],
    sids: Sequence[int],
) -> list[tuple]:
    """Debug rows of the served TTIs [t0, t1) under one allocation and FSM record
    per service: the RBs used, queued bits and head wait follow from the logs."""
    ttis = np.arange(t0, t1)
    columns = []
    for m, q in enumerate(queues):
        sent = np.asarray(q.sent_log)[t0:t1]
        head_arrival = np.asarray(q.arrival)[np.searchsorted(np.asarray(q.ends), sent, side="right")]
        wait = np.where(head_arrival <= ttis, ttis - head_arrival, 0)
        queued = np.asarray(q.arrived)[t0:t1] - sent
        fixed = itertools.repeat((sids[m], records[m].state, records[m].n_req, alloc[m]))
        used = np.asarray(q.used_log)[t0:t1]
        columns.append(zip(ttis.tolist(), fixed, used.tolist(), queued.tolist(), wait.tolist()))
    return [(t, *same, used, bits, wait) for rows in zip(*columns) for t, same, used, bits, wait in rows]


def _check_invariants(t0: int, t1: int, queues: Sequence[PacketQueue], n_cell: int) -> None:
    """RB ledger and flow conservation over the served TTIs [t0, t1)."""
    used = np.array([np.asarray(q.used_log)[t0:t1] for q in queues])
    total = used.sum(axis=0)
    if total.max() > n_cell:
        t = t0 + int(total.argmax())
        raise AssertionError(f"RB ledger violated at tti {t}: {int(total.max())} > {n_cell}")
    for m, q in enumerate(queues):
        sent = np.asarray(q.sent_log)[t0:t1]
        step = np.diff(_from_start(q.sent_log, t0, t1))
        # the bits sent never fall, fit in the RBs used and never run ahead of
        # the bits arrived; the head is the first packet not wholly sent
        if (
            (step < 0).any()
            or (step > used[m] * np.asarray(q.rate)[t0:t1]).any()
            or (sent > np.asarray(q.arrived)[t0:t1]).any()
            or q.sent != sent[-1]
            or q.head != bisect_right(q.ends, q.sent)
        ):
            raise AssertionError(f"flow conservation violated in ttis [{t0}, {t1}) service {m}")
