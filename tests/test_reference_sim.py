"""A slow, literal per-TTI simulator diffed against `run()`.

The reference reads the model straight off its description: each queue is a
list of packets, the guaranteed phase and the deadline-sharing phase hand out
one RB at a time (no batching of head packets), and every packet's RB count
is the ceiling of its exact `Fraction` share of the RBs that carried it.  It
draws and scales its own arrivals (Python `round` for the anomaly) and shares
nothing with `run()` except the decision functions `fsm_step`, `mitigate`,
`allocate`, `qldr_allocate` and the capacity window type.
"""

import dataclasses
import math
from collections import deque
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rborch.capacity import ConcatPerRbVector
from rborch.martingale import ArrivalSampleSet
from rborch.near_rt import AllocatorConfig, ServiceSpec, ServiceWindow, allocate
from rborch import sim
from rborch.rt import STATE_A, STATE_C, FsmRecord, RtThresholds, fsm_step, mitigate
from rborch.sim import AnomalyConfig, ScenarioConfig, qldr_allocate, run
from rborch.traces import ArrivalTrace, ChannelTrace, SyntheticModel

GUARANTEE = {"marea": "model", "ref1": "none", "ref2": "qldr", "ref3": "model", "ref4": "model"}
SHARES = {"marea": True, "ref1": True, "ref2": False, "ref3": False, "ref4": True}


def draw(model, rng, size):
    if model.kind == "constant":
        return [model.values[0]] * size
    if model.kind == "uniform-integer":
        lo, hi = model.values
        return rng.integers(lo, hi + 1, size=size, dtype=np.int64).tolist()
    idx = rng.choice(len(model.values), size=size, p=model.probs)
    return [model.values[i] for i in idx]


def source_rng(seed, domain, index):
    return np.random.default_rng(np.random.SeedSequence([seed, domain, index, 0]))


def packets_per_tti(cfg, m):
    """Packet sizes arriving in each TTI, anomaly applied packet by packet."""
    spec = cfg.services[m]
    src = spec.arrival
    if isinstance(src, SyntheticModel):
        bits = draw(src, source_rng(cfg.seed, 0, m), cfg.horizon)
        per_tti = [[b] if b > 0 else [] for b in bits]
    else:
        table = [[] for _ in range(src.length)]
        for t, size in zip(src.arrival.tolist(), src.size.tolist()):
            table[t].append(size)
        per_tti = [list(table[t % src.length]) for t in range(cfg.horizon)]
    an = cfg.anomaly
    if an is not None and an.service_id == spec.id:
        for t in range(an.start_tti, min(an.end_tti, cfg.horizon)):
            per_tti[t] = [v for v in (round(p * an.factor) for p in per_tti[t]) if v > 0]
    return per_tti


def channel_rates(cfg, m):
    spec = cfg.services[m]
    src = spec.channel
    if isinstance(src, SyntheticModel):
        return draw(src, source_rng(cfg.seed, 1, m), cfg.horizon)
    n = len(src.bits_per_rb)
    return [int(src.bits_per_rb[t % n]) for t in range(cfg.horizon)]


class Packet:
    def __init__(self, arrival, size):
        self.arrival = arrival
        self.size = size
        self.rem = size
        self.share = Fraction(0)  # exact RBs' worth of bits sent so far


def send_one_rb(queue, c, t, done):
    """One RB of c bits into a FIFO queue; returns whether it carried any bit."""
    left = c
    used = False
    while queue and left:
        pkt = queue[0]
        take = min(left, pkt.rem)
        pkt.rem -= take
        pkt.share += Fraction(take, c)
        left -= take
        used = True
        if pkt.rem == 0:
            queue.pop(0)
            done.append((pkt, max(1, math.ceil(pkt.share)), t))
    return used


def reference_run(cfg):
    m_count = len(cfg.services)
    horizon, n_cell, t_slot = cfg.horizon, cfg.n_cell, cfg.t_slot_ms
    guarantee, shares = GUARANTEE[cfg.controller], SHARES[cfg.controller]
    mitigates = cfg.controller == "marea"
    arrivals = [packets_per_tti(cfg, m) for m in range(m_count)]
    bits = [[sum(p) for p in arrivals[m]] for m in range(m_count)]
    rates = [channel_rates(cfg, m) for m in range(m_count)]
    q_t = [round(s.w_th_ms / t_slot) for s in cfg.services]
    thr = [RtThresholds(q, cfg.eta, cfg.tau) for q in q_t] if mitigates else None
    alloc_cfg = AllocatorConfig(t_slot_ms=t_slot, estimator=cfg.estimator, gmm_components=cfg.gmm_components)
    em_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))

    queues = [[] for _ in range(m_count)]
    fsm = [FsmRecord() for _ in range(m_count)]
    done = [[] for _ in range(m_count)]  # (packet, rbs, completion tti), FIFO order
    extras = [deque(maxlen=cfg.t_out) for _ in range(m_count)]
    queue_bits_hist = [deque(maxlen=cfg.qldr_window) for _ in range(m_count)]
    baseline = [n_cell // m_count] * m_count
    alloc_rows, debug_rows = [], []
    period = 0

    def head_wait(m, t):
        return t - queues[m][0].arrival if queues[m] else 0

    for t in range(horizon):
        for m in range(m_count):
            queues[m].extend(Packet(t, size) for size in arrivals[m][t])
        warm = t < cfg.t_obs
        since = t - cfg.t_obs
        if not warm and guarantee == "model" and since % cfg.t_out == 0:
            lo = t - cfg.t_obs
            windows = []
            for m in range(m_count):
                sent = [(p.size, rbs) for p, rbs, tc in done[m] if tc >= lo]
                if sent:
                    per_rb = ConcatPerRbVector([s for s, _ in sent], [r for _, r in sent])
                else:
                    per_rb = ConcatPerRbVector(rates[m][lo:t], [1] * (t - lo))
                windows.append(
                    ServiceWindow(
                        ArrivalSampleSet(np.array(bits[m][lo:t], dtype=np.int64)),
                        per_rb,
                        np.array(extras[m], dtype=np.int64),
                    )
                )
            decision = allocate(cfg.services, windows, n_cell, alloc_cfg, em_rng)
            baseline = list(decision.n_min)
            for m in range(m_count):
                alloc_rows.append(
                    (period, cfg.services[m].id, decision.n_min[m], decision.w_est[m], decision.objective)
                )
            period += 1
        elif not warm and guarantee == "qldr" and since > 0 and since % cfg.qldr_window == 0:
            avg_q = [sum(h) / len(h) for h in queue_bits_hist]
            lo = max(0, t - cfg.qldr_window)
            avg_c = [sum(rates[m][lo:t]) / (t - lo) for m in range(m_count)]
            baseline = qldr_allocate(avg_q, avg_c, [s.w_th_ms for s in cfg.services], n_cell)
        elif not warm and guarantee == "none":
            baseline = [0] * m_count

        alloc = list(baseline)
        if mitigates and not warm:
            fsm = [fsm_step(head_wait(m, t), fsm[m], thr[m]) for m in range(m_count)]
            if any(r.state != STATE_A for r in fsm):
                alloc = mitigate(baseline, fsm)

        used = [0] * m_count
        for m in range(m_count):
            for _ in range(alloc[m]):
                if not send_one_rb(queues[m], rates[m][t], t, done[m]):
                    break
                used[m] += 1
        if shares and not warm:
            pool = n_cell - sum(used)
            while pool > 0:
                backlogged = [m for m in range(m_count) if queues[m]]
                if not backlogged:
                    break
                best = min(backlogged, key=lambda m: (q_t[m] - head_wait(m, t), m))
                send_one_rb(queues[best], rates[best][t], t, done[best])
                used[best] += 1
                pool -= 1

        for m in range(m_count):
            extras[m].append(max(0, used[m] - baseline[m]))
            queue_bits_hist[m].append(sum(p.rem for p in queues[m]))
            debug_rows.append(
                (
                    t, cfg.services[m].id, fsm[m].state, fsm[m].n_req, alloc[m], used[m],
                    sum(p.rem for p in queues[m]), head_wait(m, t),
                )
            )

    out = []
    for m, s in enumerate(cfg.services):
        delays = [(tc - p.arrival + 1) * t_slot for p, _, tc in done[m] if p.arrival >= cfg.t_obs]
        pending = sum(
            1 for p in queues[m] if p.arrival >= cfg.t_obs and (horizon - p.arrival) * t_slot > s.w_th_ms
        )
        out.append((delays, pending))
    return out, alloc_rows, debug_rows


# ------------------------------------------------------------ generated configs

ARRIVAL_MODELS = st.one_of(
    st.builds(lambda v: SyntheticModel("constant", (v,)), st.integers(0, 300)),
    st.builds(
        lambda lo, span: SyntheticModel("uniform-integer", (lo, lo + span)),
        st.integers(0, 100), st.integers(0, 400),
    ),
    st.builds(
        lambda a, b, p: SyntheticModel("two-point", (a, b), (p, 1.0 - p)),
        st.integers(0, 50), st.integers(50, 900), st.sampled_from((0.25, 0.5, 0.75)),
    ),
)


def trace_of(per_tti):
    """The packet table of a list of per-TTI packet size lists."""
    arrival = [t for t, sizes in enumerate(per_tti) for _ in sizes]
    return ArrivalTrace(0, arrival, [s for sizes in per_tti for s in sizes], len(per_tti))


PACKET_TRACES = st.lists(st.lists(st.integers(1, 1500), max_size=3), min_size=1, max_size=40).map(trace_of)
BARE_TRACES = st.lists(st.integers(0, 600), min_size=1, max_size=40).map(
    lambda bits: trace_of([[b] if b else [] for b in bits])
)
CHANNELS = st.one_of(
    st.builds(lambda v: SyntheticModel("constant", (v,)), st.integers(5, 40)),
    st.builds(lambda lo, span: SyntheticModel("uniform-integer", (lo, lo + span)),
              st.integers(5, 30), st.integers(0, 20)),
    st.lists(st.integers(5, 40), min_size=1, max_size=30).map(lambda r: ChannelTrace(0, r)),
)


@st.composite
def scenarios(draw_):
    m_count = draw_(st.integers(1, 3))
    services = []
    for sid in range(m_count):
        arrival = draw_(st.one_of(ARRIVAL_MODELS, ARRIVAL_MODELS, PACKET_TRACES, BARE_TRACES))
        services.append(
            ServiceSpec(sid, float(draw_(st.integers(2, 16))), draw_(st.sampled_from((1e-3, 1e-2))),
                        arrival, draw_(CHANNELS))
        )
    t_obs = draw_(st.integers(20, 200))
    # t_out may exceed t_obs (allowed with a warning): the first decision's
    # extra-RB usage then reaches back into warm-up and stops at TTI 0
    t_out = draw_(st.integers(10, 2 * t_obs))
    horizon = draw_(st.integers(t_obs + t_out, min(600, t_obs + 4 * t_out)))
    anomaly = None
    if draw_(st.booleans()):
        start = draw_(st.integers(0, horizon - 1))
        anomaly = AnomalyConfig(
            draw_(st.integers(0, m_count - 1)), start, draw_(st.integers(start + 1, horizon + 50)),
            draw_(st.sampled_from((0.0, 0.5, 1.5, 2.5, 3.5))),
        )
    return ScenarioConfig(
        n_cell=draw_(st.integers(m_count, 8 * m_count)),
        horizon=horizon,
        services=services,
        controller=draw_(st.sampled_from(tuple(GUARANTEE))),
        estimator=draw_(st.sampled_from(("empirical", "empirical", "gmm"))),
        gmm_components=2,
        t_obs=t_obs,
        t_out=t_out,
        qldr_window=draw_(st.integers(1, 12)),
        seed=draw_(st.integers(0, 2**16)),
        anomaly=anomaly,
        debug_log=True,
        check_invariants=True,
    )


def _assert_matches_reference(cfg, metrics):
    per_service, alloc_rows, debug_rows = reference_run(cfg)
    for s, (delays, pending) in zip(metrics.services, per_service):
        assert s.delays_ms.tolist() == delays
        assert s.pending_violations == pending
    assert metrics.alloc_rows == alloc_rows
    assert metrics.debug_rows == debug_rows


@settings(max_examples=60)
@given(scenarios())
def test_run_matches_reference(cfg):
    _assert_matches_reference(cfg, run(cfg))


def test_clear_cell_stretches_match_reference(monkeypatch):
    # marea with a 2-slot budget (q_lower 0): the cell clears from empty queues
    # until the burst at TTI 300 pushes service 0 into B, after which its
    # record is held in C over an empty queue and every TTI must be stepped
    cfg = ScenarioConfig(
        n_cell=20, horizon=500, t_obs=100, t_out=100, seed=7, controller="marea",
        services=[
            ServiceSpec(0, 2.0, 1e-2, SyntheticModel("two-point", (0, 200), (0.5, 0.5)),
                        SyntheticModel("constant", (25,))),
            ServiceSpec(1, 10.0, 1e-2, SyntheticModel("constant", (100,)),
                        SyntheticModel("uniform-integer", (20, 30))),
        ],
        anomaly=AnomalyConfig(0, 300, 340, 3.5), debug_log=True, check_invariants=True,
    )
    stepped = []
    real = sim.schedule_tti
    monkeypatch.setattr(sim, "schedule_tti", lambda t, *a: stepped.append(t) or real(t, *a))
    metrics = run(cfg)
    assert 0 < len(stepped) < cfg.horizon - cfg.t_obs
    assert any(row[2] == STATE_C and row[6] == 0 for row in metrics.debug_rows)
    _assert_matches_reference(cfg, metrics)


@settings(max_examples=60)
@given(scenarios())
def test_run_without_debug_or_checks_matches(cfg):
    # the path a plain `run` takes, with no debug rows or invariant checks
    # reading the queued bits, against the one diffed with the reference above
    on = run(cfg)
    off = run(dataclasses.replace(cfg, debug_log=False, check_invariants=False))
    assert off.debug_rows is None
    for a, b in zip(on.services, off.services):
        assert a.delays_ms.tolist() == b.delays_ms.tolist()
        assert a.pending_violations == b.pending_violations
    assert off.alloc_rows == on.alloc_rows
    assert off.rb_utilization == on.rb_utilization
