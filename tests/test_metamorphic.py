"""Metamorphic relations of `run`: how its outputs must move when its inputs
move in a known way, checked without an oracle (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM CSUR 51(1), 2018).

- R2, the slot: scaling the slot length and every delay budget by one power
  of two leaves every count, state and allocation as it is, and scales every
  delay and every committed bound W by that power exactly.
- R3, causality: a longer horizon extends a run without changing its past.
  The shorter run's allocation rows and debug rows, and each service's
  delays, are a prefix of the longer run's, since a decision at TTI t reads
  nothing at or after t, and no served range runs past its event.

The scenarios are those diffed with the reference simulator
(test_reference_sim.scenarios): up to 3 services and 600 TTIs, synthetic and
trace sources, all five controllers and both estimators.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from rborch.sim import run
from test_reference_sim import scenarios


def rows_without_w(alloc_rows):
    """alloc rows with the committed bound w_est_ms left out."""
    return [(period, sid, n_min, objective) for period, sid, n_min, _, objective in alloc_rows]


@settings(max_examples=25)
@given(scenarios(), st.sampled_from((0.5, 0.25, 0.125)))
def test_r2_scaling_the_slot_and_budgets_scales_delays_and_bounds(cfg, f):
    base = run(cfg)
    scaled_cfg = dataclasses.replace(
        cfg, t_slot_ms=cfg.t_slot_ms * f,
        services=[dataclasses.replace(s, w_th_ms=s.w_th_ms * f) for s in cfg.services],
    )
    scaled = run(scaled_cfg)
    assert scaled.debug_rows == base.debug_rows
    assert rows_without_w(scaled.alloc_rows) == rows_without_w(base.alloc_rows)
    assert [row[3] for row in scaled.alloc_rows] == [row[3] * f for row in base.alloc_rows]
    for a, b in zip(base.services, scaled.services):
        assert (b.packets, b.completed, b.pending_violations, b.violation_prob) == (
            a.packets, a.completed, a.pending_violations, a.violation_prob)
        assert b.delays_ms.tolist() == (a.delays_ms * f).tolist()


@settings(max_examples=25)
@given(scenarios(), st.integers(1, 400))
def test_r3_a_longer_horizon_keeps_the_shorter_run_as_its_prefix(cfg, extra):
    short = run(cfg)
    long = run(dataclasses.replace(cfg, horizon=cfg.horizon + extra))
    assert long.alloc_rows[: len(short.alloc_rows)] == short.alloc_rows
    assert long.debug_rows[: len(short.debug_rows)] == short.debug_rows
    for a, b in zip(short.services, long.services):
        assert b.delays_ms[: len(a.delays_ms)].tolist() == a.delays_ms.tolist()
