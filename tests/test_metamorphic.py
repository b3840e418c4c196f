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
- R4, synthetic = trace: a synthetic source written out as a trace, the
  draws of its arrivals and channel one row per TTI, gives the same CSVs
  byte for byte, so trace ingestion reads what the generator draws.

The scenarios of R2 and R3 are those diffed with the reference simulator
(test_reference_sim.scenarios): up to 3 services and 600 TTIs, synthetic and
trace sources, all five controllers and both estimators.  R4 runs the golden
anomaly scenario (tests/golden/scenario.ini) through `rborch run`.
"""

import configparser
import dataclasses
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from rborch.cli import main
from rborch.config import load_config
from rborch.sim import CONTROLLER_KINDS, _source_rng, run
from rborch.traces import sample_many
from test_reference_sim import scenarios

SCENARIO = pathlib.Path(__file__).parent / "golden" / "scenario.ini"


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


def write_as_traces(config: pathlib.Path, out: pathlib.Path, **scenario) -> tuple[pathlib.Path, pathlib.Path]:
    """(the synthetic config, the same config reading traces) in out/, both with
    the [scenario] options given; each service's trace rows are the arrivals and
    channel that run draws for it (sim._gen_service_streams), one row per TTI."""
    cfg = load_config(config)
    parser = configparser.ConfigParser()
    parser.read(config)
    parser["scenario"].update({k: str(v) for k, v in scenario.items()})
    synthetic = out / "synthetic.ini"
    with open(synthetic, "w") as fh:
        parser.write(fh)
    arrivals, channel = ["tti,service_id,bits"], ["tti,service_id,bits_per_rb"]
    for m, spec in enumerate(cfg.services):
        bits = sample_many(spec.arrival, _source_rng(cfg.seed, 0, m), cfg.horizon)
        rates = sample_many(spec.channel, _source_rng(cfg.seed, 1, m), cfg.horizon)
        arrivals += [f"{t},{spec.id},{b}" for t, b in enumerate(bits.tolist())]
        channel += [f"{t},{spec.id},{r}" for t, r in enumerate(rates.tolist())]
        parser[f"service.{spec.id}"].update({"arrival": "trace arrivals.csv", "channel": "trace channel.csv"})
    (out / "arrivals.csv").write_text("\n".join(arrivals) + "\n")
    (out / "channel.csv").write_text("\n".join(channel) + "\n")
    trace = out / "trace.ini"
    with open(trace, "w") as fh:
        parser.write(fh)
    return synthetic, trace


def test_r4_synthetic_sources_written_as_traces_give_the_same_csvs(tmp_path):
    # every controller, and marea under the gmm estimator with debug.csv written
    files = ["summary.csv", "ccdf.csv", "alloc.csv"]
    for name, kinds, scenario, read in (
        ("empirical", CONTROLLER_KINDS, {}, files),
        ("gmm", ["marea"], {"estimator": "gmm", "debug_log": "true"}, files + ["debug.csv"]),
    ):
        (tmp_path / name).mkdir()
        configs = write_as_traces(SCENARIO, tmp_path / name, **scenario)
        for kind in kinds:
            written = []
            for config in configs:
                out = tmp_path / name / kind / config.stem
                assert main(["run", "--config", str(config), "--controller", kind, "--out", str(out)]) == 0
                written.append({f: (out / f).read_bytes() for f in read})
            assert written[0] == written[1], (name, kind)
