"""Command-line front end: run scenarios, sweep parameters, validate the
delay model against simulation, and compare the allocator with brute force.

Exit codes: 0 success, 1 configuration error, 2 runtime error.  All emitted
CSVs carry a header row; floats use 9 significant digits and infinities are
written as ``inf``.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .capacity import ConcatPerRbVector, build_capacity_samples
from .config import ConfigError, _SCALAR_FIELDS, _convert, load_config
from .martingale import ArrivalSampleSet, delay_bound
from .near_rt import AllocatorConfig, allocate, brute_force_allocate
from .sim import measure_fifo_delays, run, synthesize_window
from .traces import SyntheticModel, extend_cyclically, sample_many

log = logging.getLogger(__name__)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.9g" % v
    v = str(v)
    if any(ch in v for ch in ',"\n'):
        return '"' + v.replace('"', '""') + '"'
    return v


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _prepare_out(out_dir: str, files: list[str], overwrite: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    if not overwrite:
        clashes = [f for f in files if os.path.exists(os.path.join(out_dir, f))]
        if clashes:
            raise ConfigError(
                f"refusing to overwrite {', '.join(clashes)} in {out_dir} (use --overwrite)"
            )


def _write_metrics(metrics, out_dir: str) -> None:
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        [
            "service_id", "packets", "completed", "pending_violations", "violation_prob",
            "mean_ms", "p50_ms", "p95_ms", "p99_ms", "p999_ms", "max_ms", "rb_utilization",
        ],
        [
            (
                s.service_id, s.packets, s.completed, s.pending_violations, s.violation_prob,
                s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms, s.p999_ms, s.max_ms, metrics.rb_utilization,
            )
            for s in metrics.services
        ],
    )
    ccdf_rows = []
    for s in metrics.services:
        for x, p in s.ccdf:
            ccdf_rows.append((s.service_id, x, p))
    _write_csv(os.path.join(out_dir, "ccdf.csv"), ["service_id", "x", "ccdf"], ccdf_rows)
    _write_csv(
        os.path.join(out_dir, "alloc.csv"),
        ["period", "service_id", "n_min", "w_est_ms", "objective"],
        metrics.alloc_rows,
    )
    if metrics.debug_rows is not None:
        _write_csv(
            os.path.join(out_dir, "debug.csv"),
            ["tti", "service_id", "state", "n_req", "n_min_i", "rbs_used", "queue_bits", "head_wait_ttis"],
            metrics.debug_rows,
        )


def _run_to(cfg, out_dir: str, overwrite: bool) -> None:
    """Run a scenario and write its CSVs to `out_dir`."""
    files = ["summary.csv", "ccdf.csv", "alloc.csv"] + (["debug.csv"] if cfg.debug_log else [])
    _prepare_out(out_dir, files, overwrite)
    _write_metrics(run(cfg), out_dir)


def cmd_run(args) -> int:
    _run_to(load_config(args.config, seed=args.seed, controller=args.controller), args.out, args.overwrite)
    return 0


def _sweep_one(task) -> tuple[str, str]:
    """One sweep run; returns (status, error text) instead of raising."""
    config_path, seed, overrides, out_dir, overwrite = task
    try:
        _run_to(load_config(config_path, **{"seed": seed, **overrides}), out_dir, overwrite)  # an axis beats --seed
    except Exception as exc:  # noqa: BLE001 - one failed run must not abort the sweep
        log.exception("sweep run %s failed", out_dir)
        return "failed", f"{type(exc).__name__}: {exc}"
    return "ok", ""


def cmd_sweep(args) -> int:
    load_config(args.config)  # fail fast on a broken base config
    jobs = _at_least_one(args.jobs, "--jobs")
    axes: dict[str, list] = {}
    for spec in args.axis or []:
        if "=" not in spec:
            raise ConfigError(f"bad --axis {spec!r}, expected name=v1,v2,...")
        name, raw = spec.split("=", 1)
        name = name.strip()
        if name not in _SCALAR_FIELDS:
            raise ConfigError(f"--axis {name!r} is not a sweepable scenario field")
        if name in axes:
            raise ConfigError(f"--axis {name!r} is given more than once")
        axes[name] = [_convert(name, tok, _SCALAR_FIELDS[name]) for tok in raw.split(",") if tok]
        if not axes[name]:
            raise ConfigError(f"--axis {name!r} has no values")
    if not axes:
        raise ConfigError("sweep needs at least one --axis")

    names = list(axes)
    combos = list(itertools.product(*axes.values()))
    os.makedirs(args.out, exist_ok=True)
    index_path = os.path.join(args.out, "index.csv")
    if os.path.exists(index_path) and not args.overwrite:
        raise ConfigError(f"refusing to overwrite {index_path} (use --overwrite)")

    run_dirs = [os.path.join(args.out, f"run_{i:03d}") for i in range(len(combos))]
    tasks = [(args.config, args.seed, dict(zip(names, c)), d, args.overwrite) for c, d in zip(combos, run_dirs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, tasks))
    else:
        results = [_sweep_one(t) for t in tasks]
    rows = [(i, *combo, d, *res) for i, (combo, d, res) in enumerate(zip(combos, run_dirs, results))]
    _write_csv(index_path, ["run_id", *names, "out_dir", "status", "error"], rows)
    failed = sum(res[0] != "ok" for res in results)
    if failed:
        print(f"error: {failed} of {len(results)} sweep runs failed; see {index_path}", file=sys.stderr)
        return 2
    return 0


def _parse_grid(raw: str, option: str) -> list[int]:
    try:
        vals = [int(tok) for tok in raw.split(",") if tok]
    except ValueError:
        raise ConfigError(f"bad {option} {raw!r}") from None
    if not vals:
        raise ConfigError(f"{option} is empty")
    for v in vals:
        _at_least_one(v, option)
    return vals


def _at_least_one(value: int, option: str) -> int:
    if value < 1:
        raise ConfigError(f"{option} values must be at least 1, got {value}")
    return value


def _window(src, column: str, length: int, rng) -> np.ndarray:
    """`length` TTIs drawn from a synthetic source, or a trace's per-TTI `column` repeated cyclically."""
    if isinstance(src, SyntheticModel):
        return sample_many(src, rng, length)
    return extend_cyclically(getattr(src, column), length)


def validate_point(spec, seed: int, n_min: int, t_obs: int, runs: int, run_ttis: int, t_slot_ms: float):
    """One validate-model grid point: (W_model_ms, W_measured_ms, rel_err, pooled delays).

    W_model_ms is the bound from a t_obs-TTI window plus the transmitting slot,
    which measured delays count; the delays come from `runs` FIFO runs of
    run_ttis TTIs at n_min RBs per TTI.  Both sides see the service they
    measure: one channel value c per TTI, so n_min * c bits per TTI.
    """
    ss = np.random.SeedSequence([seed, 10, n_min, t_obs])
    r_arr, r_ch = (np.random.default_rng(s) for s in ss.spawn(2))
    arr_win = _window(spec.arrival, "bits_per_tti", t_obs, r_arr)
    c = _window(spec.channel, "bits_per_rb", t_obs, r_ch)
    per_rb = ConcatPerRbVector(n_min * c, np.full(t_obs, n_min))
    x_s = build_capacity_samples(per_rb, n_min, n_min)
    res = delay_bound(ArrivalSampleSet(arr_win), x_s, [1.0], spec.epsilon, t_slot_ms)
    w_model = res.w_ms + t_slot_ms

    delays = []
    for r in range(runs):
        rr = np.random.default_rng(np.random.SeedSequence([seed, 11, n_min, t_obs, r]))
        a = _window(spec.arrival, "bits_per_tti", run_ttis, rr)
        c = _window(spec.channel, "bits_per_rb", run_ttis, rr)
        d, _pending = measure_fifo_delays(a, n_min * c, t_slot_ms)
        delays.append(d)
    pooled = np.concatenate(delays) if delays else np.empty(0)
    if pooled.size:
        w_meas = float(np.quantile(pooled, 1.0 - spec.epsilon, method="inverted_cdf"))
        rel = abs(w_model - w_meas) / w_meas
    else:
        log.warning("validate-model n_min=%d t_obs=%d: no packet measured, rel_err is inf", n_min, t_obs)
        w_meas, rel = math.nan, math.inf
    return w_model, w_meas, rel, pooled


def cmd_validate_model(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    if len(cfg.services) != 1:
        raise ConfigError("validate-model needs a single-service config")
    spec = cfg.services[0]
    n_min_grid = _parse_grid(args.n_min_grid, "--n-min-grid")
    t_obs_grid = _parse_grid(args.t_obs_grid, "--t-obs-grid")
    runs, run_ttis = _at_least_one(args.runs, "--runs"), _at_least_one(args.run_ttis, "--run-ttis")
    _prepare_out(args.out, ["validate.csv"], args.overwrite)

    rows = []
    for n_min in n_min_grid:
        for t_obs in t_obs_grid:
            w_model, w_meas, rel, _ = validate_point(spec, cfg.seed, n_min, t_obs, runs, run_ttis, cfg.t_slot_ms)
            rows.append((n_min, t_obs, w_model, w_meas, rel))
    _write_csv(
        os.path.join(args.out, "validate.csv"),
        ["n_min", "t_obs", "W_model_ms", "W_measured_ms", "rel_err"],
        rows,
    )
    return 0


def table1_windows(specs, entropy, t_obs: int, rbs_per_tti: int) -> list:
    """One synthetic window per service; service m draws from SeedSequence([*entropy, m])."""
    windows = []
    for m, spec in enumerate(specs):
        if not isinstance(spec.arrival, SyntheticModel) or not isinstance(spec.channel, SyntheticModel):
            raise ConfigError("table1 expects synthetic sources")
        r_a, r_c = (np.random.default_rng(s) for s in np.random.SeedSequence([*entropy, m]).spawn(2))
        windows.append(synthesize_window(spec.arrival, spec.channel, t_obs, rbs_per_tti, r_a, r_c))
    return windows


def cmd_table1(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    grid = _parse_grid(args.n_cell_grid, "--n-cell-grid")
    rbs_per_tti = _at_least_one(args.rbs_per_tti, "--rbs-per-tti")
    if min(grid) < len(cfg.services):
        raise ConfigError("n_cell grid entries must be at least the number of services")
    _prepare_out(args.out, ["table1.csv"], args.overwrite)

    acfg = AllocatorConfig(t_slot_ms=cfg.t_slot_ms, estimator=cfg.estimator,
                           gmm_components=cfg.gmm_components)
    # one set of windows for every cell size, so their cached group samples carry over
    windows = table1_windows(cfg.services, (cfg.seed, 20), cfg.t_obs, rbs_per_tti)
    rows = []
    for n_cell in grid:
        heur = allocate(cfg.services, windows, n_cell, acfg)
        brute, iters = brute_force_allocate(cfg.services, windows, n_cell, acfg)
        # equal objectives agree exactly, both inf included, where inf - inf is nan
        same = heur.objective == brute.objective
        rel = 0.0 if same or brute.objective <= 0 else (heur.objective - brute.objective) / brute.objective
        rows.append((n_cell, heur.objective, brute.objective, rel, heur.evaluations, iters))
    _write_csv(
        os.path.join(args.out, "table1.csv"),
        ["n_cell", "heuristic_objective", "brute_objective", "rel_err", "heuristic_iterations", "brute_iterations"],
        rows,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rborch", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="scenario config file (INI)")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--overwrite", action="store_true", help="replace existing output files")

    sp = sub.add_parser("run", help="simulate one scenario and emit CSV metrics")
    common(sp)
    sp.add_argument("--controller", default=None, help="override the config controller")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("sweep", help="run the cross product of one or more axes")
    common(sp)
    sp.add_argument("--axis", action="append", help="name=v1,v2,... (repeatable)")
    sp.add_argument("--jobs", type=int, default=1, help="parallel runs")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate-model", help="compare model bounds with measured delay quantiles")
    common(sp)
    sp.add_argument("--n-min-grid", default="4,6,8", help="comma-separated guaranteed-RB grid")
    sp.add_argument("--t-obs-grid", default="1000,4000", help="comma-separated window sizes")
    sp.add_argument("--runs", type=int, default=5, help="measurement repetitions per grid point")
    sp.add_argument("--run-ttis", type=int, default=200_000, help="TTIs per measurement run")
    sp.set_defaults(func=cmd_validate_model)

    sp = sub.add_parser("table1", help="heuristic vs brute-force allocation comparison")
    common(sp)
    sp.add_argument("--n-cell-grid", default="60,70,80,90,100", help="cell sizes to compare")
    sp.add_argument("--rbs-per-tti", type=int, default=8, help="capacity stream density per TTI")
    sp.set_defaults(func=cmd_table1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
