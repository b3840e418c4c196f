"""Golden outputs, compared cell by cell with the files committed under
tests/golden/:

- `rborch run`'s summary.csv, ccdf.csv and alloc.csv for every controller on
  one small anomaly scenario (tests/golden/scenario.ini, 6000 TTIs);
- the same for `marea` under the gmm estimator (gmm.ini) and for one
  trace-driven run (trace.ini, a packet trace with packet_sizes and a channel
  trace), whose debug.csv is kept as its SHA-256 digest only;
- `rborch validate-model`'s validate.csv on a small grid over a constant and
  a two-point channel, and `rborch table1`'s table1.csv on a small grid.

A change that moves an output on purpose regenerates the files with

    PYTHONPATH=src python tests/golden/regen.py

and commits them with the change.  The files depend on numpy's Generator
streams and float64 arithmetic; regen.py records the numpy version it ran
under in tests/golden/numpy-version.txt, and a mismatch names both versions.
"""

import csv
import hashlib
import pathlib

import numpy as np

from rborch.cli import main
from rborch.sim import CONTROLLER_KINDS

GOLDEN = pathlib.Path(__file__).parent / "golden"
RUN_FILES = ("summary.csv", "ccdf.csv", "alloc.csv")
NUMPY_VERSION = GOLDEN / "numpy-version.txt"
# a run whose config sets debug_log keeps its debug.csv's digest in this file
DEBUG_DIGEST = "debug.csv.sha256"
_VALIDATE_GRID = ["--n-min-grid", "5,7", "--t-obs-grid", "500,1000", "--runs", "2", "--run-ttis", "20000"]
# each golden run: its directory under tests/golden/ -> (command, config under
# tests/golden/, further options, the CSVs compared cell by cell)
RUNS = {
    **{kind: ("run", "scenario.ini", ["--controller", kind], RUN_FILES) for kind in CONTROLLER_KINDS},
    "gmm": ("run", "gmm.ini", [], RUN_FILES),
    "trace": ("run", "trace.ini", [], RUN_FILES),
    "validate-constant": ("validate-model", "validate-constant.ini", _VALIDATE_GRID, ("validate.csv",)),
    "validate-two-point": ("validate-model", "validate-two-point.ini", _VALIDATE_GRID, ("validate.csv",)),
    "table1": ("table1", "table1.ini", ["--n-cell-grid", "14,18,22"], ("table1.csv",)),
}


def write_outputs(out: pathlib.Path) -> None:
    """Run every golden run into out/<its directory>/."""
    for name, (command, config, options, _) in RUNS.items():
        argv = [command, "--config", str(GOLDEN / config), *options, "--out", str(out / name), "--overwrite"]
        if main(argv) != 0:
            raise RuntimeError(f"rborch {' '.join(argv)} failed")


def debug_digest(run_dir: pathlib.Path):
    """SHA-256 hex digest of run_dir/debug.csv, or None where the run wrote none."""
    path = run_dir / "debug.csv"
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def differences(name: str, want_path: pathlib.Path, got_path: pathlib.Path) -> list[str]:
    """Each cell of got that differs from want, as 'name row r column c: old -> new'
    (rows count from 1 after the header)."""
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    if want[0] != got[0]:
        return [f"{name} header: {','.join(want[0])} -> {','.join(got[0])}"]
    header, out = want[0], []
    if len(want) != len(got):
        out.append(f"{name}: {len(want) - 1} rows -> {len(got) - 1} rows")
    for r, (old, new) in enumerate(zip(want[1:], got[1:]), start=1):
        out.extend(f"{name} row {r} column {col}: {a} -> {b}" for col, a, b in zip(header, old, new) if a != b)
    return out


def test_outputs_match_golden(tmp_path):
    write_outputs(tmp_path)
    problems = []
    for name, (*_, files) in RUNS.items():
        for file in files:
            problems += differences(f"{name}/{file}", GOLDEN / name / file, tmp_path / name / file)
        kept = GOLDEN / name / DEBUG_DIGEST
        want = kept.read_text().strip() if kept.exists() else None
        got = debug_digest(tmp_path / name)
        if want != got:
            problems.append(f"{name}/debug.csv sha256: {want} -> {got}")
    recorded = NUMPY_VERSION.read_text().strip()
    assert not problems, (
        f"{len(problems)} cells differ from tests/golden/ (written under numpy {recorded}, "
        f"running numpy {np.__version__}):\n" + "\n".join(problems[:40])
    )


def test_differences_name_file_row_column_and_values(tmp_path):
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    want.write_text("service_id,n_min,w_est_ms\n0,8,0.5\n1,12,0.25\n")
    got.write_text("service_id,n_min,w_est_ms\n0,8,0.5\n1,11,0.3\n2,1,inf\n")
    assert differences("ref4/alloc.csv", want, got) == [
        "ref4/alloc.csv: 2 rows -> 3 rows",
        "ref4/alloc.csv row 2 column n_min: 12 -> 11",
        "ref4/alloc.csv row 2 column w_est_ms: 0.25 -> 0.3",
    ]
    got.write_text("service_id,n_min\n0,8\n")
    assert differences("x.csv", want, got) == ["x.csv header: service_id,n_min,w_est_ms -> service_id,n_min"]
    assert differences("x.csv", want, want) == []
