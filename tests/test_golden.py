"""Golden outputs: `rborch run`'s summary.csv, ccdf.csv and alloc.csv for every
controller on one small anomaly scenario (tests/golden/scenario.ini, 6000
TTIs), compared cell by cell with the files committed under tests/golden/.

A change that moves an output on purpose regenerates the files with

    PYTHONPATH=src python tests/golden/regen.py

and commits them with the change.  The files depend on numpy's Generator
streams and float64 arithmetic; regen.py records the numpy version it ran
under in tests/golden/numpy-version.txt, and a mismatch names both versions.
"""

import csv
import pathlib

import numpy as np

from rborch.cli import main
from rborch.sim import CONTROLLER_KINDS

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCENARIO = GOLDEN / "scenario.ini"
FILES = ("summary.csv", "ccdf.csv", "alloc.csv")
NUMPY_VERSION = GOLDEN / "numpy-version.txt"


def write_outputs(out: pathlib.Path) -> None:
    """Run the golden scenario under every controller into out/<controller>/."""
    for kind in CONTROLLER_KINDS:
        argv = ["run", "--config", str(SCENARIO), "--controller", kind, "--out", str(out / kind), "--overwrite"]
        if main(argv) != 0:
            raise RuntimeError(f"rborch {' '.join(argv)} failed")


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
    for kind in CONTROLLER_KINDS:
        for name in FILES:
            problems += differences(f"{kind}/{name}", GOLDEN / kind / name, tmp_path / kind / name)
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
