"""Regenerate the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/regen.py

Runs every golden run of tests/test_golden.py (RUNS) and writes its CSVs to
tests/golden/<run>/, the SHA-256 digest of the debug.csv of each run that
writes one to tests/golden/<run>/debug.csv.sha256, and the numpy version to
tests/golden/numpy-version.txt.  Commit the files with the change that moved
them, and say in CHANGES.md which cells moved and why.
"""

import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from test_golden import DEBUG_DIGEST, GOLDEN, NUMPY_VERSION, RUNS, debug_digest, write_outputs  # noqa: E402


def regen() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        write_outputs(out)
        for name, (*_, files) in RUNS.items():
            (GOLDEN / name).mkdir(exist_ok=True)
            for file in files:
                shutil.copyfile(out / name / file, GOLDEN / name / file)
            digest = debug_digest(out / name)
            if digest is not None:
                (GOLDEN / name / DEBUG_DIGEST).write_text(digest + "\n")
    NUMPY_VERSION.write_text(np.__version__ + "\n")


if __name__ == "__main__":
    regen()
