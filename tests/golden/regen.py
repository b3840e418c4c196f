"""Regenerate the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/regen.py

Runs tests/golden/scenario.ini under every controller and writes each run's
summary.csv, ccdf.csv and alloc.csv to tests/golden/<controller>/, and the
numpy version to tests/golden/numpy-version.txt.  Commit the files with the
change that moved them, and say in CHANGES.md which cells moved and why.
"""

import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from test_golden import FILES, GOLDEN, NUMPY_VERSION, write_outputs  # noqa: E402
from rborch.sim import CONTROLLER_KINDS  # noqa: E402


def regen() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        write_outputs(out)
        for kind in CONTROLLER_KINDS:
            (GOLDEN / kind).mkdir(exist_ok=True)
            for name in FILES:
                shutil.copyfile(out / kind / name, GOLDEN / kind / name)
    NUMPY_VERSION.write_text(np.__version__ + "\n")


if __name__ == "__main__":
    regen()
