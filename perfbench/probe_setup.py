"""Set-up cost seen by a user: import rborch and load one scenario file
(INI plus any trace CSVs it references), timed inside a fresh process.

Usage: python3 probe_setup.py CONFIG.ini   (prints seconds)
"""

import sys
import time

t0 = time.perf_counter()
import rborch  # noqa: E402
from rborch.config import load_config  # noqa: E402

load_config(sys.argv[1])
print(f"{time.perf_counter() - t0:.9f}")
