"""Locate the checkout, pin BLAS to one thread, and import frpsim from src/.

Import this module before numpy.  The benchmark is one caller in a closed
loop; the learner's matrices are too small to gain from BLAS threads, and
with them the same MLP fit took 6 s or 22 s on a 2-core box depending on
what the other core was doing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "frpsim" / "__init__.py").is_file():
    raise SystemExit(f"frpsim sources not found under {SRC}; run from a full checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
