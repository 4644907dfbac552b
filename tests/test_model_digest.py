"""The 118-bus market models, pinned by their SHA-256 digests.

``scripts/model_digest.py`` builds the day-ahead model, every policy's hour
model at trading hours 0, 10, 18 and 23, and one data-driven hour after its
cut loop, and prints one digest per model.  Hour 23 reads day series past
their last interval, so it pins the edge-padding rule.  A change to the model
layer that changes any matrix entry, bound, objective coefficient,
integrality or name changes a digest; ``tests/data/model_digests.txt``
holds the recorded ones.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_models_match_recorded_digests():
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "scripts/model_digest.py"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    expected = (ROOT / "tests" / "data" / "model_digests.txt").read_text()
    assert out.stdout.splitlines() == expected.splitlines()
