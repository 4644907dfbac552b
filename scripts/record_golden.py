"""Re-record the acceptance suite's golden case-study fixture.

Runs the bottleneck case study exactly as ``tests/test_acceptance.py`` does
(seed 7, 48 training days, 100 out-of-sample days, both policies) and
writes its snapshot to ``tests/data/golden_case_study.json``.  Only re-record
when a change is meant to move the case study's numbers.

    PYTHONPATH=src python scripts/record_golden.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
sys.path.insert(0, str(TESTS))

from frpsim.pipeline import run_pipeline  # noqa: E402
from test_acceptance import GOLDEN, case_study_config, golden_snapshot  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = case_study_config(Path(tmp))
        run_pipeline(cfg)
        snap = golden_snapshot(Path(cfg.output_dir))
    GOLDEN.parent.mkdir(exist_ok=True)
    text = json.dumps(snap, indent=1)
    # one line per number list keeps the file reviewable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    GOLDEN.write_text(text + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
