"""Scaled-down end-to-end run on the bundled 118-bus system.

Tiny scenario counts keep this in the minutes range; the full-scale settings
live in configs/ieee118_day1.json and take hours.
"""

from __future__ import annotations

import json

import pytest

from frpsim.pipeline import ExperimentConfig, run_pipeline


@pytest.mark.slow
def test_118_bus_pipeline_smoke(data_dir, tmp_path):
    cfg = ExperimentConfig(
        system_file=str(data_dir / "ieee118.json"),
        profile_dir=str(data_dir / "profiles" / "day1"),
        output_dir=str(tmp_path / "out"),
        policy="both",
        seed=3,
        n_training=3,
        n_out_of_sample=2,
        n_deployment=2,
        nn_hidden=(32, 16),
        nn_epochs=5,
        mip_rel_gap=1e-3,
        persist_training_data=False,
    )
    run_pipeline(cfg)
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert set(report["per_policy"]) == {"proxy", "datadriven"}
    assert report["fmm_costs"]["proxy"] > 0
    # constraint superset: the data-driven day can only cost more to clear,
    # up to the accumulated MIP gap of 24 hourly solves
    slack = 3 * cfg.mip_rel_gap * report["fmm_costs"]["proxy"]
    assert report["fmm_costs"]["datadriven"] >= report["fmm_costs"]["proxy"] - slack
    for policy in ("proxy", "datadriven"):
        stats = report["per_policy"][policy]
        assert stats["rt_cost_excl_violation"]["avg"] > 0
        assert stats["total_violation_mwh"]["avg"] >= 0
    assert (out / "cuts_datadriven.csv").exists()
    assert any((out / "models").glob("gen_*.npz"))
