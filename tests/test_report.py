"""The report stage's comparison tables, pinned from hand-built results.

The results and interval files are written here by hand, so the tables are
checked against the report stage alone: row order, metric names and the
``%.6f`` format of every comparison table and of the quartile table.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from frpsim import pipeline
from frpsim.pipeline import ExperimentConfig, StageError, run_pipeline
from frpsim.validation import DATADRIVEN, PROXY, ScenarioResult

VOLL = 10000.0


def result(sid, policy, rt, viol, fs, cost_at):
    """One scenario day whose per-interval cost is ``cost_at(t)``."""
    return ScenarioResult(
        scenario_id=sid, policy=policy, rt_cost_excl_violation=rt,
        total_violation_mwh=viol, fs_commitment_count=fs,
        total_cost=rt + VOLL * viol,
        interval_cost=np.array([cost_at(t) for t in range(96)], dtype=float),
        interval_violation_mwh=np.zeros(96),
    )


def hand_built():
    """Three paired days; the data-driven policy is cheaper at even
    intervals by 1, 2, 3 and at odd intervals by 3, 1, -1."""
    proxy = [result(0, PROXY, 1200.5, 2.0, 4, lambda t: 10.0 + 2 * (t % 2)),
             result(1, PROXY, 980.25, 0.0, 2, lambda t: 11.0 + 2 * (t % 2)),
             result(2, PROXY, 1500.0, 1.5, 6, lambda t: 12.0 + 2 * (t % 2))]
    datadriven = [result(0, DATADRIVEN, 1250.0, 0.5, 3, lambda t: 9.0),
                  result(1, DATADRIVEN, 990.0, 0.0, 2, lambda t: 9.0 + 3 * (t % 2)),
                  result(2, DATADRIVEN, 1400.75, 0.25, 5, lambda t: 9.0 + 6 * (t % 2))]
    return proxy, datadriven


def write_results(out, results, policy):
    """The results and interval files of ``policy``, with exact floats."""
    with open(out / f"results_{policy}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "policy", "rt_cost_excl_violation",
                         "total_violation_mwh", "fs_commitments", "total_cost"])
        for r in results:
            writer.writerow([r.scenario_id, r.policy, repr(r.rt_cost_excl_violation),
                             repr(r.total_violation_mwh), r.fs_commitment_count,
                             repr(r.total_cost)])
    with open(out / f"intervals_{policy}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "policy", "interval", "cost", "violation_mwh"])
        for r in results:
            for t in range(96):
                writer.writerow([r.scenario_id, r.policy, t, repr(float(r.interval_cost[t])),
                                 repr(float(r.interval_violation_mwh[t]))])


def run_report(out, proxy, datadriven, fmm_costs):
    """Run the report stage alone over hand-written validation outputs."""
    write_results(out, proxy, PROXY)
    write_results(out, datadriven, DATADRIVEN)
    (out / "fmm_costs.json").write_text(json.dumps(
        {p: {"cost": c, "violation_mwh": 0.0} for p, c in fmm_costs.items()}))
    cfg = ExperimentConfig(system_file="unused.json", profile_dir="unused",
                           output_dir=str(out), n_out_of_sample=len(proxy))
    run_pipeline(cfg, stages=["report"], force=True)
    return json.loads((out / "report.json").read_text())


def table(*lines):
    return "".join(f"{line}\r\n" for line in ("metric,proxy,datadriven", *lines))


def test_report_tables_pin_row_order_and_format(tmp_path):
    proxy, datadriven = hand_built()
    report = run_report(tmp_path, proxy, datadriven,
                        {PROXY: 500.125, DATADRIVEN: 510.5})
    assert (tmp_path / "table_improvements.csv").read_bytes().decode() == table(
        "scenarios_improved.rt_cost_excl_violation,3.000000,1.000000",
        "scenarios_improved.total_violation_mwh,3.000000,2.000000",
        "scenarios_improved.fs_commitments,3.000000,2.000000")
    assert (tmp_path / "table_violations.csv").read_bytes().decode() == table(
        "total_violation_mwh.avg,1.166667,0.250000",
        "total_violation_mwh.sum,3.500000,0.750000",
        "total_violation_mwh.max,2.000000,0.500000")
    assert (tmp_path / "table_costs.csv").read_bytes().decode() == table(
        "fmm_operating_cost,500.125000,510.500000",
        "rt_cost_excl_violation.avg,1226.916667,1213.583333",
        "total_cost.avg,12893.583333,3713.583333",
        "rt_cost_excl_violation.max,1500.000000,1400.750000",
        "total_cost.max,21200.500000,6250.000000")
    assert (tmp_path / "table_fs_commitments.csv").read_bytes().decode() == table(
        "fs_commitments.sum,12.000000,10.000000",
        "fs_commitments.avg,4.000000,3.333333",
        "fs_commitments.max,6.000000,5.000000")
    quartiles = ["1.500000,2.000000,2.500000", "0.000000,1.000000,2.000000"]
    assert (tmp_path / "table_interval_quartiles.csv").read_bytes().decode() == "".join(
        f"{row}\r\n" for row in
        ["interval,improvement_q1,improvement_median,improvement_q3",
         *(f"{t},{quartiles[t % 2]}" for t in range(96))])
    assert report["improvements"] == {"rt_cost_excl_violation": 1,
                                      "total_violation_mwh": 2, "fs_commitments": 2}
    assert report["per_policy"][PROXY]["total_violation_mwh"] == {
        "avg": 3.5 / 3, "sum": 3.5, "max": 2.0}
    assert report["per_policy"][DATADRIVEN]["fs_commitments"] == {
        "avg": 10 / 3, "sum": 10.0, "max": 5.0}
    assert report["fmm_costs"] == {PROXY: 500.125, DATADRIVEN: 510.5}


@pytest.mark.parametrize("proxy_ids, datadriven_ids, message", [
    ((0, 1, 2), (0, 1), "has no row for scenario_id 2"),
    ((0, 1, 2), (0, 1, 3), "line 4 holds scenario_id 3 where scenario_id 2 belongs"),
    ((0, 1, 2), (0, 1, 1), "line 4 holds scenario_id 1 where scenario_id 2 belongs"),
], ids=["count-mismatch", "pairing-mismatch", "repeated"])
def test_report_refuses_unpaired_results(tmp_path, proxy_ids, datadriven_ids, message):
    """Each policy's results must hold scenarios 0 .. n-1 exactly once, so
    the comparison pairs every scenario with itself."""
    results = hand_built()
    for policy, ids, days in zip((PROXY, DATADRIVEN), (proxy_ids, datadriven_ids), results):
        write_results(tmp_path, [replace(days[min(i, 2)], scenario_id=i) for i in ids],
                      policy)
    (tmp_path / "fmm_costs.json").write_text(json.dumps(
        {p: {"cost": 1.0, "violation_mwh": 0.0} for p in (PROXY, DATADRIVEN)}))
    cfg = ExperimentConfig(system_file="unused.json", profile_dir="unused",
                           output_dir=str(tmp_path), n_out_of_sample=3)
    message = f"[report] {tmp_path / 'results_datadriven.csv'} {message}; rerun validate"
    with pytest.raises(StageError, match=f"^{re.escape(message)}$"):
        run_pipeline(cfg, stages=["report"], force=True)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kind", ["results", "intervals"])
def test_report_refuses_the_other_policys_rows(tmp_path, kind):
    """A results or intervals file copied from the other policy would be
    compared with itself; the report names the file and its first row."""
    proxy, datadriven = hand_built()
    write_results(tmp_path, proxy, PROXY)
    write_results(tmp_path, datadriven, DATADRIVEN)
    name = f"{kind}_{DATADRIVEN}.csv"
    (tmp_path / name).write_bytes((tmp_path / f"{kind}_{PROXY}.csv").read_bytes())
    (tmp_path / "fmm_costs.json").write_text(json.dumps(
        {p: {"cost": 1.0, "violation_mwh": 0.0} for p in (PROXY, DATADRIVEN)}))
    cfg = ExperimentConfig(system_file="unused.json", profile_dir="unused",
                           output_dir=str(tmp_path), n_out_of_sample=3)
    message = f"[report] {tmp_path / name} line 2, column policy: '{PROXY}' is not '{DATADRIVEN}'"
    with pytest.raises(StageError, match=f"^{re.escape(message)}; rerun validate$"):
        run_pipeline(cfg, stages=["report"], force=True)
    assert not (tmp_path / "report.json").exists()


def test_results_files_round_trip_exactly(tmp_path):
    """The validate stage's files carry every bit of each float."""
    proxy, _ = hand_built()
    proxy = [replace(r, rt_cost_excl_violation=0.1 + 0.2 * r.scenario_id,
                     interval_cost=r.interval_cost / 3.0) for r in proxy]
    pipeline._write_results_csv(proxy, tmp_path / f"results_{PROXY}.csv")
    pipeline._write_intervals_csv(proxy, tmp_path / f"intervals_{PROXY}.csv")
    metrics, interval_cost = pipeline._read_results(tmp_path, PROXY, len(proxy))
    assert metrics["rt_cost_excl_violation"].tolist() == [
        r.rt_cost_excl_violation for r in proxy]
    assert metrics["fs_commitments"].tolist() == [r.fs_commitment_count for r in proxy]
    np.testing.assert_array_equal(interval_cost, [r.interval_cost for r in proxy])
