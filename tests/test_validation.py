from __future__ import annotations

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from frpsim.dayahead import run_da
from frpsim.fmm import run_fmm_day
from frpsim.scenarios import (OUT_OF_SAMPLE, Scenario, UncertaintyConfig,
                              proxy_envelopes, sample_scenarios)
from frpsim.pipeline import ExperimentConfig, StageError, run_pipeline
from frpsim.validation import DATADRIVEN, PROXY, run_rtuc_validation
from test_report import hand_built, result, run_report, write_results
from util import executed_rtuc_day


@pytest.fixture(scope="module")
def cleared_day(bottleneck):
    system, ptdf, profile = bottleneck
    cfg = UncertaintyConfig(seed=3)
    env = proxy_envelopes(profile, cfg, system.solar_units)
    da, _, _ = run_da(system, ptdf, profile)
    run = run_fmm_day(system, ptdf, profile, env, da, "proxy")
    return system, ptdf, profile, cfg, da, run


def forecast_scenario(profile):
    return Scenario(kind=OUT_OF_SAMPLE, system_load=profile.load15.copy(),
                    solar=profile.solar15.copy(), seed_info="forecast")


class TestRtucValidation:
    def test_forecast_realization_near_zero_violation(self, cleared_day):
        system, ptdf, profile, cfg, da, run = cleared_day
        res = run_rtuc_validation(system, ptdf, run.awards, da,
                                  forecast_scenario(profile), 0, PROXY)
        assert res.total_violation_mwh == pytest.approx(0.0, abs=1e-4)
        assert res.rt_cost_excl_violation > 0

    def test_accounting_identity_exact(self, cleared_day):
        system, ptdf, profile, cfg, da, run = cleared_day
        scn = sample_scenarios(system, profile, cfg, 1, OUT_OF_SAMPLE)[0]
        res = run_rtuc_validation(system, ptdf, run.awards, da, scn, 0, PROXY)
        expected = res.rt_cost_excl_violation + 10000.0 * res.total_violation_mwh
        assert res.total_cost == pytest.approx(expected, abs=1e-6)
        assert res.rt_cost_excl_violation == pytest.approx(
            res.interval_cost.sum(), abs=1e-9)
        assert res.total_violation_mwh == pytest.approx(
            res.interval_violation_mwh.sum(), abs=1e-12)

    def test_cap_semantics_literal_recheck(self, cleared_day):
        system, ptdf, profile, cfg, da, run = cleared_day
        scn = sample_scenarios(system, profile, cfg, 2, OUT_OF_SAMPLE)[1]
        dispatch, commitment, startup = executed_rtuc_day(system, ptdf, run.awards, da, scn)
        tol = 1e-6
        for g in system.must_run_generators():
            p, u, v = dispatch[g.id], commitment[g.id], startup[g.id]
            for t in range(1, 96):
                move = p[t] - p[t - 1]
                up_cap = (run.awards.ur[g.id][t - 1] * u[t - 1]
                          + g.ramp_su * v[t])
                dn_cap = (run.awards.dr[g.id][t - 1] * u[t]
                          + g.ramp_sd * (1 if u[t - 1] > u[t] else 0))
                assert move <= up_cap + tol
                assert -move <= dn_cap + tol

    def test_unlimited_awards_match_unrestricted_redispatch(self, cleared_day):
        # move caps equal to the full ramp rate must reproduce the standard
        # ramp-constrained model exactly (default caps equal explicit full caps)
        from frpsim.network import nodal_injections
        from frpsim.ucbase import UcModelBuilder, cold_start_state, solve_lazy

        system, ptdf, profile, cfg, da, _ = cleared_day
        scn = sample_scenarios(system, profile, cfg, 3, OUT_OF_SAMPLE)[2]
        loads, solar = nodal_injections(system, scn.system_load[:12], scn.solar[:, :12])

        n_gens = len(system.generators)

        def build(caps):
            b = UcModelBuilder(system, 12, 0.25, cold_start_state(system))
            b.add_commitment(np.zeros((n_gens, 12)), np.ones((n_gens, 12)),
                             min_updown=np.ones(n_gens, dtype=bool))
            b.add_dispatch()
            b.add_ramps(caps, caps)
            b.add_network(loads, solar)
            return b, solve_lazy(b, ptdf)

        maxed = np.repeat([[g.ramp_15] for g in system.generators], 12, axis=1)
        _, sol_capped = build(maxed)
        _, sol_plain = build(None)
        assert sol_capped.status == sol_plain.status == "optimal"
        assert sol_capped.objective == pytest.approx(sol_plain.objective,
                                                     rel=1e-9, abs=1e-6)

    def test_rejects_wrong_scenario_kind(self, cleared_day):
        system, ptdf, profile, cfg, da, run = cleared_day
        scn = sample_scenarios(system, profile, cfg, 1, "training")[0]
        with pytest.raises(ValueError, match="out-of-sample"):
            run_rtuc_validation(system, ptdf, run.awards, da, scn, 0, PROXY)

    def test_netload_spike_priced_at_voll(self, cleared_day):
        system, ptdf, profile, cfg, da, run = cleared_day
        load = profile.load15.copy()
        load[50:54] += 400.0  # far beyond awards plus fast-start capability
        scn = Scenario(kind=OUT_OF_SAMPLE, system_load=load,
                       solar=profile.solar15.copy(), seed_info="spike")
        res = run_rtuc_validation(system, ptdf, run.awards, da, scn, 0, PROXY)
        assert res.total_violation_mwh > 10.0
        assert res.total_cost - res.rt_cost_excl_violation == pytest.approx(
            10000.0 * res.total_violation_mwh, abs=1e-6)

    def test_fs_commitment_counter(self, cleared_day):
        system, ptdf, profile, cfg, da, run = cleared_day
        big = UncertaintyConfig(seed=10, sigma_hourly_frac=0.10)
        scn = sample_scenarios(system, profile, big, 1, OUT_OF_SAMPLE)[0]
        res = run_rtuc_validation(system, ptdf, run.awards, da, scn, 0, PROXY)
        _, commitment, _ = executed_rtuc_day(system, ptdf, run.awards, da, scn)
        counted = sum(int(commitment[g.id].sum()) for g in system.generators
                      if g.is_fast_start)
        assert counted > 0
        assert res.fs_commitment_count == counted


class TestShutdownGlidepath:
    def test_scheduled_shutdown_beyond_window_stays_reachable(self, bottleneck):
        """A shutdown two hours out is invisible to the current 7-interval
        window; the glidepath cap must pre-position the unit anyway."""
        from frpsim.dayahead import DaCommitments
        from frpsim.fmm import run_fmm_day
        from frpsim.scenarios import proxy_envelopes

        system, ptdf, profile = bottleneck
        cfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, cfg, system.solar_units)
        # hand-built schedule: the stranded unit (high dispatch, modest
        # shutdown allowance) is ordered off at hour 2 = global interval 8
        u = {g.id: np.ones(24) for g in system.generators}
        u[3][:] = 0.0
        u[0][2:6] = 0.0
        p = {g.id: np.zeros(24) for g in system.generators}
        p[0][:] = 300.0
        p[1][:] = 400.0
        p[2][:] = 250.0
        da = DaCommitments(u_hourly=u, dispatch_hourly=p, objective=0.0)
        run = run_fmm_day(system, ptdf, profile, env, da, "proxy")
        gen = system.generators[0]
        # the market plan descends early enough for the hand-forced shutdown
        assert run.awards.p[0][7] <= gen.ramp_sd + 1e-6
        scn = sample_scenarios(system, profile, cfg, 1, OUT_OF_SAMPLE)[0]
        dispatch, _, _ = executed_rtuc_day(system, ptdf, run.awards, da, scn)
        # the realized trajectory honors the same glidepath
        assert dispatch[0][7] <= gen.ramp_sd + 1e-6
        assert dispatch[0][8:24] == pytest.approx(0.0, abs=1e-9)


# The comparison is computed by the report stage; these tests write its
# inputs by hand and read report.json and the tables it writes.


def flat(sid, policy, viol, cost=1000.0, fs=5):
    return result(sid, policy, cost, viol, fs, lambda t: cost / 96)


def read_table(path):
    return {row["metric"]: (row["proxy"], row["datadriven"])
            for row in csv.DictReader(open(path, newline=""))}


class TestAggregation:
    def test_identical_results_zero_improvements(self, tmp_path):
        proxy, _ = hand_built()
        report = run_report(tmp_path, proxy, [replace(r, policy=DATADRIVEN) for r in proxy],
                            {PROXY: 500.0, DATADRIVEN: 500.0})
        assert report["improvements"] == {
            "rt_cost_excl_violation": 0, "total_violation_mwh": 0,
            "fs_commitments": 0,
        }
        assert report["per_policy"][PROXY] == report["per_policy"][DATADRIVEN]
        quartiles = open(tmp_path / "table_interval_quartiles.csv", newline="")
        for row in csv.DictReader(quartiles):
            assert {row[k] for k in row if k != "interval"} == {"0.000000"}

    def test_hand_built_comparison(self, tmp_path):
        a = [flat(0, PROXY, 10.0), flat(1, PROXY, 20.0), flat(2, PROXY, 30.0)]
        b = [flat(0, DATADRIVEN, 5.0), flat(1, DATADRIVEN, 25.0),
             flat(2, DATADRIVEN, 20.0)]
        report = run_report(tmp_path, a, b, {PROXY: 500.0, DATADRIVEN: 500.0})
        assert report["improvements"]["total_violation_mwh"] == 2
        assert report["per_policy"][PROXY]["total_violation_mwh"]["sum"] == 60.0
        assert report["per_policy"][DATADRIVEN]["total_violation_mwh"]["sum"] == 50.0
        assert report["per_policy"][PROXY]["total_violation_mwh"]["max"] == 30.0

    def test_empty_rejected(self, tmp_path):
        for policy in (PROXY, DATADRIVEN):
            write_results(tmp_path, [], policy)
        (tmp_path / "fmm_costs.json").write_text(json.dumps(
            {p: {"cost": 1.0, "violation_mwh": 0.0} for p in (PROXY, DATADRIVEN)}))
        cfg = ExperimentConfig(system_file="unused.json", profile_dir="unused",
                               output_dir=str(tmp_path), n_out_of_sample=3)
        message = f"[report] {tmp_path / 'results_proxy.csv'} has no row for scenario_id 0"
        with pytest.raises(StageError, match=f"^{re.escape(message)}; rerun validate$"):
            run_pipeline(cfg, stages=["report"], force=True)
        assert not (tmp_path / "report.json").exists()


class TestComparisonRows:
    def test_row_families_present(self, tmp_path):
        a = [flat(i, PROXY, 10.0 + i, cost=2000.0, fs=7) for i in range(4)]
        b = [flat(i, DATADRIVEN, 8.0, cost=1900.0, fs=3) for i in range(4)]
        run_report(tmp_path, a, b, {PROXY: 500.0, DATADRIVEN: 510.0})
        tables = {p.name for p in tmp_path.glob("table_*.csv")}
        assert tables == {"table_improvements.csv", "table_violations.csv",
                          "table_costs.csv", "table_fs_commitments.csv",
                          "table_interval_quartiles.csv"}
        costs = read_table(tmp_path / "table_costs.csv")
        assert next(iter(costs)) == "fmm_operating_cost"
        assert costs["fmm_operating_cost"] == ("500.000000", "510.000000")

    def test_identical_policies_zero_deltas(self, tmp_path):
        proxy, _ = hand_built()
        run_report(tmp_path, proxy, [replace(r, policy=DATADRIVEN) for r in proxy],
                   {PROXY: 500.0, DATADRIVEN: 500.0})
        for name in ("table_violations.csv", "table_costs.csv", "table_fs_commitments.csv"):
            for metric, (p, d) in read_table(tmp_path / name).items():
                assert p == d, (name, metric)
