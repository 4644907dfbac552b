"""Acceptance gate: one test per criterion, each printing a PASS line.

The bottleneck case study (criteria 4 and 5) runs the full pipeline once per
session on the crafted 5-bus system: a cheap fast-ramping unit sits behind a
line whose rating blocks its upward post-deployment flow, so the system-wide
policy awards it ramping capability it cannot deliver while the data-driven
policy reallocates to responders that can.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from frpsim import fmm
from frpsim.dayahead import run_da
from frpsim.fmm import (FmmHorizon, build_fmm_datadriven, build_fmm_proxy,
                        build_fmm_training, compute_frp_requirements, solve_hour,
                        solve_with_cuts)
from frpsim.learner import Mlp, predict_factors, train
from frpsim.milp import check_solution
from frpsim.network import compute_ptdf
from frpsim.pipeline import (ExperimentConfig, _read_awards_csv, _read_da_csv, _read_models,
                             run_pipeline)
from frpsim.scenarios import (OUT_OF_SAMPLE, TRAINING, UncertaintyConfig,
                              proxy_envelopes, sample_scenarios,
                              select_deployment_scenarios)
from frpsim.ucbase import cold_start_state
from frpsim.validation import (ValidationConfig, build_rtuc_hour,
                               run_rtuc_validation)
from oracles import brute_force_uc, gradient_check
from test_fmm import build_dd_fixture, constant_da, two_gen_system
from test_milp import solve_uc_milp
from util import (bottleneck_profile, bottleneck_system, executed_rtuc_day, make_gen,
                  make_profile, post_deployment_oracle, profile_to_dir, single_bus_system,
                  system_to_json, worst_line_overload)

SEED = 7
N_OOS = 100
N_TRAINING = 48
GOLDEN = Path(__file__).parent / "data" / "golden_case_study.json"
POLICIES = ("proxy", "datadriven")


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def case_study_config(root) -> ExperimentConfig:
    """The case-study configuration, with its inputs written under ``root``."""
    system_path = system_to_json(bottleneck_system(), root / "system.json")
    profile_dir = profile_to_dir(bottleneck_profile(), root / "day")
    out = root / "out"
    return ExperimentConfig(
        system_file=str(system_path),
        profile_dir=str(profile_dir),
        output_dir=str(out),
        policy="both",
        seed=SEED,
        n_training=N_TRAINING,
        n_out_of_sample=N_OOS,
        n_deployment=2,
        nn_epochs=60,
        persist_training_data=False,
    )


@pytest.fixture(scope="session")
def case_study(tmp_path_factory):
    """Full pipeline on the bottleneck fixture: 48 training scenarios, 100
    paired out-of-sample scenarios, both policies."""
    cfg = case_study_config(tmp_path_factory.mktemp("case_study"))
    run_pipeline(cfg)
    return cfg, Path(cfg.output_dir)


def golden_snapshot(out) -> dict:
    """The case study's awards, per-scenario results, clearing costs and
    report, read back from a finished run's output directory."""
    snap = {"awards": {}, "results": {}}
    for policy in POLICIES:
        awards: dict[str, dict[str, list[float]]] = {}
        with open(out / f"awards_{policy}.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                gen = awards.setdefault(row["generator"],
                                        {k: [] for k in ("p", "u", "ur", "dr")})
                for k in gen:
                    gen[k].append(float(row[k]))
        snap["awards"][policy] = awards
        snap["results"][policy] = [
            {k: float(v) for k, v in row.items() if k != "policy"}
            for row in _read_results(out, policy)
        ]
    snap["fmm_costs"] = json.loads((out / "fmm_costs.json").read_text())
    report = json.loads((out / "report.json").read_text())
    snap["improvements"] = report["improvements"]
    snap["per_policy"] = report["per_policy"]
    with open(out / "cuts_datadriven.csv", newline="") as fh:
        snap["cuts"] = len(list(csv.DictReader(fh)))
    return snap


def _read_results(out, policy):
    with open(out / f"results_{policy}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _binding_requirements(system, profile, cfg):
    env = proxy_envelopes(profile, cfg.uncertainty, system.solar_units)
    frup = np.zeros(96)
    for h in range(24):
        req = compute_frp_requirements(env, profile, 4 * h, 7)
        frup[4 * h: 4 * h + 4] = req.fr_up[:4]
    return frup


def _read_awards_column(out, policy, gen_id, column):
    vals = np.zeros(96)
    with open(out / f"awards_{policy}.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["generator"]) == gen_id:
                vals[int(row["interval"])] = float(row[column])
    return vals


# ---------------------------------------------------------------- criteria

def test_criterion_01_constraint_checker_soundness(bottleneck):
    """Every solution produced by a representative model sweep re-checks clean
    at tolerance 1e-6 (module tests assert the same for their own solves), and
    no line flow recomputed from its dispatch exceeds its rating: line rows
    join the models lazily, so the rows alone do not show that."""
    system, ptdf, profile = bottleneck
    ucfg = UncertaintyConfig(seed=SEED)
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da, da_sol, da_builder = run_da(system, ptdf, profile)
    # (name, builder, solution, system load, per-unit solar) per family
    checked = [("day-ahead", da_builder, da_sol, profile.hourly_load,
                profile.solar_hourly)]
    horizon = FmmHorizon(start=68, init=cold_start_state(system))
    ts = np.arange(68, 75)
    proxy = build_fmm_proxy(system, ptdf, profile, env, da, horizon)
    checked.append(("fmm-proxy", proxy.builder, solve_hour(proxy), profile.load15[ts],
                    profile.solar15[:, ts]))
    scn = sample_scenarios(system, profile, ucfg, 1, TRAINING)[0]
    training = build_fmm_training(system, ptdf, scn, da, horizon)
    checked.append(("fmm-training", training.builder, solve_hour(training),
                    scn.system_load[ts], scn.solar[:, ts]))
    dd, _ = build_dd_fixture(system, profile, start=68, ucfg=ucfg)
    dd_sol, _ = solve_with_cuts(dd)
    checked.append(("fmm-datadriven", dd.builder, dd_sol, profile.load15[ts],
                    profile.solar15[:, ts]))
    # one validation-phase hour under the proxy day's awards
    from frpsim.dayahead import initial_state_from_da
    from frpsim.fmm import run_fmm_day

    run = run_fmm_day(system, ptdf, profile, env, da, "proxy")
    scn_oos = sample_scenarios(system, profile, ucfg, 1, OUT_OF_SAMPLE)[0]
    rtuc = build_rtuc_hour(system, ptdf, run.awards, da, scn_oos,
                           FmmHorizon(start=0, init=initial_state_from_da(system, da)))
    ts0 = np.arange(7)
    checked.append(("validation-rtuc", rtuc.builder, solve_hour(rtuc),
                    scn_oos.system_load[ts0], scn_oos.solar[:, ts0]))
    for name, builder, sol, load, solar in checked:
        assert sol.status == "optimal", name
        rep = check_solution(builder.model, sol, tol=1e-6)
        assert rep.ok, (name, rep.worst())
        overload = worst_line_overload(system, ptdf, builder, sol, load, solar)
        assert overload <= 1e-6, (name, overload)
    report("1 constraint-checker soundness",
           f"{len(checked)} model families re-checked at 1e-6, line flows "
           "recomputed from dispatch")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(90210)
    worst = 0.0
    for trial in range(20):
        g_count = int(rng.integers(1, 4))
        t_count = int(rng.integers(2, 5))
        gens = []
        for g in range(g_count):
            pmax = float(rng.uniform(30, 120))
            gens.append(make_gen(
                g, 0, round(float(rng.uniform(0, 0.4) * pmax), 2),
                round(pmax, 2), round(float(rng.uniform(15, 60)), 2),
                ramp=round(float(rng.uniform(0.2, 1.0) * pmax), 2),
                startup=round(float(rng.uniform(0, 300)), 2),
                shutdown=round(float(rng.uniform(0, 50)), 2),
                min_up=int(rng.integers(1, min(t_count, 3) + 1)),
                min_down=int(rng.integers(1, min(t_count, 3) + 1))))
        system = single_bus_system(gens)
        loads = rng.uniform(0.1, 1.1, size=t_count) * sum(g.p_max for g in gens)
        oracle = brute_force_uc(system, loads)
        sol, _ = solve_uc_milp(system, loads)
        rel = abs(sol.objective - oracle) / (1.0 + abs(oracle))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"trial {trial}: oracle {oracle} vs MILP {sol.objective}"
    report("2 oracle equivalence", f"20 instances, worst relative gap {worst:.2e}")


def test_criterion_03_policy_cost_ordering():
    from test_fmm import TestPolicyCostOrdering

    case = TestPolicyCostOrdering()
    run = 0
    for seed in range(10):
        try:
            case.test_datadriven_at_least_proxy_on_random_instances(seed)
            run += 1
        except pytest.skip.Exception:
            continue
    assert run >= 8, "too many random instances skipped"
    report("3 policy-cost ordering", f"{run}/10 random 5-bus instances ordered")


def test_criterion_04_bottleneck_case_study(case_study, bottleneck):
    cfg, out = case_study
    system, _, profile = bottleneck
    frup = _binding_requirements(system, profile, cfg)
    mask = frup > 1e-9
    total_req = frup[mask].sum()

    # the proxy policy parks the upward requirement on the stranded unit
    ur_a_proxy = _read_awards_column(out, "proxy", 0, "ur")
    share_proxy = ur_a_proxy[mask].sum() / total_req
    assert share_proxy >= 0.5, f"stranded-unit proxy share {share_proxy:.2%}"

    # the data-driven policy strips it and reassigns to the deliverable unit
    ur_a_dd = _read_awards_column(out, "datadriven", 0, "ur")
    assert ur_a_dd[mask].sum() <= 1e-3 * total_req + 1e-6
    ur_c_dd = _read_awards_column(out, "datadriven", 2, "ur")
    assert ur_c_dd[mask].sum() / total_req >= 0.5

    proxy_rows = _read_results(out, "proxy")
    dd_rows = _read_results(out, "datadriven")
    assert len(proxy_rows) == len(dd_rows) == N_OOS
    viol_better = sum(
        1 for p, d in zip(proxy_rows, dd_rows)
        if float(d["total_violation_mwh"]) < float(p["total_violation_mwh"])
    )
    cost_better = sum(
        1 for p, d in zip(proxy_rows, dd_rows)
        if float(d["rt_cost_excl_violation"]) < float(p["rt_cost_excl_violation"])
    )
    assert viol_better >= 0.8 * N_OOS, f"violation improved in {viol_better}/{N_OOS}"
    assert cost_better > 0.5 * N_OOS, f"RT cost improved in {cost_better}/{N_OOS}"
    report("4 bottleneck case study",
           f"proxy stranded share {share_proxy:.0%}, data-driven share 0%, "
           f"violation better {viol_better}/{N_OOS}, "
           f"cost better {cost_better}/{N_OOS}")


def test_criterion_05_cut_loop_convergence(case_study, bottleneck, monkeypatch):
    cfg, out = case_study
    system, ptdf, profile = bottleneck
    ucfg = cfg.uncertainty
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da = _read_da_csv(out / "da_commitments.csv", system)
    deployment = select_deployment_scenarios(system, profile, ucfg,
                                             cfg.n_deployment)
    models = _read_models(out)
    factors = predict_factors(models, deployment)
    # evening ramp hour: the congested hour of the day
    horizon = FmmHorizon(start=72, init=cold_start_state(system))
    handle = build_fmm_datadriven(system, ptdf, profile, env, da, horizon,
                                  factors, deployment)
    monkeypatch.setattr(fmm, "MAX_CUT_ROUNDS", 10)
    sol, cuts = solve_with_cuts(handle)
    rounds = max((c.round_added for c in cuts), default=0)
    assert rounds <= 10
    assert len(cuts) >= 1
    # every (move, scenario) recomputed from a direct DC solve of the
    # solution, independently of the flow code the cut loop uses
    ratings = np.array([ln.rating for ln in system.lines])
    worst, directed = 0.0, 0
    for s, scn in enumerate(deployment):
        for t in range(horizon.length - 1):
            flows = post_deployment_oracle(system, handle.model, sol, profile, scn,
                                           horizon.start, t, s)
            if flows is not None:
                directed += 1
                worst = max(worst, float((np.abs(flows) - ratings).max()))
    assert directed
    assert worst <= 1e-4, f"post-termination violation {worst} MW"
    # the pipeline's own cut log stayed within the round budget as well
    with open(out / "cuts_datadriven.csv", newline="") as fh:
        pipeline_rounds = [int(r["round"]) for r in csv.DictReader(fh)]
    assert max(pipeline_rounds, default=0) <= 10
    report("5 cut-loop convergence",
           f"{len(cuts)} cuts in {rounds} round(s), residual {worst:.2e} MW")


def test_criterion_06_commitment_aware_frp_bounds():
    system = two_gen_system()
    profile = make_profile(np.full(96, 60.0), np.zeros(96))
    ptdf = compute_ptdf(system)
    ucfg = UncertaintyConfig(sigma_hourly_frac=0.0)
    env = proxy_envelopes(profile, ucfg, system.solar_units)

    # shutdown: on at the boundary, off after it
    da = constant_da(system, {1})
    da.u_hourly[0][:1] = 1.0
    da.dispatch_hourly[0][0] = 20.0
    da.dispatch_hourly[1][:] = 40.0
    from frpsim.dayahead import initial_state_from_da
    horizon = FmmHorizon(start=0, init=initial_state_from_da(system, da))
    handle = build_fmm_proxy(system, ptdf, profile, env, da, horizon)
    sol = solve_hour(handle)
    assert sol.status == "optimal"
    g = system.generators[0]
    assert sol.value(handle.ur[0, 3]) == pytest.approx(0.0, abs=1e-6)
    assert sol.value(handle.dr[0, 3]) <= g.ramp_sd + 1e-6

    # startup: off at the boundary, on after it
    da2 = constant_da(system, {1})
    da2.u_hourly[0][1:] = 1.0
    da2.dispatch_hourly[1][:] = 40.0
    horizon2 = FmmHorizon(start=0, init=initial_state_from_da(system, da2))
    handle2 = build_fmm_proxy(system, ptdf, profile, env, da2, horizon2)
    sol2 = solve_hour(handle2)
    assert sol2.status == "optimal"
    assert sol2.value(handle2.dr[0, 3]) == pytest.approx(0.0, abs=1e-6)
    assert sol2.value(handle2.ur[0, 3]) <= g.ramp_su + 1e-6
    report("6 commitment-aware FRP bounds",
           "shutdown caps ur=0, dr<=shutdown ramp; startup mirror holds")


def test_criterion_07_proxy_requirement_formulas():
    system = bottleneck_system()
    cfg = UncertaintyConfig(seed=SEED)
    z, frac = cfg.confidence_z, cfg.sigma_15min_frac

    # three synthetic profiles with hand-computed requirement vectors
    profiles = []
    load_a = np.full(96, 1000.0)
    profiles.append((make_profile(load_a, np.zeros(96)), "flat"))
    load_b = np.linspace(900.0, 1200.0, 96)
    profiles.append((make_profile(load_b, np.zeros(96)), "rising"))
    load_c = np.full(96, 800.0)
    solar_c = np.linspace(0.0, 39.0, 96)
    profiles.append((make_profile(load_c, solar_c), "solar ramp"))
    for profile, label in profiles:
        env = proxy_envelopes(profile, cfg, system.solar_units)
        req = compute_frp_requirements(env, profile, 40, 7)
        for t in range(6):
            lt, ln = profile.load15[40 + t], profile.load15[40 + t + 1]
            st = profile.solar15.sum(axis=0)[40 + t]
            sn = profile.solar15.sum(axis=0)[40 + t + 1]
            up = max((ln * (1 + frac * z)) - sn * max(1 - frac * z, 0.0)
                     - (lt - st), 0.0)
            dn = max((lt - st)
                     - (ln * (1 - frac * z) - min(sn * (1 + frac * z), 40.0)),
                     0.0)
            assert req.fr_up[t] == pytest.approx(up, abs=1e-9), label
            assert req.fr_down[t] == pytest.approx(dn, abs=1e-9), label

    # empirical coverage of the 1.96-sigma envelope
    profile = make_profile(np.full(96, 1000.0), np.zeros(96))
    env = proxy_envelopes(profile, cfg, system.solar_units)
    out = sample_scenarios(system, profile, cfg, 10_000, TRAINING)
    vals = np.array([s.system_load[30] for s in out])
    inside = np.mean((vals >= env.load_min[30]) & (vals <= env.load_max[30]))
    assert 0.93 <= inside <= 0.97

    # hourly sigma is twice the 15-min sigma under aggregation
    hourly_err = np.array([(s.system_load[20:24] - 1000.0).sum() for s in out])
    expected = 2.0 * frac * 1000.0
    assert abs(hourly_err.std() - expected) <= 0.05 * expected
    report("7 proxy requirement formulas",
           f"3 profiles exact, coverage {inside:.1%}, "
           f"aggregated sigma {hourly_err.std():.2f} vs {expected:.2f}")


def test_criterion_08_learner_verification(case_study):
    cfg, out = case_study
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(10):
        n_in = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(2, 9))
                       for _ in range(int(rng.integers(1, 4))))
        mlp = Mlp(n_in, hidden, seed=k)
        x = rng.normal(size=(8, n_in))
        y = rng.normal(size=8)
        worst = max(worst, gradient_check(mlp, x, y, eps=1e-5))
    assert worst <= 1e-4

    from test_learner import make_linear_dataset
    from frpsim.learner import TrainConfig
    ds = make_linear_dataset()
    model = train(ds, TrainConfig(hidden=(32, 16), epochs=120, seed=0))[0]
    pred = model.predict(ds.features[ds.is_test])
    resid = pred - ds.targets[ds.is_test]
    r2 = 1.0 - resid.var() / ds.targets[ds.is_test].var()
    assert r2 >= 0.95

    # every persisted response factor lies in [-1, 1]
    with open(out / "response_factors.csv", newline="") as fh:
        stored = np.array([float(r["factor"]) for r in csv.DictReader(fh)])
    assert len(stored) and np.all(np.abs(stored) <= 1.0)

    from test_learner import scenario_from
    from frpsim.learner import feature_matrix
    assert feature_matrix(scenario_from(np.full(96, 500.0),
                                        np.zeros((3, 96)))).shape[1] == 70
    report("8 learner verification",
           f"gradient {worst:.2e}, linear R2 {r2:.3f}, "
           f"{len(stored)} factors in [-1,1], dim(3 solar)=70")


def test_golden_case_study_outputs(case_study):
    """The case study reproduces the recorded outputs: costs within five MIP
    gaps, awards within 1e-6 MW, counts exactly.

    ``tests/data/golden_case_study.json`` is ``golden_snapshot`` of the
    case-study run; ``scripts/record_golden.py`` rewrites it.
    """
    cfg, out = case_study
    got, want = golden_snapshot(out), json.loads(GOLDEN.read_text())
    rtol = 5 * cfg.mip_rel_gap

    def close(a, b, what):   # costs and energies: relative, floor at 1e-6
        assert a == pytest.approx(b, rel=rtol, abs=1e-6), what

    for policy in POLICIES:
        for gen, cols in want["awards"][policy].items():
            for k, vals in cols.items():
                np.testing.assert_allclose(got["awards"][policy][gen][k], vals,
                                           rtol=0, atol=1e-6,
                                           err_msg=f"{policy} g{gen} {k}")
        assert len(got["results"][policy]) == len(want["results"][policy])
        for a, b in zip(got["results"][policy], want["results"][policy]):
            assert a["scenario_id"] == b["scenario_id"]
            assert a["fs_commitments"] == b["fs_commitments"]
            for k in ("rt_cost_excl_violation", "total_violation_mwh", "total_cost"):
                close(a[k], b[k], f"{policy} scenario {b['scenario_id']} {k}")
        for k in ("cost", "violation_mwh"):
            close(got["fmm_costs"][policy][k], want["fmm_costs"][policy][k],
                  f"{policy} fmm {k}")
        for metric, stats in want["per_policy"][policy].items():
            for stat, val in stats.items():
                if metric == "fs_commitments":
                    assert got["per_policy"][policy][metric][stat] == val
                else:
                    close(got["per_policy"][policy][metric][stat], val,
                          f"{policy} {metric}.{stat}")
    assert got["improvements"] == want["improvements"]
    assert got["cuts"] == want["cuts"]
    report("golden case study",
           f"awards, {len(want['results']['proxy'])} paired results, clearing "
           f"costs, report and {want['cuts']} cuts as recorded")


def test_criterion_09_validation_cap_semantics(case_study, bottleneck):
    cfg, out = case_study
    system, ptdf, profile = bottleneck
    da = _read_da_csv(out / "da_commitments.csv", system)
    awards = _read_awards_csv(out / "awards_datadriven.csv", system)
    oos = sample_scenarios(system, profile, cfg.uncertainty, 3, OUT_OF_SAMPLE)
    checked_moves = 0
    for sid, scn in enumerate(oos):
        res = run_rtuc_validation(system, ptdf, awards, da, scn, sid,
                                  "datadriven", ValidationConfig())
        dispatch, commitment, startup = executed_rtuc_day(system, ptdf, awards, da, scn)
        identity_gap = abs(res.total_cost - (res.rt_cost_excl_violation
                                             + 10000.0 * res.total_violation_mwh))
        assert identity_gap <= 1e-6
        for g in system.must_run_generators():
            p, u, v = dispatch[g.id], commitment[g.id], startup[g.id]
            for t in range(1, 96):
                move = p[t] - p[t - 1]
                up_cap = awards.ur[g.id][t - 1] * u[t - 1] + g.ramp_su * v[t]
                dn_cap = (awards.dr[g.id][t - 1] * u[t]
                          + g.ramp_sd * (1 if u[t - 1] > u[t] else 0))
                assert move <= up_cap + 1e-6
                assert -move <= dn_cap + 1e-6
                checked_moves += 1
    report("9 validation cap semantics",
           f"{checked_moves} moves re-checked, accounting identity exact")
