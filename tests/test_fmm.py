from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from frpsim import fmm
from frpsim.dayahead import DaCommitments, initial_state_from_da, run_da
from frpsim.fmm import (DOWN, UP, CutLoopError, FmmAwards, FmmConfig, FmmHorizon,
                        HourSolveError, build_fmm_datadriven, build_fmm_proxy,
                        build_fmm_training, compute_frp_requirements, delta_netload,
                        post_deployment_flows, run_fmm_day, solve_hour, solve_with_cuts)
from frpsim.learner import RampResponseFactors
from frpsim.milp import Cols, MilpModel, ModelError, Rows, SolveOptions, check_solution
from frpsim.network import (Bus, PowerSystem, SolarUnit, TransmissionLine,
                            compute_ptdf)
from frpsim.scenarios import (DEPLOYMENT, OUT_OF_SAMPLE, TRAINING, Scenario,
                              UncertaintyConfig, proxy_envelopes, sample_scenarios,
                              select_deployment_scenarios)
from frpsim.ucbase import solve_lazy
from frpsim.validation import build_rtuc_hour
from util import (bottleneck_profile, bottleneck_system, make_gen, make_profile,
                  post_deployment_oracle, single_bus_system)


def constant_da(system, committed_ids, dispatch=None):
    """Flat all-day commitment pattern for tests that pin the DA schedule."""
    u = {g.id: (np.ones(24) if g.id in committed_ids else np.zeros(24))
         for g in system.generators}
    p = {g.id: np.full(24, (dispatch or {}).get(g.id, 0.0))
         for g in system.generators}
    return DaCommitments(u_hourly=u, dispatch_hourly=p, objective=0.0)


def zero_factors(system, n_scenarios=2):
    return RampResponseFactors(values={
        g.id: np.zeros((96, n_scenarios)) for g in system.must_run_generators()
    })


def two_gen_system(**kw0):
    gens = [
        make_gen(0, 0, 10.0, 100.0, 20.0, ramp=20.0, **kw0),
        make_gen(1, 0, 10.0, 100.0, 25.0, ramp=5.0),
    ]
    return single_bus_system(gens)


class TestFrpRequirements:
    def test_hand_computed_case(self):
        # next-interval worst netload 110 - 10 = 100 vs current 100 - 20 = 80
        load = np.full(96, 100.0)
        load[1] = 104.0
        solar = np.full(96, 20.0)
        solar[1] = 16.0
        profile = make_profile(load, solar)
        cfg = UncertaintyConfig(sigma_hourly_frac=0.0)
        env = proxy_envelopes(profile, cfg, (SolarUnit(0, 0, 200.0, 1.0),))
        env = dataclasses.replace(
            env,
            load_max=np.where(np.arange(96) == 1, 110.0, env.load_max),
            solar_min=np.where(np.arange(96) == 1, 10.0, env.solar_min),
        )
        req = compute_frp_requirements(env, profile, 0, 7)
        assert req.fr_up[0] == pytest.approx(20.0, abs=1e-12)

    def test_flat_forecast_zero_sigma(self):
        profile = make_profile(np.full(96, 500.0), np.full(96, 50.0))
        cfg = UncertaintyConfig(sigma_hourly_frac=0.0)
        env = proxy_envelopes(profile, cfg, (SolarUnit(0, 0, 200.0, 1.0),))
        req = compute_frp_requirements(env, profile, 8, 7)
        assert np.all(req.fr_up == 0.0)
        assert np.all(req.fr_down == 0.0)

    def test_falling_netload_zero_sigma(self):
        load = np.full(96, 500.0)
        load[5:] = 470.0  # one 30 MW drop at t=5
        profile = make_profile(load, np.zeros(96))
        cfg = UncertaintyConfig(sigma_hourly_frac=0.0)
        env = proxy_envelopes(profile, cfg, ())
        req = compute_frp_requirements(env, profile, 0, 7)
        assert req.fr_down[4] == pytest.approx(30.0, abs=1e-12)
        assert req.fr_up[4] == 0.0
        assert req.fr_up[1] == 0.0 and req.fr_down[1] == 0.0


class TestProxyModel:
    def _solve_proxy(self, system, profile, da, cfg=None, sigma=0.05):
        ptdf = compute_ptdf(system)
        ucfg = UncertaintyConfig(sigma_hourly_frac=sigma)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        horizon = FmmHorizon(start=0, init=initial_state_from_da(system, da))
        handle = build_fmm_proxy(system, ptdf, profile, env, da, horizon,
                                 cfg or FmmConfig())
        sol = solve_hour(handle)
        assert sol.status == "optimal"
        assert check_solution(handle.model, sol).ok
        return handle, sol

    def test_shutdown_inside_horizon_caps_awards(self):
        # unit 0 on at t=0..3, off afterwards: upward award forced to zero at
        # the boundary, downward award capped by the shutdown ramp rate
        system = two_gen_system()
        profile = make_profile(np.full(96, 60.0), np.zeros(96))
        u0 = np.ones(24); u0[1:] = 0.0
        da = constant_da(system, {1})
        da.u_hourly[0][:] = u0
        da.dispatch_hourly[0][0] = 20.0
        da.dispatch_hourly[1][:] = 40.0
        handle, sol = self._solve_proxy(system, profile, da, sigma=0.0)
        g = system.generators[0]
        t_boundary = 3  # move from t=3 (on) to t=4 (off)
        assert sol.value(handle.ur[0, t_boundary]) == pytest.approx(0.0, abs=1e-6)
        dr_cap = g.ramp_sd
        assert sol.value(handle.dr[0, t_boundary]) <= dr_cap + 1e-6

    def test_startup_inside_horizon_caps_awards(self):
        system = two_gen_system()
        profile = make_profile(np.full(96, 60.0), np.zeros(96))
        u0 = np.zeros(24); u0[1:] = 1.0  # unit 0 starts at hour 1 = local t=4
        da = constant_da(system, {1})
        da.u_hourly[0][:] = u0
        da.dispatch_hourly[1][:] = 60.0
        handle, sol = self._solve_proxy(system, profile, da, sigma=0.0)
        g = system.generators[0]
        t_boundary = 3  # move from t=3 (off) to t=4 (on)
        assert sol.value(handle.dr[0, t_boundary]) == pytest.approx(0.0, abs=1e-6)
        assert sol.value(handle.ur[0, t_boundary]) <= g.ramp_su + 1e-6

    def test_zero_requirement_reduces_to_training_objective(self):
        # with zero requirements and free awards the ramping product vanishes
        gens = [
            make_gen(0, 0, 10.0, 100.0, 20.0, ramp=20.0, frp_up=0.0, frp_down=0.0),
            make_gen(1, 0, 10.0, 100.0, 25.0, ramp=5.0, frp_up=0.0, frp_down=0.0),
        ]
        system = single_bus_system(gens)
        profile = make_profile(np.full(96, 60.0), np.zeros(96))
        da = constant_da(system, {0, 1}, {0: 40.0, 1: 20.0})
        handle, sol = self._solve_proxy(system, profile, da, sigma=0.0)
        ptdf = compute_ptdf(system)
        scenario = Scenario(kind="training", system_load=profile.load15,
                            solar=profile.solar15, seed_info="forecast")
        horizon = FmmHorizon(start=0, init=initial_state_from_da(system, da))
        th = build_fmm_training(system, ptdf, scenario, da, horizon)
        tsol = solve_hour(th)
        assert tsol.status == "optimal"
        assert sol.objective == pytest.approx(tsol.objective, rel=1e-9, abs=1e-6)

    def test_single_capable_unit_receives_entire_requirement(self):
        # only unit 0 can ramp: it must hold the whole upward requirement
        system = two_gen_system()
        gens = list(system.generators)
        gens[1] = dataclasses.replace(gens[1], ramp_15=0.0)
        system = dataclasses.replace(system, generators=tuple(gens))
        load = np.full(96, 60.0)
        load[4:] = 75.0  # forecast move inside the horizon
        profile = make_profile(load, np.zeros(96))
        da = constant_da(system, {0, 1}, {0: 30.0, 1: 30.0})
        handle, sol = self._solve_proxy(system, profile, da, sigma=0.02)
        req = handle.requirements
        t = 3
        assert req.fr_up[t] > 15.0
        assert sol.value(handle.ur[0, t]) == pytest.approx(req.fr_up[t], abs=1e-5)
        assert sol.value(handle.ur[1, t]) == pytest.approx(0.0, abs=1e-6)

    def test_award_commitment_consistency_invariant(self, bottleneck):
        system, ptdf, profile = bottleneck
        cfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, cfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        horizon = FmmHorizon(start=36, init=initial_state_from_da(system, da))
        handle = build_fmm_proxy(system, ptdf, profile, env, da, horizon)
        sol = solve_hour(handle)
        assert check_solution(handle.model, sol).ok
        b = handle.builder
        u, p = np.round(sol.values[b.u]), sol.values[b.p]
        ur, dr = sol.values[handle.ur], sol.values[handle.dr]
        for g in range(len(system.generators)):
            for t in range(6):
                if u[g, t] == 0 and u[g, t + 1] == 0:
                    assert ur[g, t] == pytest.approx(0.0, abs=1e-6)
                    assert dr[g, t] == pytest.approx(0.0, abs=1e-6)
                # dispatch moves stay within awards
                move = p[g, t + 1] - p[g, t]
                assert move <= ur[g, t] + 1e-6
                assert -move <= dr[g, t] + 1e-6

    def test_requirement_coverage_invariant(self, bottleneck):
        system, ptdf, profile = bottleneck
        cfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, cfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        horizon = FmmHorizon(start=72, init=initial_state_from_da(system, da))
        handle = build_fmm_proxy(system, ptdf, profile, env, da, horizon)
        sol = solve_hour(handle)
        for t in range(6):
            total_ur = sol.values[handle.ur[:, t]].sum()
            total_dr = sol.values[handle.dr[:, t]].sum()
            assert total_ur >= handle.requirements.fr_up[t] - 1e-5
            assert total_dr >= handle.requirements.fr_down[t] - 1e-5


class TestTrainingModel:
    def test_scenario_shift_moves_balance(self):
        system = two_gen_system()
        ptdf = compute_ptdf(system)
        da = constant_da(system, {0, 1}, {0: 40.0, 1: 20.0})
        load = np.full(96, 60.0)
        load[4] = 80.0  # +20 MW at t=4, within the combined ramp capability
        scenario = Scenario(kind="training", system_load=load,
                            solar=np.zeros((0, 96)), seed_info="t")
        horizon = FmmHorizon(start=0, init=initial_state_from_da(system, da))
        handle = build_fmm_training(system, ptdf, scenario, da, horizon)
        sol = solve_hour(handle)
        assert sol.status == "optimal"
        b = handle.builder
        total = lambda t: sol.values[b.p[:, t]].sum()
        assert total(4) - total(3) == pytest.approx(20.0, abs=1e-5)

    def test_impossible_ramp_priced_at_voll(self):
        system = single_bus_system([make_gen(0, 0, 10.0, 200.0, 20.0, ramp=5.0)])
        ptdf = compute_ptdf(system)
        da = constant_da(system, {0}, {0: 50.0})
        load = np.full(96, 50.0)
        load[2] = 150.0  # far beyond the 5 MW ramp capability
        scenario = Scenario(kind="training", system_load=load,
                            solar=np.zeros((0, 96)), seed_info="t")
        horizon = FmmHorizon(start=0, init=initial_state_from_da(system, da))
        handle = build_fmm_training(system, ptdf, scenario, da, horizon)
        sol = solve_hour(handle)
        assert sol.status == "optimal"
        slack = sol.value(handle.builder.short[2])
        assert slack > 80.0
        assert sol.objective > 10000.0 * 0.25 * 80.0

    def test_no_award_variables_in_training_model(self):
        system = two_gen_system()
        ptdf = compute_ptdf(system)
        da = constant_da(system, {0, 1})
        scenario = Scenario(kind="training", system_load=np.full(96, 60.0),
                            solar=np.zeros((0, 96)), seed_info="t")
        horizon = FmmHorizon(start=0, init=initial_state_from_da(system, da))
        handle = build_fmm_training(system, ptdf, scenario, da, horizon)
        assert handle.ur is None and handle.dr is None
        assert not any(n.startswith("ur[") for n in handle.model.var_names)


class TestDeltaNetload:
    def _profile(self):
        load = np.full(96, 100.0)
        solar = np.full(96, 20.0)
        return make_profile(load, solar)

    def _deployment(self, load, solar):
        return Scenario(kind=DEPLOYMENT, system_load=load,
                        solar=solar.reshape(1, -1), seed_info="d", quantile_z=1.0)

    def test_upward_case_arithmetic(self):
        profile = self._profile()
        load = np.full(96, 100.0); load[1] = 110.0
        solar = np.full(96, 20.0); solar[1] = 15.0
        dnl = delta_netload(profile, self._deployment(load, solar), 0, 7)
        assert dnl[0] == pytest.approx((110 - 15) - (100 - 20), abs=1e-12)  # +15

    def test_forecast_scenario_flat_profile_is_zero(self):
        profile = self._profile()
        dnl = delta_netload(profile, self._deployment(np.full(96, 100.0),
                                                      np.full(96, 20.0)), 0, 7)
        np.testing.assert_allclose(dnl, 0.0, atol=1e-12)

    def test_solar_jump_is_downward(self):
        profile = self._profile()
        solar = np.full(96, 20.0); solar[1:] = 50.0
        dnl = delta_netload(profile, self._deployment(np.full(96, 100.0), solar),
                            0, 7)
        assert dnl[0] == pytest.approx(-30.0, abs=1e-12)

    def test_rejects_non_deployment_scenario(self):
        profile = self._profile()
        scn = Scenario(kind="training", system_load=np.full(96, 1.0),
                       solar=np.zeros((1, 96)), seed_info="x")
        with pytest.raises(ValueError):
            delta_netload(profile, scn, 0, 7)


def build_dd_fixture(system, profile, factors=None, cfg=None, start=36,
                     ucfg=None, n_dep=2):
    ptdf = compute_ptdf(system)
    ucfg = ucfg or UncertaintyConfig(seed=3)
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da, _, _ = run_da(system, ptdf, profile)
    deployment = select_deployment_scenarios(system, profile, ucfg, n_dep)
    horizon = FmmHorizon(start=start, init=initial_state_from_da(system, da))
    factors = factors or zero_factors(system, n_dep)
    handle = build_fmm_datadriven(system, ptdf, profile, env, da, horizon,
                                  factors, deployment, cfg or FmmConfig())
    proxy = build_fmm_proxy(system, ptdf, profile, env, da, horizon,
                            cfg or FmmConfig())
    return handle, proxy


def capped_lines(system, rating=None):
    """The system with every line but line 0 rated at most ``rating``."""
    if rating is None:
        return system
    return dataclasses.replace(system, lines=tuple(
        ln if ln.id == 0 else dataclasses.replace(ln, rating=min(ln.rating, rating))
        for ln in system.lines))


class TestDataDrivenModel:
    def test_zero_factors_objective_at_least_proxy(self, bottleneck):
        system, _, profile = bottleneck
        handle, proxy = build_dd_fixture(system, profile)
        dd_sol = solve_lazy(handle.builder, handle.ptdf)
        px_sol = solve_hour(proxy)
        assert dd_sol.status == px_sol.status == "optimal"
        assert dd_sol.objective >= px_sol.objective - 1e-6 * (1 + abs(px_sol.objective))

    def test_qualified_unit_award_floor(self):
        # a 0.8 response factor forces at least 0.8 x ramp of award
        system = two_gen_system()
        profile = make_profile(np.full(96, 60.0), np.zeros(96))
        values = {0: np.zeros((96, 2)), 1: np.zeros((96, 2))}
        values[0][:, :] = 0.8
        factors = RampResponseFactors(values=values)
        handle, _ = build_dd_fixture(system, profile, factors=factors, start=0,
                                     ucfg=UncertaintyConfig(seed=3,
                                                            sigma_hourly_frac=0.05))
        sol = solve_lazy(handle.builder, handle.ptdf)
        assert sol.status == "optimal"
        g = system.generators[0]
        # each upward-classified (t, s) forces the auxiliary, hence the award
        forced = np.argwhere(handle.dnl > 0)
        assert len(forced)
        for t, s in forced:
            assert sol.value(handle.ur[0, t]) >= 0.8 * g.ramp_15 - 1e-6

    def test_generator_without_model_gets_no_aux_qual_row(self):
        # both units committed all day; with a model, unit 1 would be floored
        system = two_gen_system()
        profile = make_profile(np.full(96, 150.0), np.zeros(96))
        ucfg = UncertaintyConfig(seed=3, sigma_hourly_frac=0.05)

        def floored_units(values):
            handle, _ = build_dd_fixture(system, profile, start=0, ucfg=ucfg,
                                         factors=RampResponseFactors(values=values))
            names = handle.model.constr_names
            assert (handle.aux[1] >= 0).any()   # unit 1 still gets auxiliary awards
            return {g.id for g in system.generators
                    if any(n.startswith("aux_qual_") and f"[g{g.id}," in n for n in names)}

        assert floored_units({0: np.full((96, 2), 0.8), 1: np.full((96, 2), 0.8)}) == {0, 1}
        assert floored_units({0: np.full((96, 2), 0.8)}) == {0}

    def test_scenario_classification_splits_by_sign(self, bottleneck):
        system, _, profile = bottleneck
        handle, _ = build_dd_fixture(system, profile)
        dnl = handle.dnl
        names = handle.model.var_names
        for (t, s), move in np.ndenumerate(dnl):
            cols = handle.aux[:, t, s]
            if move == 0:
                assert (cols == -1).all()
                continue
            prefix = "ura[" if move > 0 else "dra["
            assert all(names[c].startswith(prefix) and names[c].endswith(f"t{t},s{s}]")
                       for c in cols)

    def test_coverage_invariant_holds(self, bottleneck):
        system, _, profile = bottleneck
        handle, _ = build_dd_fixture(system, profile)
        sol, _ = solve_with_cuts(handle)
        for (t, s), move in np.ndenumerate(handle.dnl):
            if move != 0:
                assert sol.values[handle.aux[:, t, s]].sum() >= abs(move) - 1e-4


class TestPostDeploymentFlows:
    def test_zero_aux_forecast_scenario_equals_base_flow(self):
        # a flat forecast with zero sigma means deployment scenarios equal the
        # forecast: nothing is classified, no auxiliaries exist, and every
        # constant flow-shift term vanishes, so post-deployment flows are the
        # pre-activation flows wherever the formula applies
        system = bottleneck_system()
        profile = make_profile(np.full(96, 950.0), np.full(96, 20.0))
        ucfg = UncertaintyConfig(seed=3, sigma_hourly_frac=0.0)
        handle, _ = build_dd_fixture(system, profile, ucfg=ucfg, start=0)
        assert np.all(handle.dnl == 0.0)
        assert (handle.aux == -1).all()
        np.testing.assert_array_equal(handle.flow_const, 0.0)
        sol = solve_lazy(handle.builder, handle.ptdf)
        for s in range(2):
            for direction in (UP, DOWN):
                assert np.isnan(post_deployment_flows(handle, sol, s, direction)).all()

    def test_two_bus_aux_shifts_flow_by_ptdf(self):
        system = PowerSystem(
            buses=(Bus(0), Bus(1)),
            lines=(TransmissionLine(0, 0, 1, 0.1, 1000.0),),
            generators=(
                make_gen(0, 1, 0.0, 100.0, 20.0, ramp=50.0),
                make_gen(1, 0, 0.0, 100.0, 30.0, ramp=50.0),
            ),
            solar_units=(),
            load_participation=np.array([1.0, 0.0]),
            slack_bus=0,
        )
        load = np.full(96, 50.0)
        load[1:] = 60.0  # upward forecast move classifies scenarios upward
        profile = make_profile(load, None, shares=())
        handle, _ = build_dd_fixture(system, profile, start=0,
                                     ucfg=UncertaintyConfig(seed=1))
        sol = solve_lazy(handle.builder, handle.ptdf)
        base = handle.builder.base_flows(sol, handle.ptdf)
        s_up = int(np.argmax(handle.dnl[0, :]))
        flows = post_deployment_flows(handle, sol, s_up, UP)
        aux0 = sol.value(handle.aux[0, 0, s_up])
        const = handle.flow_const[0, 0, s_up]
        # gen 0 sits on bus 1 (ptdf -1), gen 1 on the slack (ptdf 0)
        expected = base[0, 0] - aux0 + const
        assert flows[0, 0] == pytest.approx(expected, abs=1e-8)

    def test_recomputed_flow_matches_dc_oracle(self, bottleneck):
        system, ptdf, profile = bottleneck
        handle, _ = build_dd_fixture(system, profile)
        sol, _ = solve_with_cuts(handle)
        directed = 0
        for s, scn in enumerate(handle.deployment):
            for t in range(6):
                oracle = post_deployment_oracle(system, handle.model, sol, profile, scn,
                                                handle.horizon.start, t, s)
                flows = [post_deployment_flows(handle, sol, s, d)[:, t] for d in (UP, DOWN)]
                got = [f for f in flows if not np.isnan(f).all()]
                if oracle is None:
                    assert not got
                    continue
                directed += 1
                assert len(got) == 1
                np.testing.assert_allclose(got[0], oracle, atol=1e-8)
        assert directed


class TestCutLoop:
    def test_unconstrained_network_zero_cuts(self):
        system = bottleneck_system()
        big_lines = tuple(dataclasses.replace(ln, rating=1e6)
                          for ln in system.lines)
        system = dataclasses.replace(system, lines=big_lines)
        profile = bottleneck_profile()
        handle, _ = build_dd_fixture(system, profile)
        sol, cuts = solve_with_cuts(handle)
        assert cuts == []
        assert sol.status == "optimal"

    def test_bottleneck_generates_cuts_and_migrates_awards(self, bottleneck):
        system, _, profile = bottleneck
        handle, proxy = build_dd_fixture(system, profile, start=72)
        px_sol = solve_hour(proxy)
        # the stranded unit holds requirement under the proxy policy
        ur_proxy = sum(px_sol.value(proxy.ur[0, t]) for t in range(6))
        assert ur_proxy > 0.0
        sol, cuts = solve_with_cuts(handle)
        assert len(cuts) >= 1
        assert all(c.line_id == 0 for c in cuts)  # only the bottleneck line
        ur_dd = sum(sol.value(handle.ur[0, t]) for t in range(6))
        assert ur_dd <= 1e-3
        # every post-deployment flow is now within its line's rating
        ratings = np.array([ln.rating for ln in system.lines])
        for s in range(len(handle.deployment)):
            for direction in (UP, DOWN):
                flows = post_deployment_flows(handle, sol, s, direction)
                with np.errstate(invalid="ignore"):
                    excess = np.abs(flows) - ratings[:, None]
                    assert np.nanmax(excess, initial=0.0) <= 1e-4

    def test_cut_count_bounded(self, bottleneck):
        system, _, profile = bottleneck
        handle, _ = build_dd_fixture(system, profile, start=72)
        _, cuts = solve_with_cuts(handle)
        t_count, k_count = 6, len(system.lines)
        s_count = len(handle.deployment)
        assert len(cuts) <= 2 * t_count * k_count * s_count
        keys = [(c.line_id, c.t, c.scenario, c.direction) for c in cuts]
        assert len(keys) == len(set(keys))

    def test_objective_nondecreasing_vs_proxy_after_cuts(self, bottleneck):
        system, _, profile = bottleneck
        handle, proxy = build_dd_fixture(system, profile, start=72)
        exact = SolveOptions(mip_rel_gap=1e-9)
        sol, _ = solve_with_cuts(handle, options=exact)
        px = solve_hour(proxy, exact)
        assert sol.objective >= px.objective - 1e-6 * (1 + abs(px.objective))


    @pytest.mark.parametrize("other_rating, n_dep", [(None, 2), (600.0, 4)])
    def test_exhausted_round_budget_names_budget_count_and_worst_line(
            self, bottleneck, other_rating, n_dep):
        system, _, profile = bottleneck
        system = capped_lines(system, other_rating)
        # the same hour solved without cuts shows the violations the loop meets
        free, _ = build_dd_fixture(system, profile, start=72, n_dep=n_dep)
        sol = solve_lazy(free.builder, free.ptdf)
        ratings = np.array([ln.rating for ln in system.lines])[:, None]
        found = []
        for s in range(len(free.deployment)):
            for direction in (UP, DOWN):
                with np.errstate(invalid="ignore"):
                    excess = np.abs(post_deployment_flows(free, sol, s, direction)) - ratings
                found += [(excess[k, t], k) for k, t in np.argwhere(excess > 1e-4)]
        assert found
        worst, line = max(found)
        handle, _ = build_dd_fixture(system, profile, start=72, n_dep=n_dep,
                                     cfg=FmmConfig(max_cut_rounds=0))
        with pytest.raises(CutLoopError,
                           match=rf"exhausted 0 rounds with {len(found)} violations remaining "
                                 rf"\(worst {worst:.4f} MW on line {line}\)"):
            solve_with_cuts(handle)
        assert handle.cuts == []

    def test_exhausted_round_budget_in_a_rolled_day_names_policy_and_hour(
            self, bottleneck, monkeypatch):
        system, ptdf, profile = bottleneck
        ucfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        build = fmm.build_fmm_datadriven

        def no_rounds_at_hour_18(*args):
            handle = build(*args)
            if handle.horizon.start == 72:
                handle.cfg = FmmConfig(max_cut_rounds=0)
            return handle

        monkeypatch.setattr(fmm, "build_fmm_datadriven", no_rounds_at_hour_18)
        with pytest.raises(HourSolveError, match=r"^datadriven hour 18, scenario forecast: "
                                                 r"cut loop exhausted 0 rounds") as info:
            run_fmm_day(system, ptdf, profile, env, da, "datadriven",
                        factors=zero_factors(system, 2),
                        deployment=select_deployment_scenarios(system, profile, ucfg, 2),
                        n_intervals=76)
        assert isinstance(info.value.__cause__, CutLoopError)

    @pytest.mark.parametrize("other_rating, n_dep, groups", [(None, 2, 1), (600.0, 4, 3)])
    def test_cut_records_match_cut_rows_in_order(self, bottleneck, other_rating, n_dep,
                                                  groups):
        """The bottleneck hour's cuts all lie on one line, scenario and
        bound; capping the other lines at 600 MW with four deployment
        scenarios spreads its one round over two of each."""
        system, _, profile = bottleneck
        system = capped_lines(system, other_rating)
        handle, _ = build_dd_fixture(system, profile, start=72, n_dep=n_dep)
        _, cuts = solve_with_cuts(handle)
        names = [n for n in handle.model.constr_names if n.startswith("dep_flow[")]
        assert names == [f"dep_flow[k{c.line_id},t{c.t},s{c.scenario},{c.direction}]"
                         for c in cuts]
        # within a round: scenario, up before down, upper before lower, line, move
        index = {ln.id: k for k, ln in enumerate(system.lines)}
        keys = [(c.round_added, c.scenario, c.direction == DOWN, c.bound == "lower",
                 index[c.line_id], c.t) for c in cuts]
        assert keys == sorted(keys)
        assert len({key[:5] for key in keys}) == groups


class TestObjectiveDecomposition:
    """The objective splits into the costs the program reports and the penalties.

    Award and shortfall columns are found by name, so the split is computed
    without the handle's index structures.
    """

    @staticmethod
    def _named(model, sol, prefix):
        return sum(sol.values[i] for i, n in enumerate(model.var_names)
                   if n.startswith(prefix))

    def _hours(self, system, ptdf, profile):
        handle, proxy = build_dd_fixture(system, profile, start=72)
        dd_sol, cuts = solve_with_cuts(handle)
        assert cuts
        da, _, _ = run_da(system, ptdf, profile)
        horizon = FmmHorizon(start=72, init=initial_state_from_da(system, da))
        ucfg = UncertaintyConfig(seed=3)
        training = build_fmm_training(
            system, ptdf, sample_scenarios(system, profile, ucfg, 1, TRAINING)[0],
            da, horizon)
        ramps = {g.id: np.full(96, g.ramp_15) for g in system.generators}
        awards = FmmAwards(gen_ids=list(ramps), p=ramps, u=ramps, ur=ramps, dr=ramps)
        oos = sample_scenarios(system, profile, ucfg, 1, OUT_OF_SAMPLE)[0]
        validation = build_rtuc_hour(system, ptdf, awards, da, oos, horizon)
        yield handle, dd_sol
        for h in (proxy, training, validation):
            yield h, solve_hour(h)

    def test_objective_is_costs_plus_penalties(self, bottleneck):
        system, ptdf, profile = bottleneck
        for handle, sol in self._hours(system, ptdf, profile):
            assert sol.status == "optimal"
            m = handle.model
            penalty = handle.cfg.voll * 0.25
            cost, viol = handle.builder.interval_costs(sol)
            frp = sum(g.frp_up_cost * self._named(m, sol, f"ur[g{g.id},")
                      + g.frp_down_cost * self._named(m, sol, f"dr[g{g.id},")
                      for g in system.generators)
            shortfall = sum(self._named(m, sol, p)
                            for p in ("fr_up_short[", "fr_dn_short[", "cover_"))
            total = cost.sum() + penalty * viol.sum() + frp + penalty * shortfall
            assert total == pytest.approx(sol.objective, rel=1e-9)

    def test_matrix_refuses_a_repeated_column(self, bottleneck):
        # the matrix build would add up a repeated column's coefficients
        m = MilpModel()
        x, y = m.add_vars([Cols("x", (0,)), Cols("y", (1,))])
        m.add_rows([Rows("ok", (0,), terms=[(x, 1.0), (y, 1.0)], hi=1.0),
                    Rows("twice", (1,), terms=[([x, y, x], [1.0, 2.0, 3.0])], hi=1.0)])
        with pytest.raises(ModelError, match="'twice' lists a column twice"):
            m.validate()
        # no row of a 5-bus model the program builds repeats a column
        system, ptdf, profile = bottleneck
        models = [run_da(system, ptdf, profile)[2].model]
        models += [h.model for h, _ in self._hours(system, ptdf, profile)]
        assert len(models) == 5
        for model in models:
            model.validate()


class TestPolicyCostOrdering:
    @pytest.mark.parametrize("seed", range(10))
    def test_datadriven_at_least_proxy_on_random_instances(self, seed):
        rng = np.random.default_rng(seed + 400)
        n_buses = 5
        lines = []
        for b in range(1, n_buses):
            lines.append(TransmissionLine(len(lines), int(rng.integers(0, b)), b,
                                          float(rng.uniform(0.05, 0.3)),
                                          float(rng.uniform(120, 400))))
        for _ in range(2):
            a, b = rng.choice(n_buses, size=2, replace=False)
            lines.append(TransmissionLine(len(lines), int(a), int(b),
                                          float(rng.uniform(0.05, 0.3)),
                                          float(rng.uniform(120, 400))))
        gens = []
        for g in range(3):
            pmax = float(rng.uniform(80, 250))
            pmin = round(0.2 * pmax, 1)
            gens.append(make_gen(
                g, int(rng.integers(0, n_buses)), pmin, round(pmax, 1),
                round(float(rng.uniform(18, 45)), 2),
                ramp=round(float(rng.uniform(0.2, 0.6) * pmax), 1),
                min_up=2, min_down=2,
                frp_up=round(float(rng.uniform(0.1, 1.0)), 2),
                frp_down=round(float(rng.uniform(0.1, 1.0)), 2)))
        part = rng.uniform(0.1, 1.0, size=n_buses)
        part /= part.sum()
        system = PowerSystem(
            buses=tuple(Bus(i) for i in range(n_buses)), lines=tuple(lines),
            generators=tuple(gens), solar_units=(SolarUnit(0, 2, 60.0, 1.0),),
            load_participation=part, slack_bus=0,
        )
        base = float(rng.uniform(0.5, 0.75)) * sum(g.p_max for g in gens)
        t = np.arange(96) / 4.0
        load = base * (1 + 0.15 * np.sin(t / 24 * 2 * np.pi + rng.uniform(0, 6)))
        sun = np.clip(np.cos((t - 12.5) / 6.5 * np.pi), 0, None)
        profile = make_profile(np.round(load, 2), np.round(40 * sun, 2))
        factor_vals = {
            g.id: np.clip(rng.normal(0, 0.3, size=(96, 2)), -1, 1) for g in gens
        }
        try:
            handle, proxy = build_dd_fixture(
                system, profile, factors=RampResponseFactors(values=factor_vals),
                start=int(rng.integers(0, 24)) * 4,
                ucfg=UncertaintyConfig(seed=seed), cfg=FmmConfig(max_cut_rounds=30),
            )
        except ValueError:
            pytest.skip("random instance infeasible at build time")
        # near-exact solves so the superset ordering is meaningful at 1e-6
        exact = SolveOptions(mip_rel_gap=1e-9)
        px = solve_hour(proxy, exact)
        assert px.status == "optimal"
        sol, _ = solve_with_cuts(handle, options=exact)
        assert sol.objective >= px.objective - 1e-6 * (1 + abs(px.objective))


class TestForecastFollowingResponse:
    def test_predicted_factors_track_forecast_following_dispatch(self, bottleneck):
        """A zero-variability deployment scenario should elicit predictions
        close to the units' actual normalized moves when re-dispatching the
        plain forecast."""
        from frpsim.learner import (RampResponseFactors, TrainConfig,
                                    build_targets, predict_factors, train)
        from frpsim.fmm import run_training_day
        from frpsim.scenarios import sample_scenarios

        system, ptdf, profile = bottleneck
        cfg = UncertaintyConfig(seed=21)
        da, _, _ = run_da(system, ptdf, profile)
        training = sample_scenarios(system, profile, cfg, 12, "training")
        pairs = [(scn, run_training_day(system, ptdf, scn, da)) for scn in training]
        models = train(build_targets(pairs, system, seed=21),
                       TrainConfig(hidden=(32, 16), epochs=40, seed=21))

        # ground truth: the executed moves when the realization IS the forecast
        forecast_scn = Scenario(kind="training", system_load=profile.load15,
                                solar=profile.solar15, seed_info="forecast")
        truth = run_training_day(system, ptdf, forecast_scn, da)
        zero_sigma = UncertaintyConfig(sigma_hourly_frac=0.0, seed=21)
        deployment = select_deployment_scenarios(system, profile, zero_sigma, 2)
        factors = predict_factors(models, deployment)
        for gen in system.must_run_generators():
            actual = np.diff(truth.dispatch[gen.id]) / gen.ramp_15
            predicted = factors.values[gen.id][:95, 0]
            mae = np.abs(predicted - np.clip(actual, -1, 1)).mean()
            assert mae <= 0.15, f"generator {gen.id} drifts: MAE {mae:.3f}"


class TestDayRoll:
    def test_awards_filled_for_all_binding_intervals(self, bottleneck):
        system, ptdf, profile = bottleneck
        ucfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        run = run_fmm_day(system, ptdf, profile, env, da, "proxy")
        assert run.awards.n_intervals == 96
        assert run.cost > 0
        # the flat-at-rating unit never moves, so its dispatch is always 300
        assert np.allclose(run.awards.p[0], 300.0, atol=1e-4)

    def test_datadriven_requires_artifacts(self, bottleneck):
        system, ptdf, profile = bottleneck
        ucfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        with pytest.raises(ValueError, match="response factors"):
            run_fmm_day(system, ptdf, profile, env, da, "datadriven")


class TestRollDay:
    def test_failed_hour_names_policy_hour_and_scenario(self):
        from frpsim.fmm import HourSolveError, roll_day

        system = two_gen_system()
        ptdf = compute_ptdf(system)
        da = constant_da(system, {0, 1}, {0: 40.0, 1: 20.0})
        scenario = Scenario(kind="training", system_load=np.full(96, 60.0),
                            solar=np.zeros((0, 96)), seed_info="t")

        def build_hour(horizon):
            handle = build_fmm_training(system, ptdf, scenario, da, horizon)
            if horizon.start == 8:   # hour 2 demands more than unit 0 can make
                handle.model.add_rows([Rows("over_pmax", (0,),
                                            terms=[(handle.builder.p[0, 0], 1.0)], lo=1000.0)])
            return handle

        with pytest.raises(HourSolveError, match=r"training hour 2, scenario s7: solve "
                                                 r"ended infeasible \(The problem is "
                                                 r"infeasible\. \(HiGHS Status 8: "):
            roll_day(system, da, build_hour, "training", scenario="s7")

    def test_only_whole_hours_of_one_day_roll(self):
        from frpsim.fmm import roll_day

        system = two_gen_system()
        ptdf = compute_ptdf(system)
        da = constant_da(system, {0, 1}, {0: 40.0, 1: 20.0})
        scenario = Scenario(kind="training", system_load=np.full(96, 60.0),
                            solar=np.zeros((0, 96)), seed_info="t")

        def build_hour(horizon):
            return build_fmm_training(system, ptdf, scenario, da, horizon)

        for n in (0, 2, 10, 100):
            with pytest.raises(ValueError, match="multiple of 4"):
                roll_day(system, da, build_hour, "training", n_intervals=n)
        traj = roll_day(system, da, build_hour, "training", n_intervals=8)
        assert traj.p.shape == (2, 8)
        # every interval rolled carries the load
        assert traj.p.sum(axis=0) == pytest.approx(np.full(8, 60.0))

    def test_hour_solve_error_pickles_with_message_and_attributes(self):
        import pickle

        from frpsim.fmm import HourSolveError

        err = pickle.loads(pickle.dumps(HourSolveError("datadriven", 5, 3, "solve ended limit")))
        assert isinstance(err, HourSolveError)
        assert str(err) == "datadriven hour 5, scenario 3: solve ended limit"
        assert (err.policy, err.hour, err.scenario, err.detail) == ("datadriven", 5, 3,
                                                                    "solve ended limit")
