"""Lazy base-case line limits: rows on demand, checked against all-lines builds.

Market models start without line rows and ``ucbase.solve_lazy`` adds the
rows of every line a solve overloads.  These tests compare that loop with
models that carry every line row from the start, recompute line flows from
the solved dispatch without the program's flow code, and check the named
error for an overload that survives its own rows.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from frpsim import dayahead
from frpsim.dayahead import DaCommitments, initial_state_from_da, run_da
from frpsim.fmm import (FmmAwards, FmmHorizon, HourSolveError, build_fmm_proxy,
                        build_fmm_training, roll_day, solve_hour, solve_with_cuts)
from frpsim.milp import MilpSolution, SolveOptions, solve
from frpsim.network import PtdfMatrix, compute_ptdf, nodal_injections
from frpsim.scenarios import (OUT_OF_SAMPLE, TRAINING, UncertaintyConfig, load_profiles,
                              proxy_envelopes, sample_scenarios)
from frpsim.ucbase import SolveError, UcModelBuilder, cold_start_state
from frpsim.validation import build_rtuc_hour
from test_fmm import build_dd_fixture
from util import worst_line_overload

INPUTS_118 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "ieee118_inputs.npz"


def all_lines(handle):
    """The hour model as it was built before line rows became lazy."""
    handle.builder.add_line_limits(handle.ptdf, range(len(handle.system.lines)))
    return handle


def line_row_names(model):
    return [n for n in model.constr_names if n.startswith("line[")]


def half_ptdf(ptdf):
    """A PTDF whose rows let every line carry twice its rating."""
    return PtdfMatrix(values=0.5 * ptdf.values, slack_bus=ptdf.slack_bus)


def assert_within_gap(lazy, eager, gap):
    assert lazy.status == eager.status == "optimal"
    assert lazy.objective == pytest.approx(eager.objective, rel=gap, abs=1e-6)


# ------------------------------------------------------------------ builder

class TestAddLineLimits:
    def _builder(self, bottleneck, n_intervals=3):
        system, _, profile = bottleneck
        b = UcModelBuilder(system, n_intervals, 0.25, cold_start_state(system))
        n_gens = len(system.generators)
        b.add_commitment(np.zeros((n_gens, n_intervals)), np.ones((n_gens, n_intervals)),
                         min_updown=np.zeros(n_gens, dtype=bool))
        b.add_dispatch()
        b.add_ramps()
        ts = np.arange(n_intervals)
        b.add_network(*nodal_injections(system, profile.load15[ts], profile.solar15[:, ts]))
        return b

    def test_subset_adds_only_listed_lines(self, bottleneck):
        system, ptdf, _ = bottleneck
        b = self._builder(bottleneck)
        before = b.model.n_constrs
        b.add_line_limits(ptdf, [0, 3])
        assert b.lines == {0, 3}
        assert sorted(line_row_names(b.model)) == sorted(
            f"line[k{system.lines[k].id},t{t}]" for k in (0, 3) for t in range(3))
        assert b.model.n_constrs == before + 6

    def test_repeated_lines_added_once(self, bottleneck):
        _, ptdf, _ = bottleneck
        b = self._builder(bottleneck)
        b.add_line_limits(ptdf, [1, 1, 2])
        n = b.model.n_constrs
        b.add_line_limits(ptdf, [2, 1])
        b.add_line_limits(ptdf, [])
        assert b.model.n_constrs == n
        b.add_line_limits(ptdf, [2, 4, 4])
        assert b.model.n_constrs == n + 3
        assert b.lines == {1, 2, 4}
        names = line_row_names(b.model)
        assert len(names) == len(set(names)) == 9

    def test_base_flows_match_independent_recomputation(self, bottleneck):
        system, ptdf, profile = bottleneck
        b = self._builder(bottleneck)
        sol = solve(b.model)
        assert sol.status == "optimal"
        flows = b.base_flows(sol, ptdf)
        ratings = np.array([ln.rating for ln in system.lines])
        ts = np.arange(3)
        worst = worst_line_overload(system, ptdf, b, sol, profile.load15[ts],
                                    profile.solar15[:, ts])
        assert (np.abs(flows) - ratings[:, None]).max() == pytest.approx(worst, abs=1e-9)

    def test_overloaded_line_already_in_model_is_named(self, bottleneck):
        system, ptdf, _ = bottleneck
        b = self._builder(bottleneck)
        b.add_line_limits(ptdf, [0])
        sol = solve(b.model)
        values = sol.values.copy()
        # push 100 MW more out of bus 1 at interval 2: line 0 overloads
        values[b.inj(1, 2)] += 100.0
        values[b.inj(0, 2)] -= 100.0
        forged = MilpSolution(status="optimal", objective=sol.objective, values=values)
        with pytest.raises(SolveError, match="line 0 exceeds its rating by .* "
                                                 "at interval 2"):
            b.add_overloaded_lines(forged, ptdf)


# ------------------------------------------------------------ the shared loop

class TestLazyAgainstAllLines:
    @pytest.mark.parametrize("start", [0, 36, 68, 72])
    def test_bottleneck_hours(self, bottleneck, start):
        system, ptdf, profile = bottleneck
        ucfg = UncertaintyConfig(seed=7)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        horizon = FmmHorizon(start=start, init=initial_state_from_da(system, da))
        scn = sample_scenarios(system, profile, ucfg, 1, TRAINING)[0]
        ts = np.arange(start, start + horizon.length)
        gap = SolveOptions().mip_rel_gap
        for build, load, solar in (
                (lambda: build_fmm_proxy(system, ptdf, profile, env, da, horizon),
                 profile.load15, profile.solar15),
                (lambda: build_fmm_training(system, ptdf, scn, da, horizon),
                 scn.system_load, scn.solar)):
            lazy = build()
            sol = solve_hour(lazy)
            assert_within_gap(sol, solve(all_lines(build()).model), gap)
            assert worst_line_overload(system, ptdf, lazy.builder, sol,
                                       load[ts], solar[:, ts]) <= 1e-6
        dd, _ = build_dd_fixture(system, profile, start=start, ucfg=ucfg)
        dd_eager, _ = build_dd_fixture(system, profile, start=start, ucfg=ucfg)
        sol, cuts = solve_with_cuts(dd)
        eager_sol, eager_cuts = solve_with_cuts(all_lines(dd_eager))
        assert_within_gap(sol, eager_sol, gap)
        assert worst_line_overload(system, ptdf, dd.builder, sol, profile.load15[ts],
                                   profile.solar15[:, ts]) <= 1e-6
        # cuts are only generated on base-feasible solves
        assert len(cuts) == len(eager_cuts)

    def test_day_ahead(self, bottleneck):
        system, ptdf, profile = bottleneck
        _, sol, builder = run_da(system, ptdf, profile)
        eager = dayahead.build_da_model(system, profile)
        eager.add_line_limits(ptdf, range(len(system.lines)))
        assert_within_gap(sol, solve(eager.model), SolveOptions().mip_rel_gap)
        assert builder.lines < set(range(len(system.lines)))
        assert worst_line_overload(system, ptdf, builder, sol,
                                   profile.hourly_load, profile.solar_hourly) <= 1e-6

    @pytest.mark.slow
    def test_118_bus_trading_hours(self, system118, data_dir):
        data = np.load(INPUTS_118)
        ids = [int(g) for g in data["gen_ids"]]
        assert ids == [g.id for g in system118.generators]
        da = DaCommitments(u_hourly={g: data["da_u"][i] for i, g in enumerate(ids)},
                           dispatch_hourly={g: data["da_p"][i] for i, g in enumerate(ids)},
                           objective=float(data["da_objective"]))
        awards = FmmAwards(gen_ids=ids, **{
            k: {g: data[f"awards_datadriven_{k}"][i] for i, g in enumerate(ids)}
            for k in ("p", "u", "ur", "dr")})
        ptdf = compute_ptdf(system118)
        profile = load_profiles(data_dir / "profiles" / "day1", system118.solar_units)
        ucfg = UncertaintyConfig(seed=7)
        train = sample_scenarios(system118, profile, ucfg, 1, TRAINING)[0]
        oos = sample_scenarios(system118, profile, ucfg, 1, OUT_OF_SAMPLE)[0]
        options = SolveOptions(mip_rel_gap=1e-3)
        init = initial_state_from_da(system118, da)
        for hour in (0, 10, 18):
            horizon = FmmHorizon(start=4 * hour, init=init)
            ts = np.arange(horizon.start, horizon.start + horizon.length)
            for build, realized in (
                    (lambda: build_fmm_training(system118, ptdf, train, da, horizon), train),
                    (lambda: build_rtuc_hour(system118, ptdf, awards, da, oos, horizon),
                     oos)):
                lazy = build()
                sol = solve_hour(lazy, options)
                eager = all_lines(build())
                assert lazy.model.n_constrs < eager.model.n_constrs
                assert_within_gap(sol, solve(eager.model, options), options.mip_rel_gap)
                assert worst_line_overload(system118, ptdf, lazy.builder, sol,
                                           realized.system_load[ts],
                                           realized.solar[:, ts]) <= 1e-6


# ------------------------------------------------------------- named errors

class TestPersistingOverload:
    def test_rolled_hour_names_policy_hour_scenario_and_line(self, bottleneck):
        system, ptdf, profile = bottleneck
        da, _, _ = run_da(system, ptdf, profile)
        scn = sample_scenarios(system, profile, UncertaintyConfig(seed=7), 1, TRAINING)[0]
        # the bottleneck unit behind line 0 is cheap: with rows that let line 0
        # carry twice its rating, the full-PTDF check finds it overloaded
        # although its rows are in the model

        def build_hour(horizon):
            handle = build_fmm_training(system, ptdf, scn, da, horizon)
            handle.builder.add_line_limits(half_ptdf(ptdf), [0])
            return handle

        with pytest.raises(HourSolveError, match=r"training hour \d+, scenario s9: "
                                                 r"line 0 exceeds its rating"):
            roll_day(system, da, build_hour, "training", scenario="s9")

    def test_day_ahead_names_stage_and_line(self, bottleneck, monkeypatch):
        system, ptdf, profile = bottleneck
        build = dayahead.build_da_model

        def with_loose_rows(*a, **kw):
            builder = build(*a, **kw)
            builder.add_line_limits(half_ptdf(ptdf), [0])
            return builder

        monkeypatch.setattr(dayahead, "build_da_model", with_loose_rows)
        with pytest.raises(RuntimeError, match="day-ahead solve failed: line 0 exceeds"):
            run_da(system, ptdf, profile)
