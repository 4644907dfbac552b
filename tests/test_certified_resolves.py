"""Certified solves: start from the LP relaxation, then try the last commitment.

``ucbase.solve_lazy`` first solves the model's LP relaxation (``milp.relax``)
and runs its line rounds on it.  An integral relaxation is the optimum.  A
fractional one goes to ``milp.solve(model, options, previous)``, which fixes
the binaries integral in ``previous``, solves a MIP over the rest and
returns it as optimal when its cost is within ``mip_rel_gap`` of
``previous.dual_bound``; otherwise it solves the MIP cold.  A round that
adds rows hands ``solve`` the round before it the same way.  Within one
``solve_lazy`` every LP after the first re-runs the HiGHS that solved the
LP before it (``milp.warm_lps``) until a MIP drops it.  Hand-built models
cover each branch.  Rolled 5-bus days and one 118-bus training hour
check every result against ``check_solution`` and a cold
``scipy.optimize.milp`` solve of the same arrays.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from frpsim import dayahead, fmm, milp, ucbase
from frpsim.dayahead import DaCommitments, run_da
from frpsim.fmm import run_fmm_day, run_training_day
from frpsim.milp import (Cols, MilpModel, ModelError, Rows, SolveOptions, check_solution,
                         solve)
from frpsim.network import compute_ptdf
from frpsim.scenarios import (OUT_OF_SAMPLE, TRAINING, UncertaintyConfig, load_profiles,
                              proxy_envelopes, sample_scenarios,
                              select_deployment_scenarios)
from frpsim.validation import PROXY, run_rtuc_validation
from test_fmm import zero_factors

GAP = SolveOptions(mip_rel_gap=1e-4)


def two_units(shortfall_cost=None, load=80.0, fixed_a=10.0, slope_b=2.0, fixed_b=50.0):
    """Unit a (10 fixed, 1/MW) and unit b (50 fixed, 2/MW), 100 MW each, serve 80 MW.

    The optimum runs a alone at a cost of 90.  With ``shortfall_cost`` an
    unserved-load column priced at that cost joins the balance row; the
    other keywords change the load, a's fixed cost and b's costs.  Returns
    the model and the power columns of a and b.
    """
    m = MilpModel()
    unit, name = np.arange(2), np.array(["a", "b"])
    families = [Cols("u_{}", (unit, 0), (name,), binary=True, cost=[fixed_a, fixed_b]),
                Cols("p_{}", (unit, 1), (name,), ub=100.0, cost=[1.0, slope_b])]
    if shortfall_cost is not None:
        families.append(Cols("short", (2, 0), cost=shortfall_cost))
    u, p, *short = m.add_vars(families)
    m.add_rows([Rows("cap_{}", (unit,), (name,), [(p, 1.0), (u, -100.0)], hi=0.0),
                Rows("balance", (2,), terms=[(p, 1.0)] + [(c, 1.0) for c in short],
                     lo=load, hi=load)])
    return m, p


def limit_a(model, p, hi):
    """Cap unit a's power at ``hi``."""
    model.add_rows([Rows("limit_a", (0,), terms=[(p[0], 1.0)], hi=hi)])


@pytest.fixture()
def highs_calls(monkeypatch):
    """Integrality count of every backend call ``milp.relax`` and
    ``milp.solve`` make, each made through ``milp._highs_milp``."""
    calls = []
    highs_milp = milp._highs_milp

    def counted(model, integrality, *args):
        calls.append(int(np.count_nonzero(integrality)))
        return highs_milp(model, integrality, *args)

    monkeypatch.setattr(milp, "_highs_milp", counted)
    return calls


class TestFallbacks:
    def test_costly_lp_returns_the_cold_optimum(self, highs_calls):
        m, p = two_units(shortfall_cost=100.0)
        first = solve(m, GAP)
        assert first.objective == pytest.approx(90.0)
        # unit a alone now leaves 40 MW unserved: feasible, but 4,050
        limit_a(m, p, 40.0)
        highs_calls.clear()
        sol = solve(m, GAP, first)
        assert highs_calls == [0, 2]
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(180.0)   # both units on
        assert sol.objective == pytest.approx(solve(m, GAP).objective)
        assert not sol.message.startswith("certified")

    def test_infeasible_lp_returns_the_cold_optimum(self, highs_calls):
        m, p = two_units()
        first = solve(m, GAP)
        limit_a(m, p, 40.0)
        highs_calls.clear()
        sol = solve(m, GAP, first)
        assert highs_calls == [0, 2]
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(180.0)

    def test_nan_dual_bound_skips_the_lp(self, highs_calls):
        m, p = two_units()
        first = solve(m, GAP)
        limit_a(m, p, 95.0)
        highs_calls.clear()
        sol = solve(m, GAP, dataclasses.replace(first, dual_bound=math.nan))
        assert highs_calls == [2]
        assert sol.objective == pytest.approx(90.0)
        assert not sol.message.startswith("certified")

    def test_certified_gap_within_mip_rel_gap(self, highs_calls):
        m, p = two_units(shortfall_cost=100.0)
        options = SolveOptions(mip_rel_gap=0.02)
        first = solve(m, options)
        # unit a alone now costs 90.99, 1.09% above the bound of 90
        limit_a(m, p, 79.99)
        highs_calls.clear()
        sol = solve(m, options, first)
        assert highs_calls == [0]
        assert sol.status == "optimal" and sol.message.startswith("certified")
        assert sol.objective == pytest.approx(90.99)
        assert sol.dual_bound == first.dual_bound
        assert 0.0 < sol.mip_gap <= options.mip_rel_gap
        assert sol.mip_gap == pytest.approx((90.99 - first.dual_bound) / 90.99)
        assert check_solution(m, sol).ok

    def test_dual_bound_of_a_cold_mip(self):
        m, p = two_units()
        sol = solve(m, GAP)
        assert math.isfinite(sol.dual_bound)
        assert sol.dual_bound <= sol.objective
        m.add_rows([Rows("too_much", (0,), terms=[(p, 1.0)], lo=300.0)])
        infeasible = solve(m, GAP)
        assert infeasible.status == "infeasible"
        assert math.isnan(infeasible.dual_bound)

    def test_previous_of_another_model_rejected(self):
        m, _ = two_units()
        first = solve(m, GAP)
        m.add_vars([Cols("extra", (0,))])
        with pytest.raises(ModelError, match="previous solution"):
            solve(m, GAP, first)


class NoLines:
    """Stands in for a ``UcModelBuilder``: a hand-built model whose solutions
    overload no line."""

    def __init__(self, model):
        self.model = model

    def add_overloaded_lines(self, sol, ptdf):
        return 0


class TestRelaxationStart:
    def test_integral_relaxation_needs_no_mip(self, highs_calls):
        # 100 MW fills unit a: the relaxation commits it in full
        m, _ = two_units(load=100.0)
        sol = ucbase.solve_lazy(NoLines(m), None, GAP)
        assert highs_calls == [0]
        assert sol.status == "optimal" and sol.message.startswith("certified")
        assert sol.objective == pytest.approx(110.0)
        assert sol.mip_gap == 0.0 and sol.dual_bound == sol.objective
        assert check_solution(m, sol).ok

    def test_fractional_relaxation_certified_by_its_fractional_binaries(self, highs_calls):
        # the relaxation runs a at u = 0.8 for 88; a MIP over u_a alone
        # commits it for 90, 2.2% above the bound
        m, _ = two_units()
        options = SolveOptions(mip_rel_gap=0.05)
        sol = ucbase.solve_lazy(NoLines(m), None, options)
        assert highs_calls == [0, 1]
        assert sol.status == "optimal" and sol.message.startswith("certified")
        assert sol.objective == pytest.approx(90.0)
        assert sol.dual_bound == pytest.approx(88.0)
        assert sol.mip_gap == pytest.approx(2.0 / 90.0)
        assert check_solution(m, sol).ok

    def test_result_above_the_gap_returns_the_cold_optimum(self, highs_calls):
        # a (100 fixed, 1/MW) relaxes to u = 0.1 for 20 and b (5 fixed,
        # 3/MW) stays at 0; fixing b off leaves a alone at 110, but b alone
        # serves the 10 MW for 35
        m, _ = two_units(load=10.0, fixed_a=100.0, fixed_b=5.0, slope_b=3.0)
        sol = ucbase.solve_lazy(NoLines(m), None, GAP)
        assert highs_calls == [0, 1, 2]
        assert sol.status == "optimal" and not sol.message.startswith("certified")
        assert sol.objective == pytest.approx(35.0)

    def test_infeasible_relaxation_reports_infeasible(self, highs_calls):
        m, _ = two_units(load=300.0)
        sol = ucbase.solve_lazy(NoLines(m), None, GAP)
        assert highs_calls == [0, 2]
        assert sol.status == "infeasible"

    def test_line_rounds_run_on_the_relaxation(self, highs_calls):
        class OneLine(NoLines):
            def add_overloaded_lines(self, sol, ptdf):
                if "line" in self.model.constr_names:
                    return 0
                self.model.add_rows([Rows("line", (0,), terms=[(p[0], 1.0)], hi=60.0)])
                return 1

        m, p = two_units(load=100.0)
        sol = ucbase.solve_lazy(OneLine(m), None, GAP)
        # two relaxations, then one MIP over the fractional binaries
        assert highs_calls[:2] == [0, 0] and 0 < highs_calls[2] <= 2
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(cold_objective(m, 1e-9))


# ------------------------------------------------------------ warm LP rounds

@pytest.fixture()
def highs_made(monkeypatch):
    """Every ``_Highs`` built, held weakly (``made``), with the runs of each
    (``runs``) and, for every MIP run, how many other instances were alive
    (``others_at_mip``)."""
    record = SimpleNamespace(made=[], runs=[], others_at_mip=[])

    class Recording(milp._hc._Highs):
        def __init__(self):
            super().__init__()
            self.index, self.mip = len(record.made), False
            record.made.append(weakref.ref(self))
            record.runs.append(0)

        def passModel(self, *args):
            self.mip = bool(np.any(args[-1]))
            return super().passModel(*args)

        def run(self):
            record.runs[self.index] += 1
            if self.mip:
                record.others_at_mip.append(sum(h() not in (None, self) for h in record.made))
            return super().run()

    monkeypatch.setattr(milp._hc, "_Highs", Recording)
    return record


def alive(record):
    return sum(h() is not None for h in record.made)


class TestWarmLps:
    def test_one_highs_for_every_lp_of_a_loop(self, highs_calls, highs_made):
        # 100 MW fills unit a, so every relaxation is integral: a line round
        # on the relaxation, then a cut round re-solved as one LP
        m, p = two_units(load=100.0)

        class OneLine(NoLines):
            def add_overloaded_lines(self, sol, ptdf):
                if "line" in m.constr_names:
                    return 0
                m.add_rows([Rows("line", (0,), terms=[(p[0], 1.0)], hi=100.0)])
                return 1

        def one_cut(sol):
            if "cut" in m.constr_names:
                return 0
            m.add_rows([Rows("cut", (1,), terms=[(p[1], 1.0)], hi=50.0)])
            return 1

        sol = ucbase.solve_lazy(OneLine(m), None, GAP, one_cut)
        assert highs_calls == [0, 0, 0]
        assert len(highs_made.made) == 1 and highs_made.runs == [3]
        assert sol.status == "optimal" and sol.message.startswith("certified")
        assert sol.objective == pytest.approx(cold_objective(m, 1e-9))
        assert check_solution(m, sol).ok
        assert alive(highs_made) == 0

    def test_every_warm_lp_of_a_datadriven_clearing_day_equals_a_fresh_run(
            self, bottleneck, highs_made, monkeypatch):
        system, ptdf, profile = bottleneck
        ucfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        warm = []
        highs_milp = milp._highs_milp

        def compared(model, integrality, lb, ub, options):
            before = len(highs_made.made)
            sol = highs_milp(model, integrality, lb, ub, options)
            if len(highs_made.made) == before:
                # no HiGHS was built: the run was warm
                with monkeypatch.context() as fresh_only:
                    fresh_only.setattr(model, "_warm", None)
                    fresh = highs_milp(model, integrality, lb, ub, options)
                warm.append((sol, fresh, check_solution(model, sol),
                             float(np.maximum(lb - sol.values, sol.values - ub).max())))
            return sol

        monkeypatch.setattr(milp, "_highs_milp", compared)
        run_fmm_day(system, ptdf, profile, env, da, "datadriven",
                    factors=zero_factors(system, 2),
                    deployment=select_deployment_scenarios(system, profile, ucfg, 2),
                    options=SolveOptions(mip_rel_gap=5e-3))
        assert len(warm) >= 10
        for sol, fresh, report, outside in warm:
            assert sol.status == fresh.status == "optimal"
            assert sol.objective == pytest.approx(fresh.objective, rel=1e-9, abs=0.0)
            assert report.ok, report.worst()
            assert outside <= 1e-6

    def test_lp_made_infeasible_by_its_rows_returns_the_fresh_result(self, highs_made):
        m, p = two_units()
        with milp.warm_lps(m):
            assert milp.relax(m).status == "optimal"
            m.add_rows([Rows("too_much", (0,), terms=[(p, 1.0)], lo=300.0)])
            sol = milp.relax(m)
        # the first HiGHS ran twice, then a fresh one once
        assert highs_made.runs == [2, 1]
        fresh = milp.relax(m)
        assert highs_made.runs == [2, 1, 1]
        assert (sol.status, sol.message) == (fresh.status, fresh.message)
        assert sol.status == "infeasible"
        assert math.isnan(sol.objective) and np.isnan(sol.values).all()

    def test_no_highs_outlives_solve_lazy_or_runs_beside_a_mip(self, bottleneck, highs_made,
                                                               monkeypatch):
        """At gap 1e-4 the day's cut rounds fall back to the cold MIP after
        their LP."""
        system, ptdf, profile = bottleneck
        ucfg = UncertaintyConfig(seed=3)
        env = proxy_envelopes(profile, ucfg, system.solar_units)
        da, _, _ = run_da(system, ptdf, profile)
        returned = []

        def checked(*args, **kwargs):
            sol = ucbase.solve_lazy(*args, **kwargs)
            returned.append(alive(highs_made))
            return sol

        monkeypatch.setattr(fmm, "solve_lazy", checked)
        run_fmm_day(system, ptdf, profile, env, da, "datadriven",
                    factors=zero_factors(system, 2),
                    deployment=select_deployment_scenarios(system, profile, ucfg, 2),
                    options=SolveOptions(mip_rel_gap=1e-4))
        assert len(returned) == 24 and set(returned) == {0}
        assert highs_made.others_at_mip and set(highs_made.others_at_mip) == {0}
        assert max(highs_made.runs) > 1   # some LPs ran warm


# ------------------------------------------------- rolled bottleneck days

def cold_objective(model, gap):
    """A cold ``scipy.optimize.milp`` solve of the model's arrays."""
    a, lo, hi = model._matrix()
    res = scipy_milp(c=model.objective_vector(), constraints=LinearConstraint(a, lo, hi),
                     integrality=model.integrality, bounds=Bounds(*model.col_bounds),
                     options={"mip_rel_gap": gap})
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.fixture()
def resolves(monkeypatch):
    """Each ``solve`` that ``solve_lazy`` hands a previous solution (its
    relaxation or the round before), checked on the model as it was solved.

    Records (certified, check report, objective, cold objective, gap).
    """
    records = []

    def checked(model, options=None, previous=None):
        sol = solve(model, options, previous)
        if previous is not None:
            assert sol.status == "optimal"
            records.append((sol.message.startswith("certified"), check_solution(model, sol),
                            sol.objective, cold_objective(model, 1e-9),
                            (options or SolveOptions()).mip_rel_gap))
        return sol

    monkeypatch.setattr(ucbase, "solve", checked)
    return records


def assert_resolves_hold(records):
    for _, report, objective, cold, gap in records:
        assert report.ok, report.worst()
        assert cold - 1e-6 * abs(cold) <= objective <= cold + gap * abs(objective)


# at 5e-3 the last commitment certifies 24 of the day's 25 re-solves; at
# 1e-4 each cut round costs more than the gap allows and falls back
@pytest.mark.parametrize("gap", [1e-4, 5e-3])
def test_every_resolve_of_a_datadriven_clearing_day_holds(bottleneck, resolves, gap):
    system, ptdf, profile = bottleneck
    ucfg = UncertaintyConfig(seed=3)
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da, _, _ = run_da(system, ptdf, profile)
    deployment = select_deployment_scenarios(system, profile, ucfg, 2)
    resolves.clear()
    run_fmm_day(system, ptdf, profile, env, da, "datadriven",
                factors=zero_factors(system, 2), deployment=deployment,
                options=SolveOptions(mip_rel_gap=gap))
    assert len(resolves) >= 20
    assert_resolves_hold(resolves)
    if gap == 5e-3:
        assert sum(r[0] for r in resolves) >= len(resolves) // 2


def test_every_resolve_of_a_validation_day_holds(bottleneck, resolves):
    """Under proxy awards hour 0 overloads the bottleneck; its line rows
    need another commitment, so the re-solve runs the fallback MIP."""
    system, ptdf, profile = bottleneck
    ucfg = UncertaintyConfig(seed=3)
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da, _, _ = run_da(system, ptdf, profile)
    awards = run_fmm_day(system, ptdf, profile, env, da, "proxy").awards
    resolves.clear()
    for i, scn in enumerate(sample_scenarios(system, profile, ucfg, 2, OUT_OF_SAMPLE)):
        run_rtuc_validation(system, ptdf, awards, da, scn, i, PROXY)
    assert resolves, "the proxy awards overload no line in these days"
    assert_resolves_hold(resolves)


# ------------------------------------------- every solve_lazy result, checked

@pytest.fixture()
def lazy_results(monkeypatch):
    """Each market solve's result, checked on its final model as it returns.

    Records (message, check report, objective, cold objective, gap).
    """
    records = []

    def checked(builder, ptdf, options=None, more_rows=None):
        sol = ucbase.solve_lazy(builder, ptdf, options, more_rows)
        assert sol.status == "optimal", sol.message
        records.append((sol.message, check_solution(builder.model, sol), sol.objective,
                        cold_objective(builder.model, 1e-9),
                        (options or SolveOptions()).mip_rel_gap))
        return sol

    monkeypatch.setattr(fmm, "solve_lazy", checked)
    monkeypatch.setattr(dayahead, "solve_lazy", checked)
    return records


def assert_results_hold(records, count):
    assert len(records) == count
    assert_resolves_hold(records)


@pytest.mark.parametrize("gap", [1e-4, 1e-3])
@pytest.mark.parametrize("policy", ["proxy", "datadriven"])
def test_every_result_of_a_clearing_day_holds(bottleneck, lazy_results, policy, gap):
    system, ptdf, profile = bottleneck
    ucfg = UncertaintyConfig(seed=3)
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da, _, _ = run_da(system, ptdf, profile)
    kw = {}
    if policy == "datadriven":
        kw = dict(factors=zero_factors(system, 2),
                  deployment=select_deployment_scenarios(system, profile, ucfg, 2))
    lazy_results.clear()
    run_fmm_day(system, ptdf, profile, env, da, policy,
                options=SolveOptions(mip_rel_gap=gap), **kw)
    assert_results_hold(lazy_results, 24)


def test_every_result_of_a_training_day_holds(bottleneck, lazy_results):
    system, ptdf, profile = bottleneck
    ucfg = UncertaintyConfig(seed=3)
    da, _, _ = run_da(system, ptdf, profile)
    scenario = sample_scenarios(system, profile, ucfg, 1, TRAINING)[0]
    lazy_results.clear()
    run_training_day(system, ptdf, scenario, da)
    assert_results_hold(lazy_results, 24)


def test_every_result_of_a_validation_day_holds(bottleneck, lazy_results):
    system, ptdf, profile = bottleneck
    ucfg = UncertaintyConfig(seed=3)
    env = proxy_envelopes(profile, ucfg, system.solar_units)
    da, _, _ = run_da(system, ptdf, profile)
    awards = run_fmm_day(system, ptdf, profile, env, da, "proxy").awards
    scenario = sample_scenarios(system, profile, ucfg, 1, OUT_OF_SAMPLE)[0]
    lazy_results.clear()
    run_rtuc_validation(system, ptdf, awards, da, scenario, 0, PROXY)
    assert_results_hold(lazy_results, 24)


INPUTS_118 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "ieee118_inputs.npz"


def test_a_118_bus_training_hour_holds(data_dir, system118, lazy_results):
    """The first hour of a 118-bus training day, on the benchmark's stored
    day-ahead schedule."""
    ptdf = compute_ptdf(system118)
    profile = load_profiles(data_dir / "profiles" / "day1", system118.solar_units)
    data = np.load(INPUTS_118)
    ids = [int(g) for g in data["gen_ids"]]
    assert ids == [g.id for g in system118.generators]
    da = DaCommitments(u_hourly=dict(zip(ids, data["da_u"])),
                       dispatch_hourly=dict(zip(ids, data["da_p"])),
                       objective=float(data["da_objective"]))
    scenario = sample_scenarios(system118, profile, UncertaintyConfig(seed=7), 1,
                                TRAINING)[0]
    run_training_day(system118, ptdf, scenario, da, options=SolveOptions(mip_rel_gap=1e-3),
                     n_intervals=4)
    assert_results_hold(lazy_results, 1)
