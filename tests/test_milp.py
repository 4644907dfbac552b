from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from frpsim import milp
from frpsim.milp import (Cols, MilpModel, MilpSolution, ModelError, Rows, SolveOptions,
                         check_solution, solve)
from frpsim.ucbase import UcModelBuilder, cold_start_state
from oracles import brute_force_uc
from util import make_gen, single_bus_system

EXACT = SolveOptions(mip_rel_gap=1e-9)


def solve_uc_milp(system, loads, interval_hours=0.25, voll=10000.0, lo=None, hi=None):
    """Production-path MILP for the tiny single-bus instances the oracle covers.

    ``lo``/``hi`` bound each commitment; by default every unit is free."""
    loads = np.asarray(loads, dtype=float)
    shape = (len(system.generators), len(loads))
    builder = UcModelBuilder(system, len(loads), interval_hours,
                             cold_start_state(system), voll=voll)
    builder.add_commitment(np.zeros(shape) if lo is None else lo,
                           np.ones(shape) if hi is None else hi,
                           min_updown=np.ones(shape[0], dtype=bool))
    builder.add_dispatch()
    builder.add_ramps()
    builder.add_network(loads.reshape(1, -1), np.zeros((1, len(loads))))
    sol = solve(builder.model, EXACT)
    assert sol.status == "optimal"
    assert check_solution(builder.model, sol).ok
    return sol, builder


class TestSolve:
    def test_continuous_minimum(self):
        m = MilpModel()
        x, = m.add_vars([Cols("x", (0,), cost=1.0)])
        m.add_rows([Rows("floor", (0,), terms=[(x, 1.0)], lo=3.0)])
        sol = solve(m)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_binary_rounds_up(self):
        m = MilpModel()
        y, = m.add_vars([Cols("y", (0,), binary=True, cost=1.0)])
        m.add_rows([Rows("half", (0,), terms=[(y, 1.0)], lo=0.5)])
        sol = solve(m)
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.value(y) == pytest.approx(1.0, abs=1e-6)

    def test_ranged_row_holds_both_sides(self):
        def band(cost_x):
            m = MilpModel()
            x, y = m.add_vars([Cols("x", (0,), lb=-math.inf, cost=cost_x),
                               Cols("y", (1,), ub=1.0)])
            m.add_rows([Rows("band", (0,), terms=[(x, 1.0), (y, 1.0)], lo=-2.0, hi=3.0)])
            return m, x, y

        m, _, _ = band(1.0)    # minimise x
        assert solve(m).objective == pytest.approx(-3.0, abs=1e-9)
        m, x, y = band(-1.0)   # maximise x
        assert solve(m).objective == pytest.approx(-3.0, abs=1e-9)
        m.add_rows([Rows("pin", (0,), terms=[(y, 1.0)], lo=0.5, hi=0.5)])
        sol = solve(m)
        assert sol.value(x) == pytest.approx(2.5, abs=1e-9)
        assert sol.value(y) == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_pair(self):
        m = MilpModel()
        x, = m.add_vars([Cols("x", (0,), lb=-math.inf)])
        m.add_rows([Rows("lo", (0,), terms=[(x, 1.0)], lo=1.0),
                    Rows("hi", (1,), terms=[(x, 1.0)], hi=0.0)])
        assert solve(m).status == "infeasible"

    def test_unbounded_lp(self):
        m = MilpModel()
        x, = m.add_vars([Cols("x", (0,), lb=-math.inf, cost=1.0)])
        m.add_rows([Rows("cap", (0,), terms=[(x, 1.0)], hi=1.0)])
        sol = solve(m)
        assert sol.status == "unbounded"
        assert "unbounded" in sol.message

    def test_unbounded_milp_is_an_error_with_message(self):
        # HiGHS cannot tell an unbounded MILP from an infeasible one
        m = MilpModel()
        x, y = m.add_vars([Cols("x", (0,), lb=-math.inf, cost=1.0),
                           Cols("y", (1,), binary=True)])
        m.add_rows([Rows("cap", (0,), terms=[(x, 1.0), (y, 1.0)], hi=1.0)])
        sol = solve(m)
        assert sol.status == "error"
        assert "unbounded or infeasible" in sol.message

    def test_empty_or_unbounded_row_rejected(self):
        m = MilpModel()
        x, = m.add_vars([Cols("x", (0,))])
        with pytest.raises(ModelError, match="empty range"):
            m.add_rows([Rows("flipped", (0,), terms=[(x, 1.0)], lo=2.0, hi=1.0)])
        with pytest.raises(ModelError, match="no finite bound"):
            m.add_rows([Rows("free", (0,), terms=[(x, 1.0)])])
        assert m.n_constrs == 0

    def test_duplicate_block_names_raise_when_read(self):
        m = MilpModel()
        x = m.add_vars([Cols("x[{}]", (np.arange(2),), (np.array([0, 0]),))])[0]
        m.add_rows([Rows("c", (np.arange(2),), terms=[(x, 1.0)], hi=1.0)])
        assert m.n_vars == 2 and m.n_constrs == 2   # names are not formatted yet
        with pytest.raises(ModelError, match=r"duplicate variable name 'x\[0\]'"):
            m.var_names
        with pytest.raises(ModelError, match="duplicate constraint name 'c'"):
            m.constr_names

    def test_corrupted_row_index_raises(self):
        m = MilpModel()
        x, = m.add_vars([Cols("x", (0,))])
        m.add_rows([Rows("ok", (0,), terms=[(x, 1.0)], hi=1.0)])
        m.add_rows([Rows("bad", (0,), terms=[(5, 1.0)], hi=1.0)])   # a column no variable owns
        with pytest.raises(ModelError, match="'bad' references undeclared"):
            m.validate()
        with pytest.raises(ModelError, match="'bad' references undeclared"):
            solve(m)

    def test_negative_columns_raise_instead_of_wrapping(self):
        m = MilpModel()
        m.add_vars([Cols("x", (0,), cost=1.0)])
        m.add_rows([Rows("neg", (0,), terms=[(-1, 1.0)], hi=1.0)])   # -1 would index x
        with pytest.raises(ModelError, match="'neg' references undeclared"):
            m.validate()

    def test_row_coefficients_stored_as_given_without_negative_zero(self):
        m = MilpModel()
        x, y = m.add_vars([Cols("x", (0,)), Cols("y", (1,))])
        m.add_rows([Rows("c", (0,), terms=[([y, x], [-0.0, 2.0])], hi=1.0)])
        _, cols, data, _, _ = m._rows[-1]   # the stored entries of the last block
        assert cols.tolist() == [y, x]
        assert data.tolist() == [0.0, 2.0]
        assert not np.signbit(data).any()
        assert m._matrix()[0].nnz == 2   # the explicit zero is kept

    def test_optimal_values_within_bounds(self):
        m = MilpModel()
        x, y = m.add_vars([Cols("x", (0,), lb=2.0, ub=5.0, cost=1.0),
                           Cols("y", (1,), binary=True, cost=-0.5)])
        m.add_rows([Rows("c", (0,), terms=[(x, 1.0), (y, 1.0)], lo=2.5)])
        sol = solve(m)
        lb = np.array([2.0, 0.0])
        ub = np.array([5.0, 1.0])
        assert (sol.values >= lb - 1e-9).all()
        assert (sol.values <= ub + 1e-9).all()


def knapsack():
    """A MIP over 30 binaries with 15 random capacity rows: minimise minus
    the value packed."""
    rng, n, m = np.random.default_rng(0), 30, 15
    model = MilpModel()
    x, = model.add_vars([Cols("x_{}", (np.arange(n),), (np.arange(n),), binary=True,
                              cost=-rng.integers(1, 100, n).astype(float))])
    weights = rng.integers(1, 50, (m, n)).astype(float)
    model.add_rows([Rows("cap_{}", (np.arange(m),), (np.arange(m),),
                         terms=[(np.broadcast_to(x, (m, n)), weights)],
                         hi=weights.sum(axis=1) / 3)])
    return model


def uc_model():
    """A three-unit, four-interval single-bus commitment model."""
    system = single_bus_system([make_gen(0, 0, 10.0, 100.0, 20.0, ramp=40.0),
                                make_gen(1, 0, 5.0, 80.0, 40.0, ramp=80.0, startup=50.0),
                                make_gen(2, 0, 20.0, 60.0, 30.0, ramp=30.0)])
    loads = np.array([40.0, 90.0, 150.0, 95.0])
    builder = UcModelBuilder(system, len(loads), 0.25, cold_start_state(system))
    builder.add_commitment(np.zeros((3, 4)), np.ones((3, 4)),
                           min_updown=np.ones(3, dtype=bool))
    builder.add_dispatch()
    builder.add_ramps()
    builder.add_network(loads.reshape(1, -1), np.zeros((1, 4)))
    return builder.model


def infeasible_model():
    m = MilpModel()
    x, y = m.add_vars([Cols("x", (0,), lb=-math.inf), Cols("y", (1,), binary=True)])
    m.add_rows([Rows("lo", (0,), terms=[(x, 1.0), (y, 1.0)], lo=3.0),
                Rows("hi", (1,), terms=[(x, 1.0)], hi=1.0)])
    return m


def unbounded_model(binary):
    """x free at cost 1 with no rows; with ``binary`` a binary y joins."""
    m = MilpModel()
    m.add_vars([Cols("x", (0,), lb=-math.inf, cost=1.0)]
               + [Cols("y", (1,), binary=True, cost=1.0)] * binary)
    return m


def same_bits(a, b):
    """Equal as float64 arrays bit for bit."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# scipy.optimize.milp's status codes, by the status name MilpSolution carries
SCIPY_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded", 4: "error"}


class TestScipyEquivalence:
    """``milp._highs_milp`` drives scipy's HiGHS object directly; on the
    model's own arrays it reports what ``scipy.optimize.milp`` does, given the
    one option that differs from milp's, bit for bit."""

    # milp passes an option it does not own to HiGHS verbatim, with a
    # RuntimeWarning; a HiGHS that lacks it is warned about and skips it
    @pytest.mark.filterwarnings("ignore:Unrecognized options detected")
    @pytest.mark.parametrize("case, relaxed, options, status", [
        ("uc", True, SolveOptions(), "optimal"),
        ("uc", False, EXACT, "optimal"),
        ("knapsack", False, SolveOptions(mip_rel_gap=1e-3), "optimal"),
        ("infeasible", False, SolveOptions(), "infeasible"),
        ("infeasible", True, SolveOptions(), "infeasible"),
        ("unbounded", True, SolveOptions(), "unbounded"),
        ("unbounded-milp", False, SolveOptions(), "error"),
    ], ids=["optimal-lp", "optimal-mip", "optimal-mip-gap", "infeasible-mip",
            "infeasible-lp", "unbounded-lp", "unbounded-milp"])
    def test_same_result_as_scipy_milp(self, case, relaxed, options, status):
        model = {"uc": uc_model, "knapsack": knapsack, "infeasible": infeasible_model,
                 "unbounded": lambda: unbounded_model(False),
                 "unbounded-milp": lambda: unbounded_model(True)}[case]()
        integrality = np.zeros(model.n_vars, dtype=int) if relaxed else model.integrality
        lb, ub = model.col_bounds
        opts = {"mip_rel_gap": options.mip_rel_gap, "presolve": True,
                "mip_heuristic_run_feasibility_jump": False}
        ref = scipy_milp(c=model.objective_vector(),
                         constraints=LinearConstraint(*model._matrix()),
                         integrality=integrality, bounds=Bounds(lb, ub), options=opts)
        got = milp._highs_milp(model, integrality, lb, ub, options)
        assert (got.status, got.message) == (SCIPY_STATUS[ref.status], ref.message)
        assert got.status == status
        none = np.full(model.n_vars, np.nan)
        assert same_bits(got.values, none if ref.x is None else ref.x)
        for mine, theirs in ((got.objective, ref.fun), (got.mip_gap, ref.mip_gap),
                             (got.dual_bound, ref.mip_dual_bound)):
            assert same_bits(mine, np.nan if theirs is None else theirs)
        assert type(got.mip_node_count) is int
        assert got.mip_node_count == (ref.mip_node_count or 0)
        assert (ref.x is None) == (status != "optimal")
        if case == "knapsack":
            assert got.mip_node_count > 1   # the gap case branches

    def test_every_call_turns_feasibility_jump_off(self, monkeypatch):
        made = []

        class Recording(milp._hc._Highs):
            def __init__(self):
                super().__init__()
                self.options = {}
                made.append(self)

            def setOptionValue(self, name, value):
                self.options[name] = value
                return super().setOptionValue(name, value)

        monkeypatch.setattr(milp._hc, "_Highs", Recording)
        model = uc_model()
        solve(model)
        solve(model, previous=milp.relax(model))
        assert len(made) >= 3
        assert all(h.options["mip_heuristic_run_feasibility_jump"] is False for h in made)


class TestCheckSolution:
    def _solved_toy(self):
        system = single_bus_system([make_gen(0, 0, 10.0, 100.0, 20.0, ramp=200.0)])
        sol, builder = solve_uc_milp(system, [50.0, 60.0])
        return sol, builder

    def test_optimal_solution_clean(self):
        sol, builder = self._solved_toy()
        assert check_solution(builder.model, sol, tol=1e-6).ok

    def test_perturbed_dispatch_names_balance(self):
        sol, builder = self._solved_toy()
        bad = sol.values.copy()
        bad[builder.p[0, 0]] += 10.0
        sol.values = bad
        report = check_solution(builder.model, sol, tol=1e-6)
        assert not report.ok
        names = [n for n, _ in report.violations]
        assert any("pwr_def" in n or "sys_bal" in n for n in names)

    def test_perturbed_fixed_commitment_names_bound(self):
        # a pinned pattern lives in the column bounds only, so turning the
        # unit off against it breaks no row of a one-unit model at zero load
        gen = make_gen(0, 0, 10.0, 100.0, 20.0, ramp=200.0)
        system = single_bus_system([gen])
        pinned = np.array([[1.0, 1.0]])
        sol, builder = solve_uc_milp(system, [0.0, 0.0], lo=pinned, hi=pinned)
        bad = sol.values.copy()
        bad[builder.u[0, 1]] = 0.0
        bad[builder.p[0, 1]] = 0.0
        bad[builder.w[0, 1]] = 1.0
        bad[builder.inj(0, 1)] = 0.0
        bad[builder.surp[1]] = 0.0
        sol.values = bad
        report = check_solution(builder.model, sol, tol=1e-6)
        assert report.violations == [("bound:u[g0,t1]", pytest.approx(1.0))]

    def test_fractional_binary_named(self):
        sol, builder = self._solved_toy()
        bad = sol.values.copy()
        bad[builder.u[0, 0]] = 0.5
        sol.values = bad
        names = [n for n, _ in check_solution(builder.model, sol).violations]
        assert "binary:u[g0,t0]" in names
        assert not any(n.startswith("bound:") for n in names)

    def test_violation_exactly_at_tol_not_reported(self):
        m = MilpModel()
        x, = m.add_vars([Cols("x", (0,), ub=10.0)])
        m.add_rows([Rows("cap", (0,), terms=[(x, 1.0)], hi=1.0)])
        sol = MilpSolution(status="optimal", objective=0.0,
                           values=np.array([1.0 + 1e-6]))
        assert check_solution(m, sol, tol=1e-6).ok
        sol.values = np.array([1.0 + 2e-6])
        assert not check_solution(m, sol, tol=1e-6).ok

    def test_missing_values_rejected(self):
        m = MilpModel()
        m.add_vars([Cols("x", (0,))])
        sol = MilpSolution(status="optimal", objective=0.0, values=np.array([np.nan]))
        with pytest.raises(ModelError):
            check_solution(m, sol)


class TestBruteForceOracle:
    def test_single_gen_two_intervals_hand_value(self):
        # no-load 10 per interval, slope 20 $/MWh, 50 MW for two 15-min intervals
        gen = make_gen(0, 0, 0.0, 100.0, 20.0, ramp=200.0, no_load=10.0,
                       startup=0.0, shutdown=0.0)
        system = single_bus_system([gen])
        expected = 2 * (10.0 + 50.0 * 20.0 * 0.25)
        cost = brute_force_uc(system, [50.0, 50.0])
        assert cost == pytest.approx(expected, abs=1e-6)
        sol, _ = solve_uc_milp(system, [50.0, 50.0])
        assert sol.objective == pytest.approx(expected, rel=1e-9)

    def test_zero_load_all_off(self):
        system = single_bus_system([
            make_gen(0, 0, 10.0, 100.0, 20.0), make_gen(1, 0, 5.0, 50.0, 30.0),
        ])
        assert brute_force_uc(system, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-9)

    def test_ramp_binding_load_step(self):
        gens = [
            make_gen(0, 0, 10.0, 100.0, 20.0, ramp=15.0, startup=100.0),
            make_gen(1, 0, 5.0, 80.0, 40.0, ramp=80.0, startup=50.0),
        ]
        system = single_bus_system(gens)
        loads = [40.0, 90.0, 95.0]
        oracle = brute_force_uc(system, loads)
        sol, _ = solve_uc_milp(system, loads)
        assert sol.objective == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    def test_too_large_instance_rejected(self):
        system = single_bus_system([
            make_gen(i, 0, 0.0, 10.0, 20.0) for i in range(4)
        ])
        with pytest.raises(ValueError, match="too large"):
            brute_force_uc(system, [5.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_equivalence_random_instances(self, seed):
        rng = np.random.default_rng(seed + 1000)
        g_count = int(rng.integers(1, 4))
        t_count = int(rng.integers(2, 5))
        gens = []
        for g in range(g_count):
            pmax = float(rng.uniform(30, 120))
            pmin = float(rng.uniform(0, 0.4) * pmax)
            ramp = float(rng.uniform(0.2, 1.0) * pmax)
            gens.append(make_gen(
                g, 0, round(pmin, 2), round(pmax, 2),
                round(float(rng.uniform(15, 60)), 2), ramp=round(ramp, 2),
                startup=round(float(rng.uniform(0, 300)), 2),
                shutdown=round(float(rng.uniform(0, 50)), 2),
                min_up=int(rng.integers(1, min(t_count, 3) + 1)),
                min_down=int(rng.integers(1, min(t_count, 3) + 1)),
            ))
        system = single_bus_system(gens)
        total_cap = sum(g.p_max for g in gens)
        loads = rng.uniform(0.1, 1.1, size=t_count) * total_cap
        oracle = brute_force_uc(system, loads)
        sol, _ = solve_uc_milp(system, loads)
        assert sol.objective == pytest.approx(oracle, rel=1e-6, abs=1e-6 * (1 + abs(oracle)))
