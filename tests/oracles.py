"""Independent oracles the tests check the program against.

None shares code with the path it checks: ``brute_force_uc`` never goes
through ``MilpModel``, ``gradient_check`` differentiates ``Mlp.mse``
numerically, and ``build_targets_loop`` builds the regression rows one
(day, generator, interval) at a time.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from frpsim.learner import TEST_FRACTION, Mlp, TrainingDataset, feature_matrix


def gradient_check(mlp: Mlp, x: np.ndarray, y: np.ndarray,
                   eps: float = 1e-5) -> float:
    """Max relative error of analytic vs central finite-difference gradients."""
    _, grad_ws, grad_bs = mlp.mse_gradients(x, y)
    analytic = [*grad_ws, *grad_bs]
    worst = 0.0
    for param, grad in zip(mlp.parameters(), analytic):
        flat = param.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = mlp.mse(x, y)
            flat[i] = keep - eps
            lo = mlp.mse(x, y)
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(abs(gflat[i]) + abs(numeric), 1e-8)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


def build_targets_loop(pairs, system, seed: int = 0) -> TrainingDataset:
    """``learner.build_targets`` written as a loop over every (day, generator,
    interval) move, one Python row at a time."""
    mr = [g for g in system.must_run_generators() if g.ramp_15 > 0]
    gen_col, t_col, x_col, y_col = [], [], [], []
    for scenario, traj in pairs:
        feats = feature_matrix(scenario)
        for gen in mr:
            p = traj.dispatch[gen.id]
            u = traj.commitment[gen.id]
            for t in range(len(p) - 1):
                if u[t] >= 0.5 and u[t + 1] >= 0.5:
                    response = (p[t + 1] - p[t]) / gen.ramp_15
                    gen_col.append(gen.id)
                    t_col.append(t)
                    x_col.append(feats[t])
                    y_col.append(min(max(response, -1.0), 1.0))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    n = len(y_col)
    test = np.zeros(n, dtype=bool)
    test[rng.permutation(n)[: int(round(TEST_FRACTION * n))]] = True
    return TrainingDataset(gen_ids=np.asarray(gen_col), intervals=np.asarray(t_col),
                           features=np.asarray(x_col), targets=np.asarray(y_col),
                           is_test=test)


# --------------------------------------------------------------------------
# Brute-force unit-commitment oracle for tiny instances.
#
# The enumeration below never goes through MilpModel: commitment patterns are
# enumerated exhaustively and the dispatch for each feasible pattern is solved
# as a small LP assembled directly into matrix form.  This keeps the oracle an
# independent check on any MILP-based unit-commitment path.
# --------------------------------------------------------------------------

MAX_ORACLE_GENERATORS = 3
MAX_ORACLE_INTERVALS = 4


def _pattern_fixed_cost(gen, u: np.ndarray, u0: int) -> float:
    cost = gen.no_load_cost * float(u.sum())
    prev = u0
    for ut in u:
        if ut == 1 and prev == 0:
            cost += gen.startup_cost
        if ut == 0 and prev == 1:
            cost += gen.shutdown_cost
        prev = ut
    return cost


def _pattern_times_ok(gen, u: np.ndarray, u0: int, init_run: int) -> bool:
    """Minimum up/down feasibility, counting the run length carried into t=0."""
    runs: list[tuple[int, int]] = []  # (state, length), oldest first
    state, length = u0, init_run
    for ut in u:
        if ut == state:
            length += 1
        else:
            runs.append((state, length))
            state, length = int(ut), 1
    # the final run is unconstrained: it may continue beyond the horizon
    for s, n in runs:
        if s == 1 and n < gen.min_up:
            return False
        if s == 0 and n < gen.min_down:
            return False
    return True


def _dispatch_lp(system, loads: np.ndarray, patterns: np.ndarray,
                 u0: np.ndarray, p0: np.ndarray, interval_hours: float,
                 voll: float) -> float | None:
    """LP cost of serving ``loads`` under a fixed commitment pattern.

    Variables: block outputs per (g, t, e) and a positive/negative balance
    slack pair per interval priced at VOLL.  Returns None if infeasible.
    """
    gens = system.generators
    t_count = len(loads)
    blk_of = []  # (g, t, e) -> column
    col = 0
    for g in range(len(gens)):
        for t in range(t_count):
            for e in range(len(gens[g].cost_blocks)):
                blk_of.append((g, t, e))
                col += 1
    slack_base = col
    n_cols = col + 2 * t_count

    cost = np.zeros(n_cols)
    ub = np.full(n_cols, np.inf)
    for j, (g, t, e) in enumerate(blk_of):
        width, slope = gens[g].cost_blocks[e]
        cost[j] = slope * interval_hours
        ub[j] = width if patterns[g, t] else 0.0
    cost[slack_base:] = voll * interval_hours

    def power_expr(g: int, t: int) -> tuple[list[int], float]:
        cols = [j for j, (gg, tt, _) in enumerate(blk_of) if gg == g and tt == t]
        return cols, gens[g].p_min * patterns[g, t]

    rows_eq, rhs_eq = [], []
    rows_ub, rhs_ub = [], []
    for t in range(t_count):
        row = np.zeros(n_cols)
        base = 0.0
        for g in range(len(gens)):
            cols, fixed = power_expr(g, t)
            row[cols] = 1.0
            base += fixed
        row[slack_base + t] = 1.0       # unserved load
        row[slack_base + t_count + t] = -1.0  # surplus
        rows_eq.append(row)
        rhs_eq.append(loads[t] - base)
    for g, gen in enumerate(gens):
        for t in range(t_count):
            prev_cols, prev_fixed = power_expr(g, t - 1) if t else ([], 0.0)
            if t == 0:
                prev_fixed = p0[g]
            cols, fixed = power_expr(g, t)
            u_prev = patterns[g, t - 1] if t else u0[g]
            started = patterns[g, t] == 1 and u_prev == 0
            stopped = patterns[g, t] == 0 and u_prev == 1
            up_cap = gen.ramp_15 * u_prev + gen.ramp_su * started
            dn_cap = gen.ramp_15 * patterns[g, t] + gen.ramp_sd * stopped
            row = np.zeros(n_cols)
            row[cols] = 1.0
            row[prev_cols] = -1.0
            rows_ub.append(row)
            rhs_ub.append(up_cap - fixed + prev_fixed)
            rows_ub.append(-row)
            rhs_ub.append(dn_cap + fixed - prev_fixed)
    res = linprog(
        c=cost,
        A_ub=np.array(rows_ub) if rows_ub else None,
        b_ub=np.array(rhs_ub) if rows_ub else None,
        A_eq=np.array(rows_eq),
        b_eq=np.array(rhs_eq),
        bounds=list(zip(np.zeros(n_cols), ub)),
        method="highs",
    )
    if res.status != 0:
        return None
    return float(res.fun)


def brute_force_uc(system, loads, interval_hours: float = 0.25,
                   voll: float = 10000.0) -> float:
    """Exhaustive optimal cost of a tiny single-bus unit-commitment instance.

    All generators start offline (long enough to satisfy minimum down time)
    with zero prior output.  Every commitment pattern is enumerated; for each
    feasible one, the continuous dispatch LP is solved and fixed costs added.
    """
    loads = np.asarray(loads, dtype=float)
    gens = system.generators
    if len(gens) > MAX_ORACLE_GENERATORS or len(loads) > MAX_ORACLE_INTERVALS:
        raise ValueError(
            f"oracle instance too large: {len(gens)} generators x {len(loads)} intervals"
        )
    g_count, t_count = len(gens), len(loads)
    u0 = np.zeros(g_count, dtype=int)
    p0 = np.zeros(g_count)
    init_run = max(max(g.min_down for g in gens), 1)

    best = math.inf
    for code in range(2 ** (g_count * t_count)):
        patterns = np.array(
            [[(code >> (g * t_count + t)) & 1 for t in range(t_count)]
             for g in range(g_count)],
            dtype=int,
        )
        if not all(
            _pattern_times_ok(gens[g], patterns[g], u0[g], init_run)
            for g in range(g_count)
        ):
            continue
        dispatch = _dispatch_lp(system, loads, patterns, u0, p0, interval_hours, voll)
        if dispatch is None:
            continue
        fixed = sum(
            _pattern_fixed_cost(gens[g], patterns[g], u0[g]) for g in range(g_count)
        )
        best = min(best, dispatch + fixed)
    if not math.isfinite(best):
        raise RuntimeError("no feasible commitment pattern found")
    return best
