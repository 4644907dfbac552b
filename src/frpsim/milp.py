"""Solver-agnostic MILP container, solve entry point, and independent checks.

The model is a plain declarative store of variables, ranged linear rows
(``lo <= a.x <= hi``), and a linear minimization objective.  Solving is
delegated to the HiGHS backend shipped with scipy; checking a solution never
touches the solver and simply re-evaluates every row, column bound and
binary arithmetically.  A brute-force enumeration oracle for tiny
unit-commitment instances lives here as well, so that the MILP path can be
validated against an independent computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as _highs_milp

CONTINUOUS = "continuous"
BINARY = "binary"

# scipy.optimize.milp status codes; 4 is also what an unbounded MILP reports
_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded", 4: "error"}


class ModelError(ValueError):
    """Raised for malformed models: duplicate names, unknown variables, empty ranges."""


@dataclass
class SolveOptions:
    """Backend knobs; defaults match the precision the rest of the suite assumes."""

    mip_rel_gap: float = 1e-4
    time_limit: float | None = None


class MilpModel:
    """Declarative MILP: named variables, named ranged rows, min objective.

    Every row is ``lo <= a.x <= hi``: an equality has ``lo == hi`` and a
    one-sided row leaves the other bound infinite.
    """

    def __init__(self):
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self._kinds: list[str] = []
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: dict[int, float] = {}
        # each constraint: (name, index array, coefficient array, lo, hi)
        self._constrs: list[tuple[str, np.ndarray, np.ndarray, float, float]] = []
        self._constr_index: dict[str, int] = {}
        self._matrix_cache: tuple[tuple[int, int], sp.csr_matrix, np.ndarray,
                                  np.ndarray] | None = None

    # ------------------------------------------------------------------ build
    @property
    def n_vars(self) -> int:
        return len(self._var_names)

    @property
    def n_constrs(self) -> int:
        return len(self._constrs)

    @property
    def var_names(self) -> list[str]:
        return list(self._var_names)

    def add_var(self, name: str, kind: str = CONTINUOUS, lb: float = 0.0,
                ub: float = math.inf) -> int:
        if name in self._var_index:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind not in (CONTINUOUS, BINARY):
            raise ModelError(f"unknown variable kind {kind!r}")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if lb > ub:
            raise ModelError(f"variable {name!r} has empty bound range [{lb}, {ub}]")
        idx = len(self._var_names)
        self._var_names.append(name)
        self._var_index[name] = idx
        self._kinds.append(kind)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        return idx

    def var_index(self, name: str) -> int:
        """Column of the variable called ``name``."""
        try:
            return self._var_index[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def add_to_objective(self, var: int, coef: float) -> None:
        self._obj[var] = self._obj.get(var, 0.0) + float(coef)

    def add_constr(self, name: str, terms, lo: float = -math.inf,
                   hi: float = math.inf) -> None:
        """Add the row ``lo <= sum(coef * var for var, coef in terms) <= hi``.

        ``terms`` is a sequence of (column, coefficient) pairs with distinct
        columns, stored as given; the columns are checked when the matrix is
        built.
        """
        if name in self._constr_index:
            raise ModelError(f"duplicate constraint name {name!r}")
        lo, hi = float(lo), float(hi)
        if not lo <= hi:
            raise ModelError(f"constraint {name!r} has empty range [{lo}, {hi}]")
        if math.isinf(lo) and math.isinf(hi):
            raise ModelError(f"constraint {name!r} has no finite bound")
        cols, coefs = zip(*terms) if terms else ((), ())
        idx = np.array(cols, dtype=np.int64)
        # + 0.0 turns a -0.0 coefficient into +0.0
        data = np.array(coefs, dtype=np.float64) + 0.0
        self._constr_index[name] = len(self._constrs)
        self._constrs.append((name, idx, data, lo, hi))
        self._matrix_cache = None

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise ModelError if a row references an undeclared variable.

        The check runs on the concatenated column indices while the matrix is
        built, so on a model whose matrix is cached it costs nothing.
        """
        self._matrix()

    # ------------------------------------------------------------------ matrix
    def _matrix(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Constraint matrix with per-row lower/upper bounds, cached per size."""
        size = (self.n_constrs, self.n_vars)
        if self._matrix_cache is not None and self._matrix_cache[0] == size:
            return self._matrix_cache[1:]
        n = self.n_constrs
        counts = np.fromiter((len(c[1]) for c in self._constrs), dtype=np.int64, count=n)
        cols = np.concatenate([c[1] for c in self._constrs] + [np.empty(0, dtype=np.int64)])
        bad = self._undeclared(cols)
        if len(bad):
            row = int(np.searchsorted(np.cumsum(counts), bad[0], side="right"))
            raise ModelError(
                f"constraint {self._constrs[row][0]!r} references undeclared variables")
        data = np.concatenate([c[2] for c in self._constrs] + [np.empty(0)])
        lo = np.fromiter((c[3] for c in self._constrs), dtype=np.float64, count=n)
        hi = np.fromiter((c[4] for c in self._constrs), dtype=np.float64, count=n)
        a = sp.csr_matrix((data, (np.repeat(np.arange(n, dtype=np.int64), counts), cols)),
                          shape=size)
        self._matrix_cache = (size, a, lo, hi)
        return a, lo, hi

    def objective_vector(self) -> np.ndarray:
        cols = np.fromiter(self._obj.keys(), dtype=np.int64, count=len(self._obj))
        if len(self._undeclared(cols)):
            raise ModelError("objective references undeclared variables")
        c = np.zeros(self.n_vars)
        c[cols] = np.fromiter(self._obj.values(), dtype=np.float64, count=len(cols))
        return c

    def _undeclared(self, cols: np.ndarray) -> np.ndarray:
        """Positions of the entries of ``cols`` that name no column."""
        return np.flatnonzero((cols < 0) | (cols >= self.n_vars))


@dataclass
class MilpSolution:
    """Outcome of one solve; values indexed like the model's variables."""

    # "optimal" | "infeasible" | "unbounded" | "limit" (time or iteration
    # limit) | "error" (anything else, e.g. an unbounded or infeasible MILP);
    # ``message`` keeps the backend's explanation
    status: str
    objective: float
    values: np.ndarray
    message: str = ""
    mip_gap: float = float("nan")
    # HiGHS's lower bound on the optimum; NaN when it reports none (an LP, an
    # infeasible MIP)
    dual_bound: float = float("nan")

    def value(self, var: int) -> float:
        return float(self.values[var])


@dataclass
class ConstraintReport:
    """Constraint violations above tolerance, from independent re-evaluation."""

    violations: list[tuple[str, float]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def worst(self) -> tuple[str, float] | None:
        return max(self.violations, key=lambda v: v[1]) if self.violations else None


def solve(model: MilpModel, options: SolveOptions | None = None,
          previous: MilpSolution | None = None) -> MilpSolution:
    """Solve the model with HiGHS; status reflects the backend outcome.

    ``previous`` is a solve of the same model before rows were added to it.
    Added rows leave its dual bound a lower bound on the grown model, so
    when that bound is finite the binaries are fixed at their previous
    values and the model is solved as one LP.  An LP cost within
    ``mip_rel_gap`` of the bound is returned as optimal, its ``mip_gap``
    measured against the bound it carries forward; any other outcome falls
    back to the full MIP.
    """
    options = options or SolveOptions()
    model.validate()
    c = model.objective_vector()
    binary = np.array([k == BINARY for k in model._kinds], dtype=bool)
    lb, ub = np.array(model._lb), np.array(model._ub)
    constraints = None
    if model.n_constrs:
        a, lo, hi = model._matrix()
        constraints = LinearConstraint(a, lo, hi)
    opts = {"mip_rel_gap": options.mip_rel_gap, "presolve": True}
    if options.time_limit is not None:
        opts["time_limit"] = options.time_limit
    if previous is not None and math.isfinite(previous.dual_bound):
        if previous.values.shape != (model.n_vars,):
            raise ModelError("previous solution does not match the model's columns")
        bound = previous.dual_bound
        fixed = np.rint(previous.values)
        res = _highs_milp(c=c, constraints=constraints, integrality=np.zeros(len(c)),
                          bounds=Bounds(np.where(binary, fixed, lb), np.where(binary, fixed, ub)),
                          options=opts)
        if res.status == 0 and abs(res.fun - bound) <= options.mip_rel_gap * abs(res.fun):
            return MilpSolution(
                status="optimal", objective=float(res.fun),
                values=np.asarray(res.x, dtype=float),
                message="certified: the previous commitment's LP is within "
                        "mip_rel_gap of the previous dual bound",
                mip_gap=abs(res.fun - bound) / abs(res.fun) if res.fun else 0.0,
                dual_bound=bound)
    res = _highs_milp(c=c, constraints=constraints, integrality=binary.astype(int),
                      bounds=Bounds(lb, ub), options=opts)
    values = res.x if res.x is not None else np.full(model.n_vars, np.nan)
    gap, bound = getattr(res, "mip_gap", None), getattr(res, "mip_dual_bound", None)
    return MilpSolution(
        status=_STATUS.get(res.status, "error"),
        objective=float(res.fun) if res.fun is not None else float("nan"),
        values=np.asarray(values, dtype=float),
        message=str(res.message),
        mip_gap=float("nan") if gap is None else float(gap),
        dual_bound=float("nan") if bound is None else float(bound),
    )


def check_solution(model: MilpModel, solution: MilpSolution,
                   tol: float = 1e-6) -> ConstraintReport:
    """Re-evaluate every row, column bound and binary, independent of the solver.

    Violations strictly greater than ``tol`` are reported; a violation exactly
    at the tolerance is not.  Rows are named as built; a column outside its
    bounds is reported as ``bound:<variable>`` and a binary away from 0 and 1
    as ``binary:<variable>``.
    """
    x = solution.values
    if x.shape[0] != model.n_vars or np.isnan(x).any():
        raise ModelError("solution does not provide a value for every variable")
    a, lo, hi = model._matrix()
    ax = a @ x
    below = np.where(lo > -np.inf, lo - ax, 0.0)
    above = np.where(hi < np.inf, ax - hi, 0.0)
    viol = np.maximum(below, above)
    out = [(model._constrs[i][0], float(viol[i])) for i in np.nonzero(viol > tol)[0]]
    names = model._var_names
    col_viol = np.maximum(np.array(model._lb) - x, x - np.array(model._ub))
    out += [(f"bound:{names[i]}", float(col_viol[i]))
            for i in np.nonzero(col_viol > tol)[0]]
    binary = np.array([k == BINARY for k in model._kinds], dtype=bool)
    frac = np.where(binary, np.minimum(np.abs(x), np.abs(x - 1.0)), 0.0)
    out += [(f"binary:{names[i]}", float(frac[i])) for i in np.nonzero(frac > tol)[0]]
    return ConstraintReport(out)


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
