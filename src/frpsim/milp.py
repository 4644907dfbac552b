"""Solver-agnostic MILP container, solve entry point, and independent checks.

The model is a plain declarative store of variables, ranged linear rows
(``lo <= a.x <= hi``), and a linear minimization objective.  Solving is
delegated to the HiGHS backend shipped with scipy; checking a solution never
touches the solver and simply re-evaluates every row, column bound and
binary arithmetically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as _highs_milp

CONTINUOUS = "continuous"
BINARY = "binary"

# a binary this close to 0 or 1 counts as integral (HiGHS's default
# mip_feasibility_tolerance)
INTEGRALITY_TOL = 1e-6
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


def _problem(model: MilpModel, options: SolveOptions):
    """The model's arrays and the backend options, as ``_highs_milp`` takes them."""
    model.validate()
    binary = np.array([k == BINARY for k in model._kinds], dtype=bool)
    constraints = None
    if model.n_constrs:
        a, lo, hi = model._matrix()
        constraints = LinearConstraint(a, lo, hi)
    opts = {"mip_rel_gap": options.mip_rel_gap, "presolve": True}
    if options.time_limit is not None:
        opts["time_limit"] = options.time_limit
    return (model.objective_vector(), constraints, binary, np.array(model._lb),
            np.array(model._ub), opts)


def _integral(values: np.ndarray) -> np.ndarray:
    """Which entries lie within ``INTEGRALITY_TOL`` of an integer."""
    return np.abs(values - np.rint(values)) <= INTEGRALITY_TOL


def relax(model: MilpModel, options: SolveOptions | None = None) -> MilpSolution:
    """Solve the model's LP relaxation: every binary may take any value in [0, 1].

    An optimal relaxation carries its objective as ``dual_bound``, a lower
    bound on the model's optimum.  When its binaries are all integral it is
    that optimum: ``mip_gap`` is 0 and ``message`` starts with
    ``certified``.  A fractional relaxation has a NaN ``mip_gap``.
    """
    c, constraints, binary, lb, ub, opts = _problem(model, options or SolveOptions())
    res = _highs_milp(c=c, constraints=constraints, integrality=np.zeros(len(c)),
                      bounds=Bounds(lb, ub), options=opts)
    if res.status != 0:
        return MilpSolution(status=_STATUS.get(res.status, "error"), objective=math.nan,
                            values=np.full(model.n_vars, np.nan), message=str(res.message))
    values = np.asarray(res.x, dtype=float)
    if _integral(values[binary]).all():
        return MilpSolution(status="optimal", objective=float(res.fun), values=values,
                            message="certified: the LP relaxation is integral",
                            mip_gap=0.0, dual_bound=float(res.fun))
    return MilpSolution(status="optimal", objective=float(res.fun), values=values,
                        message=str(res.message), dual_bound=float(res.fun))


def solve(model: MilpModel, options: SolveOptions | None = None,
          previous: MilpSolution | None = None) -> MilpSolution:
    """Solve the model with HiGHS; status reflects the backend outcome.

    ``previous`` is a solution whose ``dual_bound`` bounds this model's
    optimum from below: a solve of the same model before rows were added to
    it, or the model's LP relaxation (``relax``).  When that bound is finite
    the binaries that are integral in ``previous`` are fixed at their values
    and the fractional ones stay binary, so an integral ``previous`` costs
    one LP and a relaxation a MIP over only its fractional binaries.  A cost
    within ``mip_rel_gap`` of the bound is returned as optimal, its
    ``mip_gap`` measured against the bound it carries forward; any other
    outcome falls back to the full MIP, solved cold.
    """
    options = options or SolveOptions()
    c, constraints, binary, lb, ub, opts = _problem(model, options)
    if previous is not None and math.isfinite(previous.dual_bound):
        if previous.values.shape != (model.n_vars,):
            raise ModelError("previous solution does not match the model's columns")
        bound = previous.dual_bound
        fixed = np.rint(previous.values)
        pin = binary & _integral(previous.values)
        res = _highs_milp(c=c, constraints=constraints,
                          integrality=(binary & ~pin).astype(int),
                          bounds=Bounds(np.where(pin, fixed, lb), np.where(pin, fixed, ub)),
                          options=opts)
        if res.status == 0 and abs(res.fun - bound) <= options.mip_rel_gap * abs(res.fun):
            return MilpSolution(
                status="optimal", objective=float(res.fun),
                values=np.asarray(res.x, dtype=float),
                message="certified: the binaries integral in the previous solution, "
                        "fixed, leave a cost within mip_rel_gap of its dual bound",
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
