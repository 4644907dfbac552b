"""Solver-agnostic MILP container, solve entry point, and independent checks.

The model is a plain declarative store of variables, ranged linear rows
(``lo <= a.x <= hi``), and a linear minimization objective.  Solving is
delegated to the HiGHS build that scipy ships, driven through scipy's
binding (``scipy.optimize._highspy._core._Highs``): ``_highs_milp`` passes
the model's own arrays to a fresh HiGHS with the options
``scipy.optimize.milp`` sets, except that HiGHS's feasibility-jump heuristic
is off, and returns a ``MilpSolution`` whose status, message and numbers are
the ones ``milp`` given that one option would report, bit for bit.  The
heuristic runs at the start of every MIP and costs more than the rest of a
5-bus hour model's solve.
Checking a solution never touches the solver and simply re-evaluates every
row, column bound and binary arithmetically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _hc

# a binary this close to 0 or 1 counts as integral (HiGHS's default
# mip_feasibility_tolerance)
INTEGRALITY_TOL = 1e-6


class ModelError(ValueError):
    """Raised for malformed models: duplicate names, unknown variables, empty
    ranges, a column repeated in a row."""


@dataclass
class SolveOptions:
    """Backend knobs; defaults match the precision the rest of the suite assumes."""

    mip_rel_gap: float = 1e-4
    time_limit: float | None = None


@dataclass(frozen=True)
class Cols:
    """A family of columns for ``MilpModel.add_vars``.

    ``template.format(*index)`` names each column.  ``key``, a tuple of
    integer arrays or scalars, and ``index`` broadcast to the family's
    shape, as do ``lb``, ``ub`` and ``cost``.  A block holds its families'
    entries in the lexicographic order of their keys.
    """

    template: str
    key: tuple
    index: tuple = ()
    binary: bool = False
    lb: object = 0.0
    ub: object = math.inf
    cost: object = 0.0


@dataclass(frozen=True)
class Rows:
    """A family of rows ``lo <= sum(coefs * x[cols]) <= hi`` for
    ``MilpModel.add_rows``, named, shaped and ordered like ``Cols``.

    Each term is ``(cols, coefs)`` or ``(cols, coefs, present)``.  ``cols``
    has the family's shape, or broadcasts to it, optionally with a trailing
    axis of terms; ``coefs`` and the mask ``present`` broadcast to ``cols``.
    """

    template: str
    key: tuple
    index: tuple = ()
    terms: tuple = ()
    lo: object = -math.inf
    hi: object = math.inf


def _flat(a, shape, dtype=np.float64) -> np.ndarray:
    """``a`` broadcast to ``shape``, flattened."""
    out = np.empty(shape, dtype=dtype)
    out[...] = a
    return out.ravel()


def _layout(families) -> tuple[list[tuple[int, ...]], list[np.ndarray], list]:
    """Each family's shape, the block position of each of its entries and
    the block's names: (template, positions, shape, index) per family."""
    shapes = [np.broadcast_shapes(*map(np.shape, tuple(f.key) + tuple(f.index)))
              for f in families]
    keys = [np.concatenate([_flat(f.key[j], s, np.int64) for f, s in zip(families, shapes)])
            for j in range(len(families[0].key))]
    pos = np.empty(len(keys[0]), dtype=np.int64)
    pos[np.lexsort(keys[::-1])] = np.arange(len(pos))
    pos = np.split(pos, np.cumsum([math.prod(s) for s in shapes])[:-1])
    return shapes, pos, [(f.template, p, s, tuple(f.index))
                         for f, s, p in zip(families, shapes, pos)]


def _format(names: list, n: int) -> list[str]:
    """The ``n`` names of a block from its (template, positions, shape, index)."""
    out = [""] * n
    for template, pos, shape, index in names:
        formatted = (map(template.format, *(np.broadcast_to(a, shape).ravel().tolist()
                                            for a in index))
                     if index else itertools.repeat(template))
        for p, name in zip(pos.tolist(), formatted):
            out[p] = name
    return out


class MilpModel:
    """Declarative MILP: named variables, named ranged rows, min objective.

    Every row is ``lo <= a.x <= hi``: an equality has ``lo == hi`` and a
    one-sided row leaves the other bound infinite.  Columns and rows are
    stored as arrays, one block per ``add_vars``/``add_rows`` call.  Names
    are formatted from each block's templates only when read
    (``var_names``, ``constr_names``, ``check_solution``'s report or a
    ``ModelError``); a duplicate name raises ``ModelError`` then.  Every
    column, row and cost enters through ``add_vars`` and ``add_rows``.
    """

    def __init__(self):
        self._lb, self._ub, self._cost = np.empty(0), np.empty(0), np.empty(0)
        self._binary = np.empty(0, dtype=bool)
        # per block of rows: (row, column, coefficient) entries, lo, hi
        self._rows = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),) * 3]
        self._n_rows = 0
        # per kind, per block: (size, [(template, positions, shape, index)])
        self._names: dict[str, list] = {"variable": [], "constraint": []}
        self._name_cache: dict[str, tuple[int, list[str]]] = {}
        self._matrix_cache: tuple[tuple[int, int], sp.csr_matrix, np.ndarray,
                                  np.ndarray] | None = None

    # ------------------------------------------------------------------ build
    @property
    def n_vars(self) -> int:
        return len(self._lb)

    @property
    def n_constrs(self) -> int:
        return self._n_rows

    @property
    def var_names(self) -> list[str]:
        return list(self._all_names("variable"))

    @property
    def constr_names(self) -> list[str]:
        return list(self._all_names("constraint"))

    @property
    def integrality(self) -> np.ndarray:
        """1 for a binary column, 0 for a continuous one."""
        return self._binary.astype(np.int64)

    @property
    def col_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self._lb.copy(), self._ub.copy()

    def _all_names(self, kind: str) -> list[str]:
        """Every name of ``kind`` in order."""
        n = self.n_vars if kind == "variable" else self.n_constrs
        cached = self._name_cache.get(kind)
        if cached is None or cached[0] != n:
            names = [name for size, block in self._names[kind]
                     for name in _format(block, size)]
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ModelError(f"duplicate {kind} name {name!r}")
                seen.add(name)
            cached = self._name_cache[kind] = (n, names)
        return cached[1]

    def add_vars(self, families: list[Cols]) -> list[np.ndarray]:
        """Append one block of columns; return each family's columns in its shape."""
        shapes, pos, names = _layout(families)
        n = sum(map(len, pos))
        lb, ub, cost, binary = np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)
        for f, s, p in zip(families, shapes, pos):
            lb[p], ub[p], cost[p] = _flat(f.lb, s), _flat(f.ub, s), _flat(f.cost, s)
            binary[p] = f.binary
        lb = np.where(binary, np.maximum(lb, 0.0), lb)
        ub = np.where(binary, np.minimum(ub, 1.0), ub)
        bad = np.flatnonzero(lb > ub)
        if len(bad):
            i = bad[0]
            raise ModelError(f"variable {_format(names, n)[i]!r} has empty bound range "
                             f"[{lb[i]}, {ub[i]}]")
        start = self.n_vars
        self._lb, self._ub = np.concatenate([self._lb, lb]), np.concatenate([self._ub, ub])
        # + 0.0 turns a -0.0 cost into +0.0
        self._cost = np.concatenate([self._cost, cost + 0.0])
        self._binary = np.concatenate([self._binary, binary])
        self._names["variable"].append((n, names))
        return [start + p.reshape(s) for s, p in zip(shapes, pos)]

    def add_rows(self, families: list[Rows]) -> None:
        """Append one block of rows."""
        shapes, pos, names = _layout(families)
        n = sum(map(len, pos))
        if not n:
            return
        lo, hi = np.empty(n), np.empty(n)
        entries: list[tuple[np.ndarray, ...]] = [(np.empty(0, dtype=np.int64),) * 2
                                                 + (np.empty(0),)]
        for f, s, p in zip(families, shapes, pos):
            lo[p], hi[p] = _flat(f.lo, s), _flat(f.hi, s)
            for cols, coefs, *present in f.terms:
                full = s + np.shape(cols)[len(s):]   # with a trailing axis of terms
                entries.append((np.repeat(p, math.prod(full[len(s):])),
                                _flat(cols, full, np.int64), _flat(coefs, full)))
                if present:
                    keep = _flat(present[0], full, bool)
                    entries[-1] = tuple(a[keep] for a in entries[-1])
        bad = np.flatnonzero(~(lo <= hi) | (np.isinf(lo) & np.isinf(hi)))
        if len(bad):
            i = bad[0]
            what = (f"has empty range [{lo[i]}, {hi[i]}]" if not lo[i] <= hi[i]
                    else "has no finite bound")
            raise ModelError(f"constraint {_format(names, n)[i]!r} {what}")
        rows, cols, coefs = (np.concatenate(a) for a in zip(*entries))
        # + 0.0 turns a -0.0 coefficient into +0.0
        self._rows.append((self._n_rows + rows, cols, coefs + 0.0, lo, hi))
        self._n_rows += n
        self._names["constraint"].append((n, names))
        self._matrix_cache = None

    # -------------------------------------------------------------- validation
    def validate(self) -> None:
        """Raise ModelError if a row references an undeclared variable or
        lists a column twice.

        The checks run while the matrix is built, so on a model whose matrix
        is cached they cost nothing.
        """
        self._matrix()

    # ------------------------------------------------------------------ matrix
    def _matrix(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Constraint matrix with per-row lower/upper bounds, cached per size."""
        size = (self.n_constrs, self.n_vars)
        if self._matrix_cache is not None and self._matrix_cache[0] == size:
            return self._matrix_cache[1:]
        if len(self._rows) > 1:
            self._rows = [tuple(np.concatenate(a) for a in zip(*self._rows))]
        rows, cols, data, lo, hi = self._rows[0]
        bad = np.flatnonzero((cols < 0) | (cols >= self.n_vars))
        if len(bad):
            raise ModelError(f"constraint {self.constr_names[rows[bad[0]]]!r} "
                             "references undeclared variables")
        a = sp.csr_matrix((data, (rows, cols)), shape=size)
        if a.nnz < len(data):
            # the conversion summed a repeated column
            row = np.flatnonzero(np.diff(a.indptr) < np.bincount(rows, minlength=size[0]))[0]
            raise ModelError(f"constraint {self.constr_names[row]!r} lists a column twice")
        self._matrix_cache = (size, a, lo, hi)
        return a, lo, hi

    def objective_vector(self) -> np.ndarray:
        return self._cost.copy()


@dataclass
class MilpSolution:
    """Outcome of one solve; values indexed like the model's variables."""

    # "optimal" | "infeasible" | "unbounded" | "limit" (time or iteration
    # limit) | "error" (anything else, e.g. an unbounded or infeasible MILP)
    status: str
    objective: float       # NaN, as is every value, when there is no solution
    values: np.ndarray
    # "<sentence> (HiGHS Status <n>: <detail>)", or "certified: <why>"
    message: str = ""
    mip_gap: float = float("nan")
    # a lower bound on the optimum (HiGHS's, or an optimal relaxation's
    # objective); NaN when there is none (an LP, an infeasible MIP)
    dual_bound: float = float("nan")
    mip_node_count: int = 0   # branch-and-bound nodes; 0 for an LP

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


_S = _hc.HighsModelStatus
# HiGHS's model status -> status and the message's first sentence; any other
# status is an "error" whose code "was not recognized"
_STATUS = {
    _S.kOptimal: ("optimal", "Optimization terminated successfully. "),
    _S.kTimeLimit: ("limit", "Time limit reached. "),
    _S.kIterationLimit: ("limit", "Iteration limit reached. "),
    _S.kInfeasible: ("infeasible", "The problem is infeasible. "),
    _S.kModelError: ("infeasible", ""),
    _S.kUnbounded: ("unbounded", "The problem is unbounded. "),
    _S.kUnboundedOrInfeasible: ("error", "The problem is unbounded or infeasible. "),
} | dict.fromkeys((_S.kNotset, _S.kLoadError, _S.kPresolveError, _S.kSolveError,
                   _S.kPostsolveError, _S.kModelEmpty, _S.kObjectiveBound,
                   _S.kObjectiveTarget), ("error", ""))
# a limit stop of a MIP still carries HiGHS's incumbent, if it found one
_LIMITS = (_S.kTimeLimit, _S.kIterationLimit, _S.kSolutionLimit)


def _highs_milp(model: MilpModel, integrality: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                options: SolveOptions) -> MilpSolution:
    """A fresh HiGHS run on the model's rows and costs, with column bounds
    ``lb``/``ub`` and ``integrality`` (nonzero for an integer column); the
    MIP fields are set only for a MIP that carries a solution.

    HiGHS gets ``scipy.optimize.milp``'s options and one more:
    ``mip_heuristic_run_feasibility_jump`` off.  A HiGHS too old to know the
    option has no such heuristic and refuses the name without raising.
    """
    a, lo, hi = model._matrix()
    a, n = a.tocsc(), model.n_vars
    highs = _hc._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("mip_rel_gap", float(options.mip_rel_gap))
    highs.setOptionValue("presolve", "on")
    # not milp's (see the docstring); the status is ignored on purpose
    highs.setOptionValue("mip_heuristic_run_feasibility_jump", False)
    if options.time_limit is not None:
        highs.setOptionValue("time_limit", float(options.time_limit))
    sol = MilpSolution(status="", objective=math.nan, values=np.full(n, np.nan))
    loaded = highs.passModel(n, len(lo), a.nnz, _hc.MatrixFormat.kColwise,
                             _hc.ObjSense.kMinimize, 0.0, model._cost, lb, ub, lo, hi,
                             a.indptr, a.indices, a.data,
                             integrality) != _hc.HighsStatus.kError
    ran = loaded and highs.run() != _hc.HighsStatus.kError
    status = highs.getModelStatus() if loaded else _S.kModelError
    detail = highs.modelStatusToString(status)
    if ran:
        info, is_mip = highs.getInfo(), np.any(integrality)
        if (status == _S.kOptimal
                or (is_mip and status in _LIMITS
                    and info.objective_function_value != _hc.kHighsInf)):
            sol.values = np.array(highs.getSolution().col_value)
            sol.objective = info.objective_function_value
            if is_mip:
                sol.mip_gap, sol.dual_bound = info.mip_gap, info.mip_dual_bound
                sol.mip_node_count = info.mip_node_count
        else:
            detail = (f"model_status is {detail}; primal_status is "
                      f"{highs.solutionStatusToString(info.primal_solution_status)}")
    sol.status, first = _STATUS.get(status, ("error", "The HiGHS status code was not "
                                                      "recognized. "))
    sol.message = f"{first}(HiGHS Status {int(status)}: {detail})"
    return sol


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
    sol = _highs_milp(model, np.zeros(model.n_vars, dtype=np.int32), model._lb, model._ub,
                      options or SolveOptions())
    if sol.status != "optimal":
        return sol
    sol.dual_bound = sol.objective
    if _integral(sol.values[model._binary]).all():
        sol.mip_gap, sol.message = 0.0, "certified: the LP relaxation is integral"
    return sol


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
    binary = model._binary
    if previous is not None and math.isfinite(previous.dual_bound):
        if previous.values.shape != (model.n_vars,):
            raise ModelError("previous solution does not match the model's columns")
        bound = previous.dual_bound
        fixed = np.rint(previous.values)
        pin = binary & _integral(previous.values)
        sol = _highs_milp(model, binary & ~pin, np.where(pin, fixed, model._lb),
                          np.where(pin, fixed, model._ub), options)
        cost = sol.objective
        if sol.status == "optimal" and abs(cost - bound) <= options.mip_rel_gap * abs(cost):
            sol.message = ("certified: the binaries integral in the previous solution, "
                           "fixed, leave a cost within mip_rel_gap of its dual bound")
            sol.mip_gap = abs(cost - bound) / abs(cost) if cost else 0.0
            sol.dual_bound = bound
            return sol
    return _highs_milp(model, binary, model._lb, model._ub, options)


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
    rows = np.flatnonzero(viol > tol)
    out = []
    if len(rows):
        names = model.constr_names
        out = [(names[i], float(viol[i])) for i in rows]
    col_viol = np.maximum(model._lb - x, x - model._ub)
    frac = np.where(model._binary, np.minimum(np.abs(x), np.abs(x - 1.0)), 0.0)
    if (col_viol > tol).any() or (frac > tol).any():
        names = model.var_names
        out += [(f"bound:{names[i]}", float(col_viol[i]))
                for i in np.flatnonzero(col_viol > tol)]
        out += [(f"binary:{names[i]}", float(frac[i])) for i in np.flatnonzero(frac > tol)]
    return ConstraintReport(out)
