"""Shared commitment/dispatch/network structure for all market models.

Every market model in the suite (hourly day-ahead, the 15-min market
variants, and the validation re-dispatch) is the same core: per-generator
commitment logic with startup/shutdown variables and minimum up/down times,
block-wise dispatch costs, ramp limits, nodal injections with PTDF line
limits, and a VOLL-priced system balance.  The builder assembles that core
into a MilpModel; callers layer policy-specific structure on top.

Base-case line limits are lazy: a model starts with the rows of the lines
its caller lists, and ``solve_lazy`` adds the rows of every line a solution
overloads, re-solving until none is.  Every market solve goes through that
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milp import (Cols, MilpModel, MilpSolution, Rows, SolveOptions, relax, solve,
                   warm_lps)
from .network import PowerSystem, PtdfMatrix

LINE_COEF_EPS = 1e-10  # PTDF entries below this are dropped from line rows
# a base-case flow beyond rating by more than this brings the line's rows
# into the model (check_solution's default tolerance)
LINE_TOL_MW = 1e-6
LONG_AGO = 10_000  # up/down time of a unit whose last switch is out of sight


class LineLimitError(RuntimeError):
    """A line is over its rating although its limit rows are in the model."""


@dataclass(frozen=True)
class UnitState:
    """Generator state entering a horizon, one entry per generator in
    ``system.generators`` order."""

    committed: np.ndarray   # (G,) bool
    power: np.ndarray       # (G,) MW
    up_time: np.ndarray     # (G,) intervals continuously on, if committed
    down_time: np.ndarray   # (G,) intervals continuously off, if not


def cold_start_state(system: PowerSystem) -> UnitState:
    """Everything off for a long time with zero prior output."""
    n = len(system.generators)
    return UnitState(committed=np.zeros(n, dtype=bool), power=np.zeros(n),
                     up_time=np.full(n, LONG_AGO), down_time=np.full(n, LONG_AGO))


def advance_state(state: UnitState, u_exec: np.ndarray, p_exec: np.ndarray) -> UnitState:
    """Roll the unit state across a block of executed intervals.

    ``u_exec`` and ``p_exec`` are (generators, executed intervals).
    """
    committed, up, down = state.committed, state.up_time, state.down_time
    for on in np.rint(u_exec).astype(bool).T:
        stay = on == committed
        up = np.where(stay, up + on, on)
        down = np.where(stay, down + ~on, ~on)
        committed = on
    return UnitState(committed=committed, power=p_exec[:, -1].astype(float),
                     up_time=np.where(committed, up, 0),
                     down_time=np.where(committed, 0, down))


class UcModelBuilder:
    """Assemble the shared unit-commitment core of one market model.

    Call order: ``add_commitment`` then ``add_dispatch`` then ``add_ramps``
    then ``add_network``.  Each variable family is one integer column array,
    set by the corresponding ``add_*`` call: ``u``, ``v``, ``w`` and ``p``
    are (generators, intervals) with generators by position in
    ``system.generators``; ``pe`` is (generators, intervals, blocks), -1
    past a generator's last cost block; ``inj_cols`` is (buses, intervals);
    the balance slacks ``short`` and ``surp`` are (intervals,).
    """

    def __init__(self, system: PowerSystem, n_intervals: int,
                 interval_hours: float, init: UnitState,
                 voll: float = 10000.0):
        self.system = system
        self.n_intervals = n_intervals
        self.interval_hours = interval_hours
        self.init = init
        self.voll = voll
        self.model = MilpModel()
        self._lines: set[int] = set()

    def inj(self, n: int, t: int) -> int:
        """Column of bus ``n``'s net injection at interval ``t``."""
        return int(self.inj_cols[n, t])

    @property
    def lines(self) -> frozenset[int]:
        """Indices of the lines whose limit rows are in the model."""
        return frozenset(self._lines)

    # ------------------------------------------------------------- commitment
    def gen_values(self, attr: str, dtype=float) -> np.ndarray:
        """(generators, 1): each generator's ``attr``."""
        return np.array([[getattr(g, attr)] for g in self.system.generators], dtype=dtype)

    def add_commitment(self, lo: np.ndarray, hi: np.ndarray, min_updown: np.ndarray) -> None:
        """Commitment, startup and shutdown logic for every generator.

        ``lo`` and ``hi`` are (generators, intervals) 0/1 bounds on each
        commitment: equal for a unit pinned to a pattern, ``lo`` alone for a
        unit that may only add to one.  Minimum up/down times, both those the
        initial state carries in and those inside the horizon, are enforced
        for the generators where the (generators,) mask ``min_updown`` is
        true; the others carry their bounds as given.
        """
        gens, init = self.system.generators, self.init
        ids, t = self.gen_values("id", int), np.arange(self.n_intervals)
        g = np.arange(len(gens))[:, None]
        min_up, min_down = (self.gen_values(a, int)[:, 0] for a in ("min_up", "min_down"))
        # intervals the initial state still holds each unit on (off)
        force_on = np.where(min_updown & init.committed, min_up - init.up_time, 0)
        force_off = np.where(min_updown & ~init.committed, min_down - init.down_time, 0)
        lb = np.where(t < force_on[:, None], 1.0, np.asarray(lo, dtype=float))
        ub = np.where(t < force_off[:, None], 0.0, np.asarray(hi, dtype=float))
        if (lb > ub).any():
            i, k = np.argwhere(lb > ub)[0]
            raise ValueError(f"generator {gens[i].id}: initial up/down state conflicts "
                             f"with its commitment pattern at interval {k}")
        u, v, w = self.u, self.v, self.w = self.model.add_vars([
            Cols("u[g{},t{}]", (g, t, 0), (ids, t), binary=True, lb=lb, ub=ub,
                 cost=self.gen_values("no_load_cost")),
            Cols("v[g{},t{}]", (g, t, 1), (ids, t), ub=1.0,
                 cost=self.gen_values("startup_cost")),
            Cols("w[g{},t{}]", (g, t, 2), (ids, t), ub=1.0,
                 cost=self.gen_values("shutdown_cost"))])
        # at t = 0 the initial commitment enters the bounds instead of u[t-1]
        prev, later, first = self._previous(u), t > 0, t == 0
        on0 = init.committed.astype(float)[:, None]
        link = np.where(first, 0.0 - on0, 0.0)   # 0.0 - on0 keeps +0.0 for a unit off
        rows = [Rows(f"{name}[g{{}},t{{}}]", (g, 0, t, f), (ids, t), terms, lo=lo_, hi=hi_)
                for f, (name, terms, lo_, hi_) in enumerate([
                    ("su_sd_link", [(v, 1.0), (w, -1.0), (u, -1.0), (prev, 1.0, later)],
                     link, link),
                    # startup only from off, shutdown only from on
                    ("su_from_off", [(v, 1.0), (prev, 1.0, later)], -math.inf,
                     np.where(first, 1.0 - on0, 1.0)),
                    ("sd_from_on", [(w, 1.0), (prev, -1.0, later)], -math.inf,
                     np.where(first, on0, 0.0)),
                    ("su_on", [(v, 1.0), (u, -1.0)], -math.inf, 0.0),
                    ("su_sd_excl", [(v, 1.0), (w, 1.0)], -math.inf, 1.0)])]
        for group, (name, switch, length, sign, cap) in enumerate(
                [("min_up", v, min_up, -1.0, 0.0), ("min_dn", w, min_down, 1.0, 1.0)], 1):
            sel = np.flatnonzero(min_updown & (length > 1))
            # the startups (shutdowns) d = 0 .. length[g]-1 intervals before t
            d = np.arange(length.max(initial=1))
            inside = (d <= t[:, None]) & (d < length[sel, None, None])
            rows.append(Rows(f"{name}[g{{}},t{{}}]", (sel[:, None], group, t, 0), (ids[sel], t),
                             [(switch[sel][:, np.maximum(t[:, None] - d, 0)], 1.0, inside),
                              (u[sel], sign)], hi=cap))
        self.model.add_rows(rows)

    @staticmethod
    def _previous(cols: np.ndarray) -> np.ndarray:
        """(generators, intervals): the column of interval t-1, -1 at t = 0."""
        return np.column_stack([np.full(len(cols), -1), cols[:, :-1]])

    # --------------------------------------------------------------- dispatch
    def add_dispatch(self) -> None:
        """Total power as minimum output plus cost blocks; block energy costs."""
        gens = self.system.generators
        ids, t = self.gen_values("id", int), np.arange(self.n_intervals)
        g = np.arange(len(gens))[:, None]
        # (generator, block) of every cost block, with its width and slope
        blocks = np.array([(i, e, width, slope) for i, gen in enumerate(gens)
                           for e, (width, slope) in enumerate(gen.cost_blocks)],
                          dtype=float).reshape(-1, 4)
        gi, e = blocks[:, :2].astype(np.int64).T[:, :, None]
        width, slope = blocks[:, 2:3], blocks[:, 3:4]
        self.p, pe = self.model.add_vars([
            Cols("p[g{},t{}]", (g, t, 0), (ids, t), ub=self.gen_values("p_max")),
            Cols("pe[g{},t{},e{}]", (gi, t, e + 1), (ids[gi[:, 0]], t, e), ub=width,
                 cost=slope * self.interval_hours)])
        self.pe = np.full((len(gens), self.n_intervals, int(e.max(initial=-1)) + 1), -1)
        self.pe[gi, t, e] = pe
        self.model.add_rows([
            Rows("blk_ub[g{},t{},e{}]", (gi, t, 0, e), (ids[gi[:, 0]], t, e),
                 [(pe, 1.0), (self.u[gi[:, 0]], -width)], hi=0.0),
            Rows("pwr_def[g{},t{}]", (g, t, 1, 0), (ids, t),
                 [(self.p, 1.0), (self.u, -self.gen_values("p_min")),
                  (self.pe, -1.0, self.pe >= 0)], lo=0.0, hi=0.0)])

    # ------------------------------------------------------------------ ramps
    def _ramp_rates(self, n: int) -> np.ndarray:
        """(generators, n): each generator's 15-min ramp rate in every column."""
        rates = self.gen_values("ramp_15")
        return np.broadcast_to(rates, (len(rates), n))

    def add_ramps(self, up: np.ndarray | None = None, dn: np.ndarray | None = None) -> None:
        """Interval-to-interval ramp limits.

        ``up`` and ``dn`` are (generators, intervals) caps on the upward and
        downward moves, plus the startup/shutdown allowances: entry t limits
        the move from interval t-1 into t (index 0 from the initial state).
        Each defaults to the 15-min ramp rate.
        """
        up = self._ramp_rates(self.n_intervals) if up is None else up
        dn = self._ramp_rates(self.n_intervals) if dn is None else dn
        ids, t = self.gen_values("id", int), np.arange(self.n_intervals)
        g = np.arange(len(ids))[:, None]
        u, v, w, p = self.u, self.v, self.w, self.p
        later, first = t > 0, t == 0
        power = self.init.power[:, None]
        # the move into interval 0 starts from the chained initial state
        self.model.add_rows([
            Rows("ramp_up[g{},t{}]", (g, t, 0), (ids, t),
                 [(p, 1.0), (self._previous(p), -1.0, later),
                  (self._previous(u), -up, later), (v, -self.gen_values("ramp_su"))],
                 hi=np.where(first, power + up * self.init.committed[:, None], 0.0)),
            Rows("ramp_dn[g{},t{}]", (g, t, 1), (ids, t),
                 [(self._previous(p), 1.0, later), (p, -1.0), (u, -dn),
                  (w, -self.gen_values("ramp_sd"))],
                 hi=np.where(first, -power, 0.0))])

    # ------------------------------------------------------------- glidepath
    def add_shutdown_glidepath(self, start: int, schedule: np.ndarray,
                               budget: np.ndarray | None = None) -> None:
        """Level caps that keep scheduled shutdowns reachable beyond the horizon.

        A shutdown scheduled a few intervals past the rolling window is
        invisible to the model that ends up positioning the unit for it, so a
        unit could be left too high to descend to its shutdown allowance in
        time.  For every in-horizon interval of a unit that is scheduled off
        at some later interval s, cap its level at the shutdown allowance plus
        the total downward move budget available on the way there.

        ``schedule`` is the (generators, 96) scheduled commitment per global
        interval of the day, ``start`` the global interval of the horizon's
        first; ``budget`` (generators, 96) is the downward move allowed from
        interval k into k+1, by default the 15-min ramp rate.
        """
        n_gens, n_day = schedule.shape
        if budget is None:
            budget = self._ramp_rates(n_day)
        # first scheduled off interval at or after each interval, n_day if none
        off = np.where(schedule == 0, np.arange(n_day), n_day)
        next_off = np.minimum.accumulate(off[:, ::-1], axis=1)[:, ::-1]
        slow = ~np.array([g.is_fast_start for g in self.system.generators])
        ramp_sd = self.gen_values("ramp_sd")[:, 0]
        bound = np.full((n_gens, self.n_intervals), np.inf)   # inf: no cap
        for t in range(min(self.n_intervals, n_day - start)):
            now = start + t
            # sums[:, m] = the first m moves from now, added in order
            sums = np.column_stack([np.zeros(n_gens), np.cumsum(budget[:, now:], axis=1)])
            moves = np.maximum(next_off[:, now] - 1 - now, 0)
            bound[:, t] = np.where(slow & (schedule[:, now] == 1) & (next_off[:, now] < n_day),
                                   ramp_sd + sums[np.arange(n_gens), moves], np.inf)
        gi, t = np.nonzero(bound < self.gen_values("p_max") - 1e-9)
        self.model.add_rows([Rows("sd_glide[g{},t{}]", (gi, t),
                                  (self.gen_values("id", int)[gi, 0], t),
                                  [(self.p[gi, t], 1.0)], hi=bound[gi, t])])

    # ---------------------------------------------------------------- network
    def add_network(self, nodal_load: np.ndarray, nodal_solar: np.ndarray) -> None:
        """Nodal injections and the VOLL-priced system balance.

        ``nodal_load`` and ``nodal_solar`` are (n_buses, n_intervals) MW.
        """
        system = self.system
        bus_ids = np.array([b.id for b in system.buses])
        b, t = np.arange(len(bus_ids)), np.arange(self.n_intervals)[:, None]
        penalty = self.voll * self.interval_hours
        inj, self.short, self.surp = self.model.add_vars([
            Cols("inj[n{},t{}]", (t, 0, b), (bus_ids, t), lb=-math.inf),
            Cols("sl_short[t{}]", (t[:, 0], 1, 0), (t[:, 0],), cost=penalty),
            Cols("sl_surp[t{}]", (t[:, 0], 1, 1), (t[:, 0],), cost=penalty)])
        self.inj_cols = inj.T
        at_bus = bus_ids[:, None] == [gen.bus for gen in system.generators]  # (buses, units)
        net = (nodal_solar - nodal_load)[bus_ids].T
        self.model.add_rows([
            Rows("inj_def[n{},t{}]", (t, 0, b), (bus_ids, t),
                 [(inj, 1.0), (self.p.T[:, None], -1.0, at_bus)],
                 lo=net, hi=net),
            Rows("sys_bal[t{}]", (t[:, 0], 1, 0), (t[:, 0],),
                 [(inj, 1.0), (self.short, 1.0), (self.surp, -1.0)], lo=0.0, hi=0.0)])

    def add_line_limits(self, ptdf: PtdfMatrix, lines) -> None:
        """One ranged row ``-rating <= flow <= rating`` per interval for each
        listed line index whose rows are not in the model yet."""
        new = [k for k in dict.fromkeys(lines) if k not in self._lines]
        if not new:
            return
        self._lines.update(new)
        rows = ptdf.values[new]
        near = np.abs(rows) > LINE_COEF_EPS
        k = np.flatnonzero(near.any(axis=1))[:, None]   # a line with no terms gets no rows
        t = np.arange(self.n_intervals)
        rating = np.array([self.system.lines[new[i]].rating for i in k[:, 0]])[:, None]
        line_ids = np.array([self.system.lines[new[i]].id for i in k[:, 0]])[:, None]
        self.model.add_rows([Rows(
            "line[k{},t{}]", (k, t), (line_ids, t),
            [(self.inj_cols.T[None], rows[k[:, 0], None], near[k[:, 0], None])],
            lo=-rating, hi=rating)])

    def add_overloaded_lines(self, sol: MilpSolution, ptdf: PtdfMatrix) -> int:
        """Add the limit rows of every line ``sol`` overloads; return how many.

        A line is overloaded when its base-case flow from the full PTDF
        exceeds its rating by more than ``LINE_TOL_MW`` at some interval.
        Raises LineLimitError, naming the line, if its rows are already in.
        """
        ratings = np.array([ln.rating for ln in self.system.lines])
        excess = np.abs(self.base_flows(sol, ptdf)) - ratings[:, None]
        over = np.flatnonzero((excess > LINE_TOL_MW).any(axis=1)).tolist()
        for k in over:
            if k in self._lines:
                t = int(np.argmax(excess[k]))
                raise LineLimitError(
                    f"line {self.system.lines[k].id} exceeds its rating by "
                    f"{excess[k, t]:.3g} MW at interval {t} with its limit rows "
                    "in the model")
        self.add_line_limits(ptdf, over)
        return len(over)

    # ------------------------------------------------------------ extraction
    def commitment_values(self, sol: MilpSolution) -> np.ndarray:
        """Rounded commitment per (generator position, interval)."""
        return np.rint(sol.values[self.u]).astype(np.int64)

    def dispatch_values(self, sol: MilpSolution) -> np.ndarray:
        """Power output per (generator position, interval)."""
        return sol.values[self.p]

    def base_flows(self, sol: MilpSolution, ptdf: PtdfMatrix) -> np.ndarray:
        """Pre-activation line flows per (line, interval)."""
        return ptdf.values @ sol.values[self.inj_cols]

    def interval_costs(self, sol: MilpSolution) -> tuple[np.ndarray, np.ndarray]:
        """Per-interval (commitment+energy cost, balance violation MW).

        The cost is each interval's u, v, w and pe columns times their
        objective coefficients.  A running sum adds them generator by
        generator, in column order, so reported costs do not depend on
        numpy's pairwise summation.
        """
        T = self.n_intervals
        cols = np.concatenate([self.u[:, None], self.v[:, None], self.w[:, None],
                               self.pe.transpose(0, 2, 1)], axis=1).reshape(-1, T)
        c, x = self.model.objective_vector(), sol.values
        terms = np.where(cols >= 0, c[cols] * x[cols], 0.0)
        cost = np.cumsum(terms, axis=0)[-1] if len(terms) else np.zeros(T)
        # slack readings can carry ~1e-13 solver noise below zero
        viol = np.maximum(x[self.short], 0.0) + np.maximum(x[self.surp], 0.0)
        return cost, viol


def solve_lazy(builder: UcModelBuilder, ptdf: PtdfMatrix,
               options: SolveOptions | None = None, more_rows=None) -> MilpSolution:
    """Solve with base-case line rows generated on demand.

    The first rounds run on the LP relaxation: add the rows of every line it
    overloads and re-solve it until it overloads none.  An integral
    relaxation is the optimum; a fractional one is handed to ``solve``,
    which fixes the binaries the relaxation already sets, solves a MIP over
    the fractional ones and keeps it when it is within ``mip_rel_gap`` of
    the relaxation's bound, else solves the MIP cold.  From then on, add the
    rows of every line the solution overloads, and re-solve until a solve
    overloads none.  Then ``more_rows(sol)``, if given, may add further rows
    and return how many; any addition starts another round.  Each round must
    add rows not yet in the model, so the loop ends.  A non-optimal solve
    ends it at once and is returned for the caller to judge.  Every round
    hands ``solve`` the round before it, so a round whose rows leave the last
    commitment within the gap costs one LP.  That LP, and every relaxation
    after the first, is warm (``milp.warm_lps``): it re-runs the HiGHS that
    solved the LP before it, unless a MIP ran in between.  No HiGHS outlives
    the call.
    """
    with warm_lps(builder.model):
        sol = relax(builder.model)
        while sol.status == "optimal" and builder.add_overloaded_lines(sol, ptdf):
            sol = relax(builder.model)
        if sol.mip_gap != 0.0:
            # fractional or not solved: the MIP over the fractional binaries, or cold
            sol = solve(builder.model, options, sol)
        while True:
            if sol.status != "optimal":
                return sol
            added = builder.add_overloaded_lines(sol, ptdf)
            if not added and more_rows is not None:
                added = more_rows(sol)
            if not added:
                return sol
            sol = solve(builder.model, options, sol)
