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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .milp import BINARY, CONTINUOUS, MilpModel, MilpSolution, SolveOptions, relax, solve
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
    filled by the corresponding ``add_*`` call: ``u``, ``v``, ``w`` and ``p``
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
        n_gens, T = len(system.generators), n_intervals
        n_blocks = max((len(g.cost_blocks) for g in system.generators), default=0)
        self.u = np.zeros((n_gens, T), dtype=np.int64)
        self.v = np.zeros((n_gens, T), dtype=np.int64)
        self.w = np.zeros((n_gens, T), dtype=np.int64)
        self.p = np.zeros((n_gens, T), dtype=np.int64)
        self.pe = np.full((n_gens, T, n_blocks), -1, dtype=np.int64)
        self.inj_cols = np.zeros((len(system.buses), T), dtype=np.int64)
        self.short = np.zeros(T, dtype=np.int64)
        self.surp = np.zeros(T, dtype=np.int64)
        self._lines: set[int] = set()

    def inj(self, n: int, t: int) -> int:
        """Column of bus ``n``'s net injection at interval ``t``."""
        return int(self.inj_cols[n, t])

    @property
    def lines(self) -> frozenset[int]:
        """Indices of the lines whose limit rows are in the model."""
        return frozenset(self._lines)

    # ------------------------------------------------------------- commitment
    def add_commitment(self, lo: np.ndarray, hi: np.ndarray, min_updown: np.ndarray) -> None:
        """Commitment, startup and shutdown logic for every generator.

        ``lo`` and ``hi`` are (generators, intervals) 0/1 bounds on each
        commitment: equal for a unit pinned to a pattern, ``lo`` alone for a
        unit that may only add to one.  Minimum up/down times, both those the
        initial state carries in and those inside the horizon, are enforced
        for the generators where the (generators,) mask ``min_updown`` is
        true; the others carry their bounds as given.
        """
        m = self.model
        T = self.n_intervals
        lo, hi = np.asarray(lo, dtype=float).tolist(), np.asarray(hi, dtype=float).tolist()
        committed, up_time, down_time = (a.tolist() for a in (
            self.init.committed, self.init.up_time, self.init.down_time))
        for i, gen in enumerate(self.system.generators):
            u0 = 1 if committed[i] else 0
            force_on = force_off = 0
            if min_updown[i]:
                if committed[i] and up_time[i] < gen.min_up:
                    force_on = gen.min_up - up_time[i]
                if not committed[i] and down_time[i] < gen.min_down:
                    force_off = gen.min_down - down_time[i]
            us, vs, ws = [], [], []
            for t in range(T):
                lb, ub = lo[i][t], hi[i][t]
                if t < force_on:
                    lb = 1.0
                if t < force_off:
                    ub = 0.0
                if lb > ub:
                    raise ValueError(
                        f"generator {gen.id}: initial up/down state conflicts "
                        f"with its commitment pattern at interval {t}"
                    )
                ui = m.add_var(f"u[g{gen.id},t{t}]", BINARY, lb=lb, ub=ub)
                vi = m.add_var(f"v[g{gen.id},t{t}]", CONTINUOUS, 0.0, 1.0)
                wi = m.add_var(f"w[g{gen.id},t{t}]", CONTINUOUS, 0.0, 1.0)
                m.add_to_objective(ui, gen.no_load_cost)
                m.add_to_objective(vi, gen.startup_cost)
                m.add_to_objective(wi, gen.shutdown_cost)
                if t == 0:
                    m.add_constr(f"su_sd_link[g{gen.id},t0]",
                                 [(vi, 1.0), (wi, -1.0), (ui, -1.0)], lo=-u0, hi=-u0)
                    # startup only from off, shutdown only from on
                    m.add_constr(f"su_from_off[g{gen.id},t0]", [(vi, 1.0)], hi=1.0 - u0)
                    m.add_constr(f"sd_from_on[g{gen.id},t0]", [(wi, 1.0)], hi=float(u0))
                else:
                    up = us[t - 1]
                    m.add_constr(f"su_sd_link[g{gen.id},t{t}]",
                                 [(vi, 1.0), (wi, -1.0), (ui, -1.0), (up, 1.0)],
                                 lo=0.0, hi=0.0)
                    m.add_constr(f"su_from_off[g{gen.id},t{t}]",
                                 [(vi, 1.0), (up, 1.0)], hi=1.0)
                    m.add_constr(f"sd_from_on[g{gen.id},t{t}]",
                                 [(wi, 1.0), (up, -1.0)], hi=0.0)
                m.add_constr(f"su_on[g{gen.id},t{t}]", [(vi, 1.0), (ui, -1.0)], hi=0.0)
                m.add_constr(f"su_sd_excl[g{gen.id},t{t}]",
                             [(vi, 1.0), (wi, 1.0)], hi=1.0)
                us.append(ui)
                vs.append(vi)
                ws.append(wi)
            self.u[i], self.v[i], self.w[i] = us, vs, ws
            if min_updown[i]:
                if gen.min_up > 1:
                    for t in range(T):
                        first = max(0, t - gen.min_up + 1)
                        terms = [(vs[s], 1.0) for s in range(first, t + 1)]
                        terms.append((us[t], -1.0))
                        m.add_constr(f"min_up[g{gen.id},t{t}]", terms, hi=0.0)
                if gen.min_down > 1:
                    for t in range(T):
                        first = max(0, t - gen.min_down + 1)
                        terms = [(ws[s], 1.0) for s in range(first, t + 1)]
                        terms.append((us[t], 1.0))
                        m.add_constr(f"min_dn[g{gen.id},t{t}]", terms, hi=1.0)

    # --------------------------------------------------------------- dispatch
    def add_dispatch(self) -> None:
        """Total power as minimum output plus cost blocks; block energy costs."""
        m = self.model
        for i, gen in enumerate(self.system.generators):
            us = self.u[i].tolist()
            for t in range(self.n_intervals):
                pi = m.add_var(f"p[g{gen.id},t{t}]", CONTINUOUS, 0.0, gen.p_max)
                self.p[i, t] = pi
                terms = [(pi, 1.0), (us[t], -gen.p_min)]
                for e, (width, slope) in enumerate(gen.cost_blocks):
                    pei = m.add_var(f"pe[g{gen.id},t{t},e{e}]", CONTINUOUS, 0.0, width)
                    self.pe[i, t, e] = pei
                    terms.append((pei, -1.0))
                    m.add_to_objective(pei, slope * self.interval_hours)
                    m.add_constr(
                        f"blk_ub[g{gen.id},t{t},e{e}]",
                        [(pei, 1.0), (us[t], -width)], hi=0.0,
                    )
                m.add_constr(f"pwr_def[g{gen.id},t{t}]", terms, lo=0.0, hi=0.0)

    # ------------------------------------------------------------------ ramps
    def _ramp_rates(self, n: int) -> np.ndarray:
        """(generators, n): each generator's 15-min ramp rate in every column."""
        rates = np.array([g.ramp_15 for g in self.system.generators], dtype=float)
        return np.broadcast_to(rates[:, None], (len(rates), n))

    def add_ramps(self, up: np.ndarray | None = None, dn: np.ndarray | None = None) -> None:
        """Interval-to-interval ramp limits.

        ``up`` and ``dn`` are (generators, intervals) caps on the upward and
        downward moves, plus the startup/shutdown allowances: entry t limits
        the move from interval t-1 into t (index 0 from the initial state).
        Each defaults to the 15-min ramp rate.
        """
        m = self.model
        up = (self._ramp_rates(self.n_intervals) if up is None else up).tolist()
        dn = (self._ramp_rates(self.n_intervals) if dn is None else dn).tolist()
        committed, power = self.init.committed.tolist(), self.init.power.tolist()
        for i, gen in enumerate(self.system.generators):
            u0 = 1 if committed[i] else 0
            us, vs, ws, ps = (a[i].tolist() for a in (self.u, self.v, self.w, self.p))
            for t in range(self.n_intervals):
                up_rate, dn_rate = up[i][t], dn[i][t]
                pi, vi, wi, ui = ps[t], vs[t], ws[t], us[t]
                if t == 0:
                    # previous interval is the chained initial state
                    m.add_constr(
                        f"ramp_up[g{gen.id},t0]",
                        [(pi, 1.0), (vi, -gen.ramp_su)],
                        hi=power[i] + up_rate * u0,
                    )
                    m.add_constr(
                        f"ramp_dn[g{gen.id},t0]",
                        [(pi, -1.0), (ui, -dn_rate), (wi, -gen.ramp_sd)],
                        hi=-power[i],
                    )
                else:
                    pp, up_prev = ps[t - 1], us[t - 1]
                    m.add_constr(
                        f"ramp_up[g{gen.id},t{t}]",
                        [(pi, 1.0), (pp, -1.0), (up_prev, -up_rate), (vi, -gen.ramp_su)],
                        hi=0.0,
                    )
                    m.add_constr(
                        f"ramp_dn[g{gen.id},t{t}]",
                        [(pp, 1.0), (pi, -1.0), (ui, -dn_rate), (wi, -gen.ramp_sd)],
                        hi=0.0,
                    )

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
        n_day = schedule.shape[1]
        if budget is None:
            budget = self._ramp_rates(n_day)
        for i, gen in enumerate(self.system.generators):
            if gen.is_fast_start:
                continue
            on = schedule[i].tolist()
            offs = [k for k, u in enumerate(on) if u == 0]
            moves = budget[i].tolist()
            for t in range(self.n_intervals):
                g_t = start + t
                if g_t >= n_day or on[g_t] != 1:
                    continue
                # earliest scheduled off interval from here (none past day end)
                j = bisect_right(offs, g_t)
                if j == len(offs):
                    continue
                bound = gen.ramp_sd + sum(moves[g_t:offs[j] - 1])
                if bound >= gen.p_max - 1e-9:
                    continue
                self.model.add_constr(
                    f"sd_glide[g{gen.id},t{t}]",
                    [(int(self.p[i, t]), 1.0)], hi=bound,
                )

    # ---------------------------------------------------------------- network
    def add_network(self, nodal_load: np.ndarray, nodal_solar: np.ndarray) -> None:
        """Nodal injections and the VOLL-priced system balance.

        ``nodal_load`` and ``nodal_solar`` are (n_buses, n_intervals) MW.
        """
        m = self.model
        system = self.system
        gens_at: dict[int, list[int]] = {b.id: [] for b in system.buses}
        for i, gen in enumerate(system.generators):
            gens_at[gen.bus].append(i)
        penalty = self.voll * self.interval_hours
        for t in range(self.n_intervals):
            ps = self.p[:, t].tolist()
            for b, bus in enumerate(system.buses):
                ii = m.add_var(f"inj[n{bus.id},t{t}]", CONTINUOUS, -math.inf, math.inf)
                self.inj_cols[b, t] = ii
                terms = [(ii, 1.0)]
                terms.extend((ps[g], -1.0) for g in gens_at[bus.id])
                net = float(nodal_solar[bus.id, t] - nodal_load[bus.id, t])
                m.add_constr(f"inj_def[n{bus.id},t{t}]", terms, lo=net, hi=net)
            shorti = m.add_var(f"sl_short[t{t}]", CONTINUOUS, 0.0, math.inf)
            surpi = m.add_var(f"sl_surp[t{t}]", CONTINUOUS, 0.0, math.inf)
            self.short[t] = shorti
            self.surp[t] = surpi
            m.add_to_objective(shorti, penalty)
            m.add_to_objective(surpi, penalty)
            terms = [(ii, 1.0) for ii in self.inj_cols[:, t].tolist()]
            terms += [(shorti, 1.0), (surpi, -1.0)]
            m.add_constr(f"sys_bal[t{t}]", terms, lo=0.0, hi=0.0)

    def flow_terms(self, ptdf: PtdfMatrix, k: int, t: int) -> list[tuple[int, float]]:
        """Terms of line k's base-case flow at interval t: PTDF row times injections."""
        row = ptdf.values[k]
        nz = np.flatnonzero(np.abs(row) > LINE_COEF_EPS)
        return list(zip(self.inj_cols[nz, t].tolist(), row[nz].tolist()))

    def add_line_limits(self, ptdf: PtdfMatrix, lines) -> None:
        """One ranged row ``-rating <= flow <= rating`` per interval for each
        listed line index whose rows are not in the model yet."""
        for k in lines:
            if k in self._lines:
                continue
            self._lines.add(k)
            line = self.system.lines[k]
            for t in range(self.n_intervals):
                terms = self.flow_terms(ptdf, k, t)
                if terms:
                    self.model.add_constr(f"line[k{line.id},t{t}]", terms,
                                          lo=-line.rating, hi=line.rating)

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
    commitment within the gap costs one LP.
    """
    sol = relax(builder.model, options)
    while sol.status == "optimal" and builder.add_overloaded_lines(sol, ptdf):
        sol = relax(builder.model, options)
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
