"""Fifteen-minute market models: proxy policy, training runs, data-driven policy.

Three closely related 7-interval market clearings share the unit-commitment
core from ucbase:

* the proxy model procures system-wide upward/downward ramping requirements
  derived from forecast confidence envelopes;
* the training model drops the ramping product entirely and re-dispatches
  against one sampled scenario, exposing how units respond to netload moves;
* the data-driven model keeps the proxy structure but additionally forces
  awards onto predicted responders and, through lazily generated cuts, keeps
  post-deployment line flows within ratings for a set of deployment scenarios.

Hour models are built without base-case line rows; ``solve_hour`` solves
them through ``ucbase.solve_lazy``, which adds the rows of overloaded lines
(and, for data-driven hours, post-deployment cuts) until none is violated.
``roll_day`` rolls any of these hour models, or the validation hour, over a
day, carrying the lines earlier hours needed into the next hour's model; the
day-level runs here and in ``validation`` are thin wrappers on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .dayahead import DaCommitments, initial_state_from_da
from .learner import DispatchTrajectory, RampResponseFactors
from .milp import Cols, MilpModel, MilpSolution, Rows, SolveOptions
from .milp import solve  # noqa: F401  (fmm.solve stays the one milp.solve)
from .network import PowerSystem, PtdfMatrix, nodal_injections
from .scenarios import (DEPLOYMENT, HOURS_PER_DAY, INTERVALS_PER_DAY, ForecastProfile,
                        ProxyEnvelope, Scenario, netload, window)
from .ucbase import (LINE_COEF_EPS, SolveError, UcModelBuilder, UnitState, advance_state,
                     solve_lazy)

PROXY = "proxy"            # the two FRP policies
DATADRIVEN = "datadriven"
UP = "up"
DOWN = "down"
SIGN = {UP: 1.0, DOWN: -1.0}   # sign of the netload move of each direction
INTERVAL_HOURS = HOURS_PER_DAY / INTERVALS_PER_DAY
MAX_CUT_ROUNDS = 20   # cut rounds an hour may take before its solve fails


@dataclass(frozen=True)
class FmmHorizon:
    """One trading hour's look-ahead window on the 15-min grid."""

    start: int                      # first 15-min interval (global index)
    init: UnitState                 # unit state entering the first interval
    length: ClassVar[int] = 7
    n_binding: ClassVar[int] = 4


@dataclass(frozen=True)
class FmmConfig:
    voll: float = 10000.0            # $/MWh on balance and requirement slack
    response_threshold: float = 0.05     # qualification floor for predicted responders
    cut_tol_mw: float = 1e-4


@dataclass(frozen=True)
class FrpRequirements:
    """System-wide upward/downward ramping requirements per look-ahead move."""

    fr_up: np.ndarray    # (length-1,)
    fr_down: np.ndarray

    def __post_init__(self):
        if (self.fr_up < 0).any() or (self.fr_down < 0).any():
            raise ValueError("requirements must be nonnegative")


@dataclass
class FmmAwards:
    """Cleared quantities per generator and global 15-min interval.

    ``ur``/``dr`` at index t cap the dispatch move from interval t into t+1
    downstream in the validation phase.
    """

    gen_ids: list[int]
    p: dict[int, np.ndarray]
    u: dict[int, np.ndarray]
    ur: dict[int, np.ndarray]
    dr: dict[int, np.ndarray]

    @property
    def n_intervals(self) -> int:
        return len(self.p[self.gen_ids[0]])


@dataclass(frozen=True)
class PostDeploymentCut:
    line_id: int
    t: int            # local move index within the horizon
    scenario: int
    direction: str    # up | down
    bound: str        # upper | lower (the side that triggered the cut)
    round_added: int


# ------------------------------------------------------------------ helpers

def compute_frp_requirements(envelope: ProxyEnvelope, profile: ForecastProfile,
                             start: int, length: int) -> FrpRequirements:
    """Proxy requirements from the forecast envelopes.

    Upward: worst-case netload at t+1 (max load, min solar) minus forecast
    netload at t, floored at zero; downward mirrored.
    """
    n = length - 1
    cur = window(netload(profile.load15, profile.solar15), start, n)
    up_next = window(netload(envelope.load_max, envelope.solar_min), start + 1, n)
    dn_next = window(netload(envelope.load_min, envelope.solar_max), start + 1, n)
    return FrpRequirements(fr_up=np.maximum(up_next - cur, 0.0),
                           fr_down=np.maximum(cur - dn_next, 0.0))


def delta_netload(profile: ForecastProfile, scenario: Scenario,
                  start: int, length: int) -> np.ndarray:
    """Scenario netload at each next interval minus forecast netload now."""
    if scenario.kind != DEPLOYMENT:
        raise ValueError("delta_netload expects a deployment scenario")
    return (window(netload(scenario.system_load, scenario.solar), start + 1, length - 1)
            - window(netload(profile.load15, profile.solar15), start, length - 1))


# ----------------------------------------------------------------- handles

@dataclass
class FmmHandle:
    """A built FMM model plus the column arrays needed to read it back.

    ``ur``/``dr`` are the award columns per (generator position, move).  A
    data-driven hour adds, per deployment scenario s, its netload move
    ``dnl[t, s]`` (``delta_netload``), whose sign is the direction of move
    (t, s), and one auxiliary award column ``aux[g, t, s]`` per generator,
    -1 where the move has no direction, and marks in ``cut_rows[k, t, s]``
    each post-deployment cut row the cut loop has added.
    """

    builder: UcModelBuilder
    ptdf: PtdfMatrix
    horizon: FmmHorizon
    cfg: FmmConfig
    requirements: FrpRequirements | None = None
    ur: np.ndarray | None = None                    # (gens, length-1)
    dr: np.ndarray | None = None
    # data-driven extras
    deployment: tuple[Scenario, ...] | None = None
    dnl: np.ndarray | None = None                   # (length-1, S)
    aux: np.ndarray | None = None                   # (gens, length-1, S)
    flow_const: np.ndarray | None = None            # (K, length-1, S)
    cut_rows: np.ndarray | None = None              # (K, length-1, S) bool: row is in
    cuts: list[PostDeploymentCut] = field(default_factory=list)

    @property
    def model(self) -> MilpModel:
        return self.builder.model

    @property
    def system(self) -> PowerSystem:
        return self.builder.system


# ------------------------------------------------------------------ builders

def _base_builder(system: PowerSystem, load: np.ndarray, solar: np.ndarray,
                  da: DaCommitments, horizon: FmmHorizon, cfg: FmmConfig,
                  up: np.ndarray | None = None, dn: np.ndarray | None = None,
                  budget: np.ndarray | None = None) -> UcModelBuilder:
    """The UC core of every 15-min hour model, with no base-case line rows.

    ``load`` (96,) and ``solar`` (n_units, 96) are the day's system load and
    per-unit solar, of the forecast or of a scenario.  Must-run units are
    pinned to the day-ahead commitment; fast-start units may add to it.
    ``up``/``dn`` replace the ramp rate per boundary (see ``add_ramps``) and
    ``budget`` the ramp rate in the shutdown glidepath.
    """
    builder = UcModelBuilder(system, horizon.length, INTERVAL_HOURS, horizon.init,
                             voll=cfg.voll)
    schedule = da.interval_schedule(system)
    pattern = window(schedule, horizon.start, horizon.length)
    fast = np.array([g.is_fast_start for g in system.generators])
    builder.add_commitment(pattern, np.where(fast[:, None], 1, pattern), min_updown=fast)
    builder.add_dispatch()
    builder.add_ramps(up, dn)
    builder.add_shutdown_glidepath(horizon.start, schedule, budget)
    builder.add_network(*nodal_injections(system, window(load, horizon.start, horizon.length),
                                          window(solar, horizon.start, horizon.length)))
    return builder


def _add_frp_block(handle: FmmHandle) -> None:
    """Award variables, commitment-aware award limits, and requirement rows."""
    b, req = handle.builder, handle.requirements
    ids, n = b.gen_values("id", int), handle.horizon.length - 1
    g, t = np.arange(len(ids))[:, None], np.arange(n)
    penalty = handle.cfg.voll * INTERVAL_HOURS
    ur, dr, short_up, short_dn = handle.model.add_vars([
        Cols("ur[g{},t{}]", (0, g, t, 0), (ids, t), ub=math.inf,
             cost=b.gen_values("frp_up_cost")),
        Cols("dr[g{},t{}]", (0, g, t, 1), (ids, t), ub=math.inf,
             cost=b.gen_values("frp_down_cost")),
        Cols("fr_up_short[t{}]", (1, t, 0, 0), (t,), ub=math.inf, cost=penalty),
        Cols("fr_dn_short[t{}]", (1, t, 1, 0), (t,), ub=math.inf, cost=penalty)])
    handle.ur, handle.dr = ur, dr
    u_t, u_n, v_n, w_n = b.u[:, :-1], b.u[:, 1:], b.v[:, 1:], b.w[:, 1:]
    p_t, p_n = b.p[:, :-1], b.p[:, 1:]
    p_max, p_min, ramp_15, ramp_su, ramp_sd = (
        b.gen_values(a) for a in ("p_max", "p_min", "ramp_15", "ramp_su", "ramp_sd"))
    rows = [Rows(f"{name}[g{{}},t{{}}]", (0, g, t, f), (ids, t), terms, lo=lo, hi=hi)
            for f, (name, terms, lo, hi) in enumerate([
                # headroom: energy plus upward award within capacity (or startup)
                ("cap_ur", [(p_t, 1.0), (ur, 1.0), (u_t, -p_max), (v_n, -p_max)],
                 -math.inf, 0.0),
                # footroom: energy minus downward award above minimum (or shutdown)
                ("floor_dr", [(p_t, 1.0), (dr, -1.0), (u_t, -p_min), (w_n, ramp_sd)],
                 0.0, math.inf),
                # awards within ramping capability given commitment transitions
                ("ur_ramp", [(ur, 1.0), (u_t, -ramp_15), (v_n, -ramp_su)], -math.inf, 0.0),
                ("dr_ramp", [(dr, 1.0), (u_n, -ramp_15), (w_n, -ramp_sd)], -math.inf, 0.0),
                # no upward award unless on next interval; no downward unless on now
                ("ur_next_on", [(ur, 1.0), (u_n, -p_max)], -math.inf, 0.0),
                ("dr_on", [(dr, 1.0), (u_t, -p_max)], -math.inf, 0.0),
                # scheduled dispatch moves must stay within the awards
                ("disp_in_ur", [(p_n, 1.0), (p_t, -1.0), (ur, -1.0)], -math.inf, 0.0),
                ("disp_in_dr", [(p_t, 1.0), (p_n, -1.0), (dr, -1.0)], -math.inf, 0.0)])]
    rows += [Rows("fr_up_req[t{}]", (1, t, 0, 0), (t,), [(ur.T, 1.0), (short_up, 1.0)],
                  lo=req.fr_up),
             Rows("fr_dn_req[t{}]", (1, t, 1, 0), (t,), [(dr.T, 1.0), (short_dn, 1.0)],
                  lo=req.fr_down)]
    handle.model.add_rows(rows)


def build_fmm_proxy(system: PowerSystem, ptdf: PtdfMatrix, profile: ForecastProfile,
                    envelope: ProxyEnvelope, da: DaCommitments, horizon: FmmHorizon,
                    cfg: FmmConfig | None = None) -> FmmHandle:
    """FMM with the system-wide proxy ramping product."""
    cfg = cfg or FmmConfig()
    builder = _base_builder(system, profile.load15, profile.solar15, da, horizon, cfg)
    handle = FmmHandle(
        builder=builder, ptdf=ptdf, horizon=horizon, cfg=cfg,
        requirements=compute_frp_requirements(envelope, profile, horizon.start,
                                              horizon.length),
    )
    _add_frp_block(handle)
    return handle


def build_fmm_training(system: PowerSystem, ptdf: PtdfMatrix, scenario: Scenario,
                       da: DaCommitments, horizon: FmmHorizon,
                       cfg: FmmConfig | None = None) -> FmmHandle:
    """Energy-only FMM against one sampled scenario (no ramping product)."""
    cfg = cfg or FmmConfig()
    builder = _base_builder(system, scenario.system_load, scenario.solar, da, horizon, cfg)
    return FmmHandle(builder=builder, ptdf=ptdf, horizon=horizon, cfg=cfg)


def build_fmm_datadriven(system: PowerSystem, ptdf: PtdfMatrix,
                         profile: ForecastProfile, envelope: ProxyEnvelope,
                         da: DaCommitments, horizon: FmmHorizon,
                         factors: RampResponseFactors,
                         deployment: tuple[Scenario, ...],
                         cfg: FmmConfig | None = None) -> FmmHandle:
    """Proxy FMM plus deployment-scenario coverage by predicted responders.

    Post-deployment line constraints are intentionally absent at build time;
    they join the model as cuts inside ``solve_with_cuts``.
    """
    cfg = cfg or FmmConfig()
    handle = build_fmm_proxy(system, ptdf, profile, envelope, da, horizon, cfg)
    handle.deployment = deployment
    m = handle.model
    length = horizon.length
    start = horizon.start
    penalty = cfg.voll * INTERVAL_HOURS
    n_dep = len(deployment)
    handle.dnl = np.column_stack([delta_netload(profile, scn, start, length)
                                  for scn in deployment])
    handle.aux = np.full((len(system.generators), length - 1, n_dep), -1, dtype=np.int64)
    # response factor per (generator, move, scenario); zero without a model
    factor = np.zeros(handle.aux.shape)
    for i, gen in enumerate(system.generators):
        if gen.id in factors.values:
            factor[i] = window(factors.values[gen.id].T, start, length - 1)[:n_dep].T
    on = window(da.interval_schedule(system), start, length) == 1
    on_both = on[:, :-1] & on[:, 1:]   # committed at both ends of move t
    # every directed move (t, s), by scenario; S, T and TAG broadcast against units
    s, t = np.nonzero(handle.dnl.T)
    sign = np.sign(handle.dnl[t, s])
    tag = np.where(sign > 0, "up", "dn")
    S, T, TAG = s[:, None], t[:, None], tag[:, None]
    ids, g = handle.builder.gen_values("id", int)[:, 0], np.arange(len(system.generators))
    aux, short = m.add_vars([
        Cols("{}[g{},t{},s{}]", (S, T, 0, g), (np.where(TAG == "up", "ura", "dra"), ids, T, S),
             ub=math.inf),
        Cols("cover_{}_short[t{},s{}]", (s, t, 1, 0), (tag, t, s), ub=math.inf, cost=penalty)])
    handle.aux[:, t, s] = aux.T
    awards = np.where(TAG == "up", handle.ur[:, t].T, handle.dr[:, t].T)
    z = sign[:, None] * factor[:, t, s].T
    slow = ~np.array([gen.is_fast_start for gen in system.generators])
    qm, qg = np.nonzero(slow & (z > cfg.response_threshold) & on_both[:, t].T)
    m.add_rows([
        Rows("aux_le_award_{}[g{},t{},s{}]", (S, T, 0, g, 0), (TAG, ids, T, S),
             [(aux, 1.0), (awards, -1.0)], hi=0.0),
        Rows("aux_qual_{}[g{},t{},s{}]", (s[qm], t[qm], 0, qg, 1),
             (tag[qm], ids[qg], t[qm], s[qm]), [(aux[qm, qg], 1.0)],
             lo=z[qm, qg] * handle.builder.gen_values("ramp_15")[qg, 0]),
        Rows("cover_{}[t{},s{}]", (s, t, 1, 0, 0), (tag, t, s), [(aux, 1.0), (short, 1.0)],
             lo=np.abs(handle.dnl[t, s]))])

    # constant flow shifts per (line, move, scenario): solar and load deltas
    n = length - 1
    load_now, solar_now = window(profile.load15, start, n), window(profile.solar15, start, n)
    handle.flow_const = np.zeros((len(system.lines), n, n_dep))
    handle.cut_rows = np.zeros(handle.flow_const.shape, dtype=bool)
    for s, scn in enumerate(deployment):
        dload, dsolar = nodal_injections(system, window(scn.system_load, start + 1, n) - load_now,
                                         window(scn.solar, start + 1, n) - solar_now)
        handle.flow_const[:, :, s] = ptdf.values @ (dsolar - dload)
    return handle


# ------------------------------------------------------------------ cut loop

def _deployment_flows(handle: FmmHandle, sol: MilpSolution) -> np.ndarray:
    """Line flows (n_lines, length-1, S) after every scenario deploys its
    auxiliary awards in the direction of its move, with the scenario's load
    and solar shifts; a move with no direction deploys nothing."""
    system = handle.system
    sign = np.sign(handle.dnl)
    deployed = np.where(handle.aux >= 0, sol.values[handle.aux], 0.0) * sign
    shift = np.zeros((system.n_buses,) + sign.shape)
    np.add.at(shift, [g.bus for g in system.generators], deployed)
    moved = handle.ptdf.values @ shift.reshape(system.n_buses, -1)
    base = handle.builder.base_flows(sol, handle.ptdf)[:, :-1, None]
    return base + moved.reshape(len(system.lines), *sign.shape) + handle.flow_const


def post_deployment_flows(handle: FmmHandle, sol: MilpSolution,
                          scenario_idx: int, direction: str) -> np.ndarray:
    """Line flows after deploying the scenario's auxiliary awards.

    Returns (n_lines, length-1); entries are NaN for moves where the scenario
    is not classified in the requested direction.
    """
    on = np.sign(handle.dnl[:, scenario_idx]) == SIGN[direction]
    return np.where(on, _deployment_flows(handle, sol)[:, :, scenario_idx], np.nan)


def _violations(handle: FmmHandle,
                sol: MilpSolution) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Every post-deployment flow beyond rating plus ``cfg.cut_tol_mw``.

    Returns the cells (s, d, b, k, t) and their excess in MW, ordered by
    scenario s, then direction d (0 up, 1 down), then bound b (0 over the
    rating, 1 under it), then line k and move t: the order the cut rows
    are added in.
    """
    flows = _deployment_flows(handle, sol)                      # (K, T, S)
    ratings = np.array([ln.rating for ln in handle.system.lines])[:, None, None]
    excess = np.stack([flows - ratings, -ratings - flows])     # (bound, K, T, S)
    on = np.sign(handle.dnl) == np.array([SIGN[UP], SIGN[DOWN]])[:, None, None]
    over = (excess > handle.cfg.cut_tol_mw) & on[:, None, None]  # (d, b, K, T, S)
    s, d, b, k, t = cells = np.nonzero(np.moveaxis(over, -1, 0))
    return cells, excess[b, k, t, s]


def _add_cuts(handle: FmmHandle, cells: tuple[np.ndarray, ...], round_no: int) -> None:
    """Add one ranged post-deployment flow row per cell (s, d, b, k, t), in
    the cells' order, and the matching cut records."""
    s, d, b, k, t = cells
    system = handle.system
    handle.cut_rows[k, t, s] = True
    row = handle.ptdf.values[k]                                 # (cuts, buses)
    # line k's PTDF entry at each generator's bus, signed by the move
    deployed = row[:, [g.bus for g in system.generators]] * np.sign(handle.dnl[t, s])[:, None]
    rating = np.array([ln.rating for ln in system.lines])[k]
    const = handle.flow_const[k, t, s]
    line_ids = np.array([ln.id for ln in system.lines])[k]
    handle.model.add_rows([Rows(
        "dep_flow[k{},t{},s{},{}]", cells, (line_ids, t, s, np.array([UP, DOWN])[d]),
        [(handle.builder.inj_cols[:, t].T, row, np.abs(row) > LINE_COEF_EPS),
         (handle.aux[:, t, s].T, deployed, np.abs(deployed) > LINE_COEF_EPS)],
        lo=-rating - const, hi=rating - const)])
    handle.cuts += [PostDeploymentCut(line_id=i, t=tt, scenario=ss, direction=(UP, DOWN)[dd],
                                      bound=("upper", "lower")[bb], round_added=round_no)
                    for i, tt, ss, dd, bb in zip(*(a.tolist() for a in (line_ids, t, s, d, b)))]


def solve_with_cuts(handle: FmmHandle, options: SolveOptions | None = None
                    ) -> tuple[MilpSolution, list[PostDeploymentCut]]:
    """Solve, then iteratively add violated post-deployment flow constraints.

    Runs on ``solve_lazy``: post-deployment flows are checked only on a
    solve that overloads no line in the base case, and each check that adds
    cuts is one cut round.  Terminates when a solve leaves every
    post-deployment flow within rating plus ``cfg.cut_tol_mw``.  Raises
    SolveError when ``MAX_CUT_ROUNDS`` rounds are exhausted with violations
    remaining, or when ``solve_lazy`` does.
    """
    rounds = 0

    def cut_round(sol: MilpSolution) -> int:
        nonlocal rounds
        cells, excess = _violations(handle, sol)
        if not len(excess):
            return 0
        if rounds == MAX_CUT_ROUNDS:
            worst = int(np.argmax(excess))
            raise SolveError(
                f"cut loop exhausted {MAX_CUT_ROUNDS} rounds with {len(excess)} "
                f"violations remaining (worst {excess[worst]:.4f} MW on line "
                f"{cells[3][worst]})"
            )
        rounds += 1
        s, _, _, k, t = cells
        new = ~handle.cut_rows[k, t, s]
        if not new.any():
            raise SolveError(
                "violations persist but all corresponding constraints are "
                "already present; residuals exceed the solve tolerance"
            )
        _add_cuts(handle, tuple(a[new] for a in cells), rounds)
        return int(new.sum())

    sol = solve_lazy(handle.builder, handle.ptdf, options, cut_round)
    return sol, list(handle.cuts)


def solve_hour(handle: FmmHandle, options: SolveOptions | None = None) -> MilpSolution:
    """Solve an hour model through the shared loop.

    Base-case line rows join on demand; an hour with deployment scenarios
    also gets its post-deployment cuts (``solve_with_cuts``).
    """
    if handle.deployment is not None:
        return solve_with_cuts(handle, options)[0]
    return solve_lazy(handle.builder, handle.ptdf, options)


# ---------------------------------------------------------------- day rolls

class HourSolveError(RuntimeError):
    """A rolled hour's solve raised SolveError, labelled with the hour.

    Every constructor argument is in ``args``, so the error survives the
    pickling that carries it out of a pool worker.
    """

    def __init__(self, policy: str, hour: int, scenario, detail: str):
        super().__init__(policy, hour, scenario, detail)
        self.policy, self.hour, self.scenario, self.detail = policy, hour, scenario, detail

    def __str__(self):
        return f"{self.policy} hour {self.hour}, scenario {self.scenario}: {self.detail}"


def by_id(system: PowerSystem, rows: np.ndarray) -> dict[int, np.ndarray]:
    """Generator id -> row of a (generators, ...) array."""
    return {g.id: rows[i] for i, g in enumerate(system.generators)}


@dataclass
class DayTrajectory:
    """What a rolled day executed, per global 15-min interval.

    Only binding intervals are kept.  ``p``, ``u``, ``ur`` and ``dr`` are
    (generators, intervals) with generators by position in
    ``system.generators``.  ``ur``, ``dr`` and ``frp_cost`` stay zero unless
    the hour models carry the ramping product; ``cuts`` pairs each
    post-deployment cut with its hour.
    """

    p: np.ndarray
    u: np.ndarray
    ur: np.ndarray
    dr: np.ndarray
    cost: np.ndarray            # commitment + energy $, excluding violation
    violation_mwh: np.ndarray
    frp_cost: np.ndarray
    cuts: list[tuple[int, PostDeploymentCut]] = field(default_factory=list)


def roll_day(system: PowerSystem, da: DaCommitments, build_hour, policy: str,
             scenario="forecast", options: SolveOptions | None = None,
             n_intervals: int = INTERVALS_PER_DAY) -> DayTrajectory:
    """Roll hour models over the day, executing each hour's binding intervals.

    ``build_hour(horizon)`` returns the hour's FmmHandle.  The day starts at
    the hour-0 day-ahead schedule and each hour starts from the state its
    predecessor's binding intervals left.  Each hour is solved by
    ``solve_hour`` and starts with the rows of every line an earlier hour of
    the day needed.  ``policy`` and ``scenario`` only label a failed hour.
    ``n_intervals`` rolls a prefix of the day in whole hours.
    """
    if n_intervals % 4 or not 4 <= n_intervals <= INTERVALS_PER_DAY:
        raise ValueError(f"n_intervals must be a multiple of 4 in 4..{INTERVALS_PER_DAY}, "
                         f"got {n_intervals}")
    n_gens = len(system.generators)
    traj = DayTrajectory(**{k: np.zeros((n_gens, n_intervals))
                            for k in ("p", "u", "ur", "dr")},
                         cost=np.zeros(n_intervals),
                         violation_mwh=np.zeros(n_intervals),
                         frp_cost=np.zeros(n_intervals))
    state = initial_state_from_da(system, da)
    lines: set[int] = set()   # lines whose rows an earlier hour needed
    for hour in range(n_intervals // 4):
        horizon = FmmHorizon(start=4 * hour, init=state)
        handle = build_hour(horizon)
        handle.builder.add_line_limits(handle.ptdf, sorted(lines))
        try:
            sol = solve_hour(handle, options)
        except SolveError as exc:
            raise HourSolveError(policy, hour, scenario, str(exc)) from exc
        traj.cuts.extend((hour, c) for c in handle.cuts)
        lines |= handle.builder.lines
        nb = horizon.n_binding
        now = slice(horizon.start, horizon.start + nb)
        b = handle.builder
        cost, viol = b.interval_costs(sol)
        traj.cost[now] = cost[:nb]
        traj.violation_mwh[now] = viol[:nb] * INTERVAL_HOURS
        traj.u[:, now] = b.commitment_values(sol)[:, :nb]
        traj.p[:, now] = b.dispatch_values(sol)[:, :nb]
        if handle.ur is not None:
            traj.ur[:, now] = sol.values[handle.ur[:, :nb]]
            traj.dr[:, now] = sol.values[handle.dr[:, :nb]]
            # the awards at the objective's prices, summed in the order up0,
            # down0, up1, down1, ...
            c = handle.model.objective_vector()
            paid = np.stack([c[handle.ur[:, :nb]] * traj.ur[:, now],
                             c[handle.dr[:, :nb]] * traj.dr[:, now]], axis=1)
            traj.frp_cost[now] += np.cumsum(paid.reshape(2 * n_gens, nb), axis=0)[-1]
        state = advance_state(state, traj.u[:, now], traj.p[:, now])
        # free this hour's model before the next one is built
        del handle, b, sol
    return traj


@dataclass
class FmmDayRun:
    """Awards and cost accounting from rolling one policy over a trading day."""

    policy: str
    awards: FmmAwards
    cost: float                 # binding-interval operating + award cost
    violation_mwh: float        # binding-interval balance slack
    cuts: list[tuple[int, PostDeploymentCut]] = field(default_factory=list)


def run_fmm_day(system: PowerSystem, ptdf: PtdfMatrix, profile: ForecastProfile,
                envelope: ProxyEnvelope, da: DaCommitments, policy: str,
                cfg: FmmConfig | None = None,
                factors: RampResponseFactors | None = None,
                deployment: tuple[Scenario, ...] | None = None,
                options: SolveOptions | None = None,
                n_intervals: int = INTERVALS_PER_DAY) -> FmmDayRun:
    """Clear every trading hour of the day under one FRP policy."""
    cfg = cfg or FmmConfig()
    if policy == DATADRIVEN and (factors is None or deployment is None):
        raise ValueError("data-driven clearing needs response factors and scenarios")

    def build_hour(horizon):
        if policy == DATADRIVEN:
            return build_fmm_datadriven(system, ptdf, profile, envelope, da, horizon,
                                        factors, deployment, cfg)
        return build_fmm_proxy(system, ptdf, profile, envelope, da, horizon, cfg)
    traj = roll_day(system, da, build_hour, policy, options=options,
                    n_intervals=n_intervals)
    awards = FmmAwards(gen_ids=[g.id for g in system.generators],
                       **{k: by_id(system, getattr(traj, k)) for k in ("p", "u", "ur", "dr")})
    return FmmDayRun(policy=policy, awards=awards,
                     cost=float(traj.cost.sum() + traj.frp_cost.sum()),
                     violation_mwh=float(traj.violation_mwh.sum()), cuts=traj.cuts)


def run_training_day(system: PowerSystem, ptdf: PtdfMatrix, scenario: Scenario,
                     da: DaCommitments, cfg: FmmConfig | None = None,
                     options: SolveOptions | None = None,
                     n_intervals: int = INTERVALS_PER_DAY) -> DispatchTrajectory:
    """Rolling energy-only market run against one training scenario.

    Returns the executed dispatch/commitment trajectory used to build
    regression targets.
    """
    cfg = cfg or FmmConfig()
    traj = roll_day(system, da,
                    lambda horizon: build_fmm_training(system, ptdf, scenario, da,
                                                       horizon, cfg),
                    "training", scenario=scenario.seed_info, options=options,
                    n_intervals=n_intervals)
    return DispatchTrajectory(dispatch=by_id(system, traj.p),
                              commitment=by_id(system, traj.u))
