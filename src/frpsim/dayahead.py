"""Hourly day-ahead unit commitment feeding must-run patterns to the FMMs.

The day-ahead market is the standard hourly commitment/dispatch problem over
the same network: every unit is freely committable, hourly ramping is four
15-min ramps, and the balance carries the usual VOLL slack.  Its commitment
schedule becomes the fixed pattern for must-run units (and the floor for
fast-start units) in every 15-min model of the day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .milp import MilpSolution, SolveOptions
from .network import PowerSystem, PtdfMatrix, nodal_injections
from .scenarios import HOURS_PER_DAY, INTERVALS_PER_DAY, ForecastProfile
from .ucbase import LineLimitError, UcModelBuilder, UnitState, cold_start_state, solve_lazy


@dataclass(frozen=True)
class DaCommitments:
    """Hourly commitment schedule; dispatch is kept only for diagnostics."""

    u_hourly: dict[int, np.ndarray]        # gen id -> (24,) 0/1
    dispatch_hourly: dict[int, np.ndarray]  # gen id -> (24,) MW
    objective: float

    def commitment_at(self, gen_id: int, interval15: int) -> int:
        """Commitment of the hour containing a 15-min interval (edge padded)."""
        hour = min(max(interval15 // 4, 0), HOURS_PER_DAY - 1)
        return int(self.u_hourly[gen_id][hour])

    def interval_schedule(self, system: PowerSystem) -> np.ndarray:
        """(generators, 96) commitment of the hour containing each 15-min
        interval, generators in ``system.generators`` order."""
        hourly = np.array([self.u_hourly[g.id] for g in system.generators])
        return np.repeat(hourly.astype(np.int64), INTERVALS_PER_DAY // HOURS_PER_DAY, axis=1)


def _hourly_view(system: PowerSystem) -> PowerSystem:
    """Rescale per-interval generator dynamics to hourly resolution.

    An hour is four 15-min moves, so the within-hour rate is 4x the 15-min
    rate and a unit starting (stopping) inside the hour can additionally
    traverse three rate steps beyond its startup (shutdown) allowance.  The
    committed-at-minimum cost is per 15-min interval in the data, hence 4x
    per hourly interval.
    """
    gens = tuple(
        replace(
            g,
            no_load_cost=4.0 * g.no_load_cost,
            ramp_15=4.0 * g.ramp_15,
            ramp_su=g.ramp_su + 3.0 * g.ramp_15,
            ramp_sd=g.ramp_sd + 3.0 * g.ramp_15,
            min_up=max(1, math.ceil(g.min_up / 4)),
            min_down=max(1, math.ceil(g.min_down / 4)),
        )
        for g in system.generators
    )
    return replace(system, generators=gens)


def build_da_model(system: PowerSystem, profile: ForecastProfile,
                   voll: float = 10000.0) -> UcModelBuilder:
    """Hourly commitment model over the forecast day, with no line rows.

    Every unit starts cold and is freely committed.
    """
    hourly = _hourly_view(system)
    builder = UcModelBuilder(hourly, HOURS_PER_DAY, 1.0, cold_start_state(hourly),
                             voll=voll)
    n = len(hourly.generators)
    builder.add_commitment(np.zeros((n, HOURS_PER_DAY)), np.ones((n, HOURS_PER_DAY)),
                           min_updown=np.ones(n, dtype=bool))
    builder.add_dispatch()
    builder.add_ramps()
    builder.add_network(*nodal_injections(system, profile.hourly_load,
                                          profile.solar_hourly))
    return builder


def run_da(system: PowerSystem, ptdf: PtdfMatrix, profile: ForecastProfile,
           options: SolveOptions | None = None, voll: float = 10000.0
           ) -> tuple[DaCommitments, MilpSolution, UcModelBuilder]:
    """Solve the day-ahead market and extract the commitment schedule.

    Line limits join the model as solves overload them (``solve_lazy``).
    Returns the schedule, the solution and the model's builder.
    """
    builder = build_da_model(system, profile, voll=voll)
    try:
        sol = solve_lazy(builder, ptdf, options)
    except LineLimitError as exc:
        raise RuntimeError(f"day-ahead solve failed: {exc}") from exc
    if sol.status != "optimal":
        raise RuntimeError(f"day-ahead solve failed: {sol.status} ({sol.message})")
    u, p = builder.commitment_values(sol), builder.dispatch_values(sol)
    u_hourly = {g.id: u[i] for i, g in enumerate(system.generators)}
    dispatch = {g.id: p[i] for i, g in enumerate(system.generators)}
    return (
        DaCommitments(u_hourly=u_hourly, dispatch_hourly=dispatch,
                      objective=sol.objective),
        sol,
        builder,
    )


def initial_state_from_da(system: PowerSystem, da: DaCommitments) -> UnitState:
    """Day-start unit state: every unit sits at its hour-0 day-ahead schedule."""
    on = da.interval_schedule(system)[:, 0] == 1
    power = np.array([da.dispatch_hourly[g.id][0] for g in system.generators], dtype=float)
    return replace(cold_start_state(system), committed=on, power=np.where(on, power, 0.0))
