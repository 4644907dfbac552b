"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from frpsim.dayahead import initial_state_from_da
from frpsim.fmm import by_id, roll_day
from frpsim.network import (Bus, GenerationResource, PowerSystem, SolarUnit,
                            TransmissionLine)
from frpsim.scenarios import ForecastProfile
from frpsim.validation import build_rtuc_hour


def make_gen(gid, bus, p_min, p_max, slope, ramp=None, no_load=None,
             startup=200.0, shutdown=20.0, min_up=1, min_down=1,
             frp_up=0.5, frp_down=0.5, fast_start=False, blocks=None):
    ramp = ramp if ramp is not None else p_max
    if no_load is None:
        # committed-at-minimum cost: fixed share plus p_min energy per 15 min
        no_load = 5.0 + p_min * slope * 0.25
    if blocks is None:
        blocks = ((p_max - p_min, slope),)
    return GenerationResource(
        id=gid, bus=bus, p_min=p_min, p_max=p_max, cost_blocks=tuple(blocks),
        no_load_cost=no_load, startup_cost=startup, shutdown_cost=shutdown,
        ramp_15=ramp, ramp_su=max(p_min, p_min + 0.5 * ramp),
        ramp_sd=max(p_min, p_min + 0.5 * ramp), min_up=min_up,
        min_down=min_down, frp_up_cost=frp_up, frp_down_cost=frp_down,
        is_fast_start=fast_start,
    )


def single_bus_system(gens) -> PowerSystem:
    return PowerSystem(
        buses=(Bus(0),), lines=(), generators=tuple(gens), solar_units=(),
        load_participation=np.array([1.0]), slack_bus=0,
    )


def make_profile(load15: np.ndarray, solar15_total: np.ndarray | None = None,
                 shares=(1.0,), label="test") -> ForecastProfile:
    load15 = np.asarray(load15, dtype=float)
    if solar15_total is None:
        solar15_total = np.zeros(96)
    solar15 = np.outer(np.asarray(shares, dtype=float), solar15_total)
    if not len(shares):
        solar15 = np.zeros((0, 96))
    return ForecastProfile(
        label=label,
        hourly_load=load15.reshape(24, 4).mean(axis=1),
        load15=load15,
        solar_hourly=solar15.reshape(len(shares), 24, 4).mean(axis=2)
        if len(shares) else np.zeros((0, 24)),
        solar15=solar15,
    )


def duck_profile(base=950.0, swing=150.0, solar_peak=40.0) -> ForecastProfile:
    """Smooth daily load curve with a midday solar hump (one solar unit)."""
    t = np.arange(96) / 4.0
    load = (base
            + swing * np.exp(-((t - 19.5) / 2.8) ** 2)
            + 0.4 * swing * np.exp(-((t - 9.0) / 3.0) ** 2)
            - 0.6 * swing * np.exp(-((t - 3.5) / 3.0) ** 2))
    sun = np.clip(np.cos((t - 12.8) / 6.4 * np.pi), 0.0, None)
    solar = solar_peak * sun ** 1.3
    solar[t < 6.5] = 0.0
    solar[t > 19.0] = 0.0
    return make_profile(np.round(load, 3), np.round(solar, 3))


def bottleneck_system() -> PowerSystem:
    """Five buses with a cheap fast ramper stranded behind a tight line.

    Generator 0 (bus 1) is the cheapest energy and by far the cheapest
    ramping product, but bus 1 hangs off the hub on a single line whose
    rating equals the unit's economic dispatch, so any upward deployment
    overloads it.  Generator 2 (bus 4) is the deliverable responder with
    ramp headroom; generator 1 runs flat at capacity; generator 3 is an
    expensive 50 MW fast-start unit at the main load pocket.
    """
    buses = tuple(Bus(i) for i in range(5))
    big = 5000.0
    lines = (
        TransmissionLine(0, 0, 1, 0.10, 300.0),   # the bottleneck
        TransmissionLine(1, 0, 2, 0.08, big),
        TransmissionLine(2, 0, 4, 0.09, big),
        TransmissionLine(3, 2, 3, 0.08, big),
        TransmissionLine(4, 2, 4, 0.11, big),
    )
    gens = (
        # cheapest energy and upward product, but stranded behind line 0
        make_gen(0, 1, 40.0, 400.0, 18.0, ramp=150.0, startup=800.0,
                 min_up=4, min_down=4, frp_up=0.1, frp_down=0.6),
        # hub base unit, runs at capacity: no upward headroom
        make_gen(1, 0, 50.0, 450.0, 30.0, ramp=80.0, startup=900.0,
                 min_up=4, min_down=4, frp_up=0.5, frp_down=0.5),
        # the deliverable responder: marginal energy, cheap downward product
        make_gen(2, 4, 50.0, 500.0, 34.0, ramp=120.0, startup=900.0,
                 min_up=4, min_down=4, frp_up=0.5, frp_down=0.2),
        make_gen(3, 3, 5.0, 50.0, 85.0, ramp=50.0, startup=150.0,
                 fast_start=True),
    )
    solar = (SolarUnit(0, 4, 40.0, 1.0),)
    part = np.array([0.0, 0.0, 0.5, 0.3, 0.2])
    return PowerSystem(buses, lines, gens, solar, part, slack_bus=0)


def bottleneck_profile() -> ForecastProfile:
    return duck_profile(base=950.0, swing=150.0, solar_peak=40.0)


def system_to_json(system: PowerSystem, path) -> Path:
    """Serialize a PowerSystem into the documented system-file schema."""
    doc = {
        "name": system.name or "test-system",
        "slack_bus": system.slack_bus,
        "buses": [{"id": b.id, "name": b.name} for b in system.buses],
        "lines": [
            {"id": ln.id, "from_bus": ln.from_bus, "to_bus": ln.to_bus,
             "reactance": ln.reactance, "rating": ln.rating}
            for ln in system.lines
        ],
        "generators": [
            {"id": g.id, "bus": g.bus, "p_min": g.p_min, "p_max": g.p_max,
             "cost_blocks": [list(b) for b in g.cost_blocks],
             "no_load_cost": g.no_load_cost, "startup_cost": g.startup_cost,
             "shutdown_cost": g.shutdown_cost, "ramp_15": g.ramp_15,
             "ramp_su": g.ramp_su, "ramp_sd": g.ramp_sd, "min_up": g.min_up,
             "min_down": g.min_down, "frp_up_cost": g.frp_up_cost,
             "frp_down_cost": g.frp_down_cost, "is_fast_start": g.is_fast_start}
            for g in system.generators
        ],
        "solar": [
            {"id": s.id, "bus": s.bus, "capacity": s.capacity,
             "share_of_total": s.share_of_total}
            for s in system.solar_units
        ],
        "participation": {
            str(i): float(w) for i, w in enumerate(system.load_participation)
            if w > 0
        },
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1))
    return path


def profile_to_dir(profile: ForecastProfile, directory) -> Path:
    """Write a profile as the hourly.csv / fifteen_min.csv pair."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    solar15 = profile.solar15.sum(axis=0) if profile.n_solar else np.zeros(96)
    solar_h = profile.solar_hourly.sum(axis=0) if profile.n_solar else np.zeros(24)
    with open(directory / "fifteen_min.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval_index", "load_mw", "solar_total_mw"])
        for t in range(96):
            writer.writerow([t, repr(float(profile.load15[t])),
                             repr(float(solar15[t]))])
    with open(directory / "hourly.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval_index", "load_mw", "solar_total_mw"])
        for h in range(24):
            writer.writerow([h, repr(float(profile.hourly_load[h])),
                             repr(float(solar_h[h]))])
    return directory


# --------------------------------------------------------------- DC oracle

def dc_power_flow(system: PowerSystem, injections: np.ndarray) -> np.ndarray:
    """Line flows from a direct susceptance solve (imbalance on the slack)."""
    n = system.n_buses
    slack = system.slack_bus
    b_bus = np.zeros((n, n))
    for ln in system.lines:
        b = 1.0 / ln.reactance
        f, t = ln.from_bus, ln.to_bus
        b_bus[f, f] += b
        b_bus[t, t] += b
        b_bus[f, t] -= b
        b_bus[t, f] -= b
    keep = [i for i in range(n) if i != slack]
    theta = np.zeros(n)
    if keep:
        theta[keep] = np.linalg.solve(b_bus[np.ix_(keep, keep)],
                                      np.asarray(injections, dtype=float)[keep])
    return np.array([
        (theta[ln.from_bus] - theta[ln.to_bus]) / ln.reactance
        for ln in system.lines
    ])


def post_deployment_oracle(system: PowerSystem, model, sol, profile, scenario,
                           start: int, t: int, s: int) -> np.ndarray | None:
    """Line flows after deployment scenario ``s`` deploys its auxiliary
    awards at move ``t`` of the hour that starts at global interval
    ``start``; None when the hour has no auxiliary awards for that move.

    A direct DC solve of the solved nodal injections at interval t, plus
    each unit's auxiliary award signed by the move's direction (``ura`` up,
    ``dra`` down), plus the scenario's load and solar at t+1 less the
    forecast's at t.  Columns are found by name (``inj[n,t]``,
    ``ura[g,t,s]``, ``dra[g,t,s]``), never through a handle's column arrays
    or the program's flow code.
    """
    col = {name: i for i, name in enumerate(model.var_names)}
    for prefix, sign in (("ura", 1.0), ("dra", -1.0)):
        aux = [col.get(f"{prefix}[g{g.id},t{t},s{s}]") for g in system.generators]
        if None not in aux:
            break
    else:
        return None
    inj = np.array([sol.values[col[f"inj[n{b.id},t{t}]"]] for b in system.buses])
    for gen, c in zip(system.generators, aux):
        inj[gen.bus] += sign * sol.values[c]
    # intervals past the end of the day read the last one
    last = len(profile.load15) - 1
    now, nxt = min(start + t, last), min(start + t + 1, last)
    for u, unit in enumerate(system.solar_units):
        inj[unit.bus] += scenario.solar[u, nxt] - profile.solar15[u, now]
    inj -= system.load_participation * (scenario.system_load[nxt] - profile.load15[now])
    inj[system.slack_bus] -= inj.sum()
    return dc_power_flow(system, inj)


def executed_rtuc_day(system: PowerSystem, ptdf, awards, da, scenario):
    """Dispatch, commitment and startups that validation executes on one day.

    Rolls ``scenario`` through ``fmm.roll_day`` with
    ``validation.build_rtuc_hour`` at the default VOLL and solver options, as
    ``run_rtuc_validation`` does with a default ``ValidationConfig``.  Each
    is a dict of generator id -> (96,) array.  Startups are the ones a binary
    commitment implies, ``max(u[t] - u[t-1], 0)`` with the day-ahead
    state entering the day before interval 0, never the solver's columns.
    """
    traj = roll_day(system, da, lambda horizon: build_rtuc_hour(
        system, ptdf, awards, da, scenario, horizon), "validation")
    before = initial_state_from_da(system, da).committed.astype(float)[:, None]
    startup = np.maximum(np.diff(traj.u, axis=1, prepend=before), 0.0)
    return by_id(system, traj.p), by_id(system, traj.u), by_id(system, startup)


def worst_line_overload(system: PowerSystem, ptdf, builder, sol, load,
                        solar) -> float:
    """Largest ``|flow| - rating`` over every line and interval of a solution.

    Flows are recomputed from the solved dispatch and the nodal load and
    solar (``load`` (T,) system MW, ``solar`` (n_units, T) MW) with the full
    PTDF, never through ``base_flows`` or the rows the model carries.
    """
    inj = np.zeros((system.n_buses, builder.n_intervals))
    for i, gen in enumerate(system.generators):
        inj[gen.bus] += sol.values[builder.p[i]]
    inj -= np.outer(system.load_participation, np.asarray(load, dtype=float))
    for u, unit in enumerate(system.solar_units):
        inj[unit.bus] += np.asarray(solar, dtype=float)[u]
    flows = ptdf.values @ inj
    ratings = np.array([ln.rating for ln in system.lines])
    return float((np.abs(flows) - ratings[:, None]).max(initial=-np.inf))


def random_connected_system(rng: np.random.Generator, n_buses: int,
                            extra_lines: int) -> PowerSystem:
    """Random spanning tree plus chords; generators/loads irrelevant for PTDF."""
    lines = []
    used = set()
    for b in range(1, n_buses):
        a = int(rng.integers(0, b))
        lines.append(TransmissionLine(len(lines), a, b,
                                      float(rng.uniform(0.02, 0.4)), 100.0))
        used.add((a, b))
    tries = 0
    while len(lines) < n_buses - 1 + extra_lines and tries < 200:
        tries += 1
        a, b = sorted(rng.integers(0, n_buses, size=2).tolist())
        if a == b or (a, b) in used:
            continue
        used.add((a, b))
        lines.append(TransmissionLine(len(lines), a, b,
                                      float(rng.uniform(0.02, 0.4)), 100.0))
    gens = (make_gen(0, 0, 0.0, 100.0, 20.0),)
    part = rng.uniform(0.1, 1.0, size=n_buses)
    part /= part.sum()
    return PowerSystem(
        buses=tuple(Bus(i) for i in range(n_buses)),
        lines=tuple(lines),
        generators=gens,
        solar_units=(),
        load_participation=part,
        slack_bus=int(rng.integers(0, n_buses)),
    )
