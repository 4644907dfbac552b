"""Electric network data model, loading/validation, and PTDF computation.

The system file is a single JSON document with sections ``buses``, ``lines``,
``generators``, ``solar``, ``participation`` and a ``slack_bus`` (schema in
the README).  All power quantities are MW; reactances are per unit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

PARTICIPATION_TOL = 1e-9
PTDF_ENTRY_TOL = 1e-9


class SystemDataError(ValueError):
    """Malformed or inconsistent system data; message carries the location."""


@dataclass(frozen=True)
class Bus:
    id: int
    name: str = ""


@dataclass(frozen=True)
class TransmissionLine:
    id: int
    from_bus: int
    to_bus: int
    reactance: float  # per unit, > 0
    rating: float     # MW, > 0


@dataclass(frozen=True)
class GenerationResource:
    id: int
    bus: int
    p_min: float
    p_max: float
    cost_blocks: tuple[tuple[float, float], ...]  # (width MW, slope $/MWh)
    no_load_cost: float      # $ per committed interval
    startup_cost: float      # $ per startup
    shutdown_cost: float     # $ per shutdown
    ramp_15: float           # MW per 15-min interval
    ramp_su: float           # MW allowed in the startup interval
    ramp_sd: float           # MW allowed in the shutdown interval
    min_up: int              # intervals
    min_down: int            # intervals
    frp_up_cost: float = 0.5   # $/MW of upward award
    frp_down_cost: float = 0.5  # $/MW of downward award
    is_fast_start: bool = False

    @property
    def block_span(self) -> float:
        return sum(w for w, _ in self.cost_blocks)


@dataclass(frozen=True)
class SolarUnit:
    id: int
    bus: int
    capacity: float
    share_of_total: float


@dataclass(frozen=True)
class PowerSystem:
    buses: tuple[Bus, ...]
    lines: tuple[TransmissionLine, ...]
    generators: tuple[GenerationResource, ...]
    solar_units: tuple[SolarUnit, ...]
    load_participation: np.ndarray  # per-bus fraction, sums to 1
    slack_bus: int
    name: str = ""

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def must_run_generators(self) -> list[GenerationResource]:
        return [g for g in self.generators if not g.is_fast_start]



def nodal_injections(system: PowerSystem, load: np.ndarray,
                     solar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodal load and solar, each (n_buses, T) MW, from the system load (T,)
    and per-unit solar output (n_units, T); the load is split by participation
    factor."""
    loads = np.outer(system.load_participation, np.asarray(load, dtype=float))
    nodal_solar = np.zeros((system.n_buses, loads.shape[1]))
    for u_idx, unit in enumerate(system.solar_units):
        nodal_solar[unit.bus] += solar[u_idx]
    return loads, nodal_solar


@dataclass(frozen=True)
class PtdfMatrix:
    """Dense line-by-bus sensitivity matrix for the designated slack bus."""

    values: np.ndarray  # shape (n_lines, n_buses)
    slack_bus: int


# ----------------------------------------------------------------------- load

def _req(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SystemDataError(f"{where}: missing field {key!r}")
    return mapping[key]


def _num(mapping: dict, key: str, where: str) -> float:
    value = _req(mapping, key, where)
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise SystemDataError(f"{where}: field {key!r} is not numeric: {value!r}") from None
    if not np.isfinite(out):
        raise SystemDataError(f"{where}: field {key!r} is not finite")
    return out


def load_system(path) -> PowerSystem:
    """Load and validate a PowerSystem from a JSON system file."""
    path = Path(path)
    if not path.exists():
        raise SystemDataError(f"system file not found: {path}")
    with open(path) as fh:
        raw = json.load(fh)

    buses = tuple(
        Bus(id=int(_req(b, "id", f"buses[{i}]")), name=str(b.get("name", f"bus{i}")))
        for i, b in enumerate(_req(raw, "buses", "file"))
    )
    ids = [b.id for b in buses]
    if ids != list(range(len(buses))):
        raise SystemDataError("buses: ids must be contiguous 0..N-1 in order")
    known = set(ids)

    def _bus_ref(section: str, row: int, value) -> int:
        bus = int(value)
        if bus not in known:
            raise SystemDataError(f"{section}[{row}]: unknown bus {bus}")
        return bus

    lines = []
    for i, ln in enumerate(_req(raw, "lines", "file")):
        where = f"lines[{i}]"
        lines.append(TransmissionLine(
            id=int(ln.get("id", i)),
            from_bus=_bus_ref("lines", i, _req(ln, "from_bus", where)),
            to_bus=_bus_ref("lines", i, _req(ln, "to_bus", where)),
            reactance=_num(ln, "reactance", where),
            rating=_num(ln, "rating", where),
        ))

    generators = []
    for i, g in enumerate(_req(raw, "generators", "file")):
        where = f"generators[{i}]"
        blocks = tuple(
            (float(w), float(s)) for w, s in _req(g, "cost_blocks", where)
        )
        generators.append(GenerationResource(
            id=int(g.get("id", i)),
            bus=_bus_ref("generators", i, _req(g, "bus", where)),
            p_min=_num(g, "p_min", where),
            p_max=_num(g, "p_max", where),
            cost_blocks=blocks,
            no_load_cost=_num(g, "no_load_cost", where),
            startup_cost=_num(g, "startup_cost", where),
            shutdown_cost=_num(g, "shutdown_cost", where),
            ramp_15=_num(g, "ramp_15", where),
            ramp_su=_num(g, "ramp_su", where),
            ramp_sd=_num(g, "ramp_sd", where),
            min_up=int(_req(g, "min_up", where)),
            min_down=int(_req(g, "min_down", where)),
            frp_up_cost=float(g.get("frp_up_cost", 0.5)),
            frp_down_cost=float(g.get("frp_down_cost", 0.5)),
            is_fast_start=bool(g.get("is_fast_start", False)),
        ))

    solar_units = []
    for i, s in enumerate(raw.get("solar", [])):
        where = f"solar[{i}]"
        solar_units.append(SolarUnit(
            id=int(s.get("id", i)),
            bus=_bus_ref("solar", i, _req(s, "bus", where)),
            capacity=_num(s, "capacity", where),
            share_of_total=_num(s, "share_of_total", where),
        ))

    participation = np.zeros(len(buses))
    for key, frac in _req(raw, "participation", "file").items():
        bus = _bus_ref("participation", 0, key)
        participation[bus] = float(frac)

    system = PowerSystem(
        buses=buses,
        lines=tuple(lines),
        generators=tuple(generators),
        solar_units=tuple(solar_units),
        load_participation=participation,
        slack_bus=int(raw.get("slack_bus", 0)),
        name=str(raw.get("name", path.stem)),
    )
    problems = validate_system(system)
    if problems:
        raise SystemDataError("; ".join(problems))
    return system


# ------------------------------------------------------------------- validate

def _connected(system: PowerSystem) -> bool:
    if system.n_buses <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(system.n_buses)]
    for ln in system.lines:
        adj[ln.from_bus].append(ln.to_bus)
        adj[ln.to_bus].append(ln.from_bus)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == system.n_buses


def validate_system(system: PowerSystem) -> list[str]:
    """Return a description of every broken invariant (empty list if none)."""
    problems: list[str] = []
    n = system.n_buses
    if [b.id for b in system.buses] != list(range(n)):
        problems.append("bus ids are not contiguous 0..N-1")
    if not 0 <= system.slack_bus < n:
        problems.append(f"slack bus {system.slack_bus} does not exist")
    for ln in system.lines:
        if ln.from_bus == ln.to_bus:
            problems.append(f"line {ln.id}: from_bus equals to_bus")
        if not (0 <= ln.from_bus < n and 0 <= ln.to_bus < n):
            problems.append(f"line {ln.id}: unknown bus")
        if ln.reactance <= 0:
            problems.append(f"line {ln.id}: reactance must be > 0")
        if ln.rating <= 0:
            problems.append(f"line {ln.id}: rating must be > 0")
    for g in system.generators:
        tag = f"generator {g.id}"
        if not 0 <= g.bus < n:
            problems.append(f"{tag}: unknown bus {g.bus}")
        if not 0 <= g.p_min <= g.p_max:
            problems.append(f"{tag}: requires 0 <= p_min <= p_max")
        if abs(g.block_span - (g.p_max - g.p_min)) > 1e-6:
            problems.append(
                f"{tag}: cost block widths sum to {g.block_span:.6g}, "
                f"expected p_max - p_min = {g.p_max - g.p_min:.6g}"
            )
        if g.ramp_su < g.p_min:
            problems.append(f"{tag}: startup ramp below p_min")
        if g.ramp_sd < g.p_min:
            problems.append(f"{tag}: shutdown ramp below p_min")
        if g.min_up < 1 or g.min_down < 1:
            problems.append(f"{tag}: min up/down times must be >= 1 interval")
        costs = (g.no_load_cost, g.startup_cost, g.shutdown_cost,
                 g.frp_up_cost, g.frp_down_cost)
        if not np.isfinite([*costs, *(v for block in g.cost_blocks for v in block)]).all():
            problems.append(f"{tag}: non-finite cost or cost block")
        if any(c < 0 for c in costs) or any(s < 0 for _, s in g.cost_blocks):
            problems.append(f"{tag}: negative cost")
        if g.ramp_15 < 0:
            problems.append(f"{tag}: negative ramp rate")
    for s in system.solar_units:
        if not 0 <= s.bus < n:
            problems.append(f"solar unit {s.id}: unknown bus {s.bus}")
        if s.capacity < 0:
            problems.append(f"solar unit {s.id}: negative capacity")
    if system.solar_units:
        total_share = sum(s.share_of_total for s in system.solar_units)
        if abs(total_share - 1.0) > PARTICIPATION_TOL:
            problems.append(f"solar shares sum to {total_share!r}, expected 1")
    part = system.load_participation
    if part.shape != (n,):
        problems.append("load participation vector has wrong length")
    elif not np.isfinite(part).all():
        problems.append("load participation is not finite")
    elif abs(float(part.sum()) - 1.0) > PARTICIPATION_TOL:
        problems.append(f"load participation sums to {float(part.sum())!r}, expected 1")
    if not _connected(system):
        problems.append("network is not connected")
    return problems


# ----------------------------------------------------------------------- ptdf

def compute_ptdf(system: PowerSystem) -> PtdfMatrix:
    """DC power-flow PTDF for the system's designated slack bus.

    Standard construction: susceptance matrices from line reactances, the
    slack row/column removed, and line sensitivities recovered by solving
    against the reduced bus matrix.  The slack column is identically zero.
    """
    n, m = system.n_buses, len(system.lines)
    slack = system.slack_bus
    b_line = np.array([1.0 / ln.reactance for ln in system.lines])
    frm = np.array([ln.from_bus for ln in system.lines], dtype=int)
    to = np.array([ln.to_bus for ln in system.lines], dtype=int)

    b_bus = np.zeros((n, n))
    np.add.at(b_bus, (frm, frm), b_line)
    np.add.at(b_bus, (to, to), b_line)
    np.add.at(b_bus, (frm, to), -b_line)
    np.add.at(b_bus, (to, frm), -b_line)

    keep = [i for i in range(n) if i != slack]
    reduced = b_bus[np.ix_(keep, keep)]

    # rows of Bf: flow_k = b_k * (theta_from - theta_to)
    bf = np.zeros((m, n))
    bf[np.arange(m), frm] += b_line
    bf[np.arange(m), to] -= b_line

    # np.linalg.solve's last bits varied with the BLAS thread count, an LU
    # factor and solve's did not (1, 2 and 4 threads); those bits can decide
    # which near-optimal commitment HiGHS returns.  scipy warns on a 0 pivot.
    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        try:
            theta_sens = (lu_solve(lu_factor(reduced), np.eye(n - 1)) if n > 1
                          else np.zeros((0, 0)))
        except (LinAlgWarning, np.linalg.LinAlgError):
            raise SystemDataError(
                "network is disconnected: reduced susceptance matrix is singular"
            ) from None

    values = np.zeros((m, n))
    if n > 1:
        values[:, keep] = bf[:, keep] @ theta_sens
    ptdf = PtdfMatrix(values=values, slack_bus=slack)
    bad = np.abs(values) > 1.0 + PTDF_ENTRY_TOL
    if bad.any():
        k, b = np.argwhere(bad)[0]
        raise SystemDataError(f"PTDF entry out of range at line {k}, bus {b}: {values[k, b]}")
    return ptdf
