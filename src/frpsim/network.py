"""Electric network data model, loading/validation, and PTDF computation.

The system file is a single JSON document with sections ``buses``, ``lines``,
``generators``, ``solar``, ``participation`` and a ``slack_bus`` (schema in
the README).  All power quantities are MW; reactances are per unit.

Every text file frpsim reads goes through one of two strict readers here,
each refusal naming the path: ``read_json`` (system, config, JSON artifacts)
and ``read_csv`` (profiles, CSV artifacts).
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from collections import Counter
from collections.abc import Callable
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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

def _is_finite(value) -> bool:
    # JSON's true and false load as bools, which are ints; a huge int is no float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _cost_blocks(value):
    ok = isinstance(value, list) and all(
        isinstance(b, list) and len(b) == 2 and all(map(_is_finite, b)) for b in value)
    return tuple((float(w), float(s)) for w, s in value) if ok else None


# a field's annotation -> what its value must be, and a parser returning None to refuse it
_PARSERS = {
    "int": ("a whole number",
            lambda v: int(v) if _is_finite(v) and float(v).is_integer() else None),
    "float": ("a finite number", lambda v: float(v) if _is_finite(v) else None),
    "bool": ("a JSON boolean", lambda v: v if isinstance(v, bool) else None),
    "str": ("a JSON string", lambda v: v if isinstance(v, str) else None),
    "tuple[tuple[float, float], ...]": ("a list of finite [width, slope] pairs", _cost_blocks),
}
_SECTIONS = dict(buses=list, lines=list, generators=list, solar=list, participation=dict)


def _parse(where: str, name: str, annotation: str, value):
    what, parser = _PARSERS[annotation]
    out = parser(value)
    if out is None:
        raise SystemDataError(f"{where}: field {name!r} must be {what}, got {value!r}")
    return out


def _records(raw: dict, section: str, cls, **defaults) -> tuple:
    """The section's rows as ``cls`` records; ``defaults``: field -> f(row index)."""
    kinds = {f.name: f.type for f in fields(cls)}
    out = []
    for i, row in enumerate(raw[section]):
        where = f"{section}[{i}]"
        if not isinstance(row, dict):
            raise SystemDataError(f"{where}: not a JSON object")
        values = {name: default(i) for name, default in defaults.items()}
        for name, value in row.items():
            if name not in kinds:
                raise SystemDataError(f"{where}: unknown field {name!r}")
            values[name] = _parse(where, name, kinds[name], value)
        for f in fields(cls):
            if f.name not in values and f.default is MISSING:
                raise SystemDataError(f"{where}: missing field {f.name!r}")
        out.append(cls(**values))
    return tuple(out)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refusing a key the object repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} repeated within one object")
        out[key] = value
    return out


def read_json(path, error: Callable[[str], Exception] = ValueError):
    """The JSON document at ``path``; malformed JSON, or a key repeated
    within one object, raises ``error(message)``, the message naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:   # json.JSONDecodeError is one
        raise error(f"{path}: {exc}") from exc


def read_csv(path, keys: tuple[str, ...], cells: list[tuple[int, ...]],
             columns: tuple[str, ...], labels: dict[str, str] | None = None,
             error: Callable[[str], Exception] = ValueError) -> dict[str, np.ndarray]:
    """Each of ``columns`` of the CSV file at ``path`` as floats, one per row.

    Row i must hold ``cells[i]`` in its integer ``keys`` columns, so the rows
    come in that order and each once, and ``labels`` maps a text column to
    the value every row must hold.  Every value must parse and be finite,
    and every row must have as many cells as the header.  Anything else
    raises ``error(message)``, the message naming the path and the first
    line, column or cell at fault.
    """
    labels = labels or {}

    def name(cell):
        return ", ".join(f"{k} {v}" for k, v in zip(keys, cell))

    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if absent := [c for c in (*keys, *labels, *columns) if c not in header]:
                raise error(f"{path} line 1 has no {absent[0]} column")
            for row in reader:
                where, text = f"{path} line {reader.line_num}", dict(zip(header, row))
                if len(row) != len(header):
                    raise error(f"{where}: row length {len(row)}, header length {len(header)}")
                for c, label in labels.items():
                    if text[c] != label:
                        raise error(f"{where}, column {c}: {text[c]!r} is not {label!r}")
                values = []
                for c in (*keys, *columns):
                    try:
                        values.append((int if c in keys else float)(text[c]))
                    except ValueError:
                        raise error(f"{where}, column {c}: cannot read {text[c]!r}") from None
                    if not math.isfinite(values[-1]):
                        raise error(f"{where}, column {c}: {text[c]!r} is not finite")
                cell, i = tuple(values[:len(keys)]), len(rows)
                if i == len(cells) or cell != cells[i]:
                    belongs = f"{name(cells[i])} belongs" if i < len(cells) else "no row belongs"
                    raise error(f"{where} holds {name(cell)} where {belongs}")
                rows.append(values[len(keys):])
    except (OSError, csv.Error, UnicodeDecodeError) as exc:   # no such file, not text, ...
        raise error(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if len(rows) < len(cells):
        raise error(f"{path} has no row for {name(cells[len(rows)])}")
    table = np.array(rows, dtype=float).reshape(len(cells), len(columns))
    return dict(zip(columns, table.T.copy()))


def load_system(path) -> PowerSystem:
    """Load and validate a PowerSystem from a JSON system file."""
    path = Path(path)
    if not path.exists():
        raise SystemDataError(f"system file not found: {path}")
    raw = read_json(path, SystemDataError)
    raw = ({"solar": [], "slack_bus": 0, "name": path.stem, **raw}
           if isinstance(raw, dict) else {})  # a file that is no JSON object has no sections
    if unknown := raw.keys() - {*_SECTIONS, "slack_bus", "name"}:
        raise SystemDataError(f"file: unknown section {sorted(unknown)[0]!r}")
    for key, kind in _SECTIONS.items():
        if not isinstance(raw.get(key), kind):
            raise SystemDataError(f"file: section {key!r} is missing or not a {kind.__name__}")
    buses = _records(raw, "buses", Bus, name="bus{}".format)
    participation = np.zeros(len(buses))
    for key, frac in raw["participation"].items():
        # the key indexes the array, so the loader checks it, not validate_system
        if key not in map(str, range(len(buses))):
            raise SystemDataError(f"participation: key {key!r} is not a bus index < {len(buses)}")
        participation[int(key)] = _parse("participation", key, "float", frac)
    system = PowerSystem(
        buses=buses, lines=_records(raw, "lines", TransmissionLine, id=int),
        generators=_records(raw, "generators", GenerationResource, id=int),
        solar_units=_records(raw, "solar", SolarUnit, id=int), load_participation=participation,
        slack_bus=_parse("file", "slack_bus", "int", raw["slack_bus"]),
        name=_parse("file", "name", "str", raw["name"]))
    problems = validate_system(system)
    if problems:
        raise SystemDataError("; ".join(problems))
    return system


# ------------------------------------------------------------------- validate

def _connected(system: PowerSystem) -> bool:
    n = system.n_buses
    ends = np.array([(ln.from_bus, ln.to_bus) for ln in system.lines], dtype=int).reshape(-1, 2)
    ends = ends[((ends >= 0) & (ends < n)).all(axis=1)]  # the rest are reported as unknown
    graph = coo_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[0] <= 1


def validate_system(system: PowerSystem) -> list[str]:
    """Return a description of every broken invariant (empty list if none)."""
    problems: list[str] = []
    n = system.n_buses
    if [b.id for b in system.buses] != list(range(n)):
        problems.append("bus ids are not contiguous 0..N-1")
    for label, records in (("line", system.lines), ("generator", system.generators),
                           ("solar unit", system.solar_units)):
        if repeated := sorted(k for k, c in Counter(r.id for r in records).items() if c > 1):
            problems.append(f"{label} ids repeat: {repeated}")
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
