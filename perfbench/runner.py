"""Run one workload in this process: set up, time cycles, check every unit.

``python3 perfbench/runner.py WORKLOAD SEED`` only sets the workload up and
prints the seconds from its first line to the end of set-up, imports
included; the runner times set-up that way in fresh processes, as a user
pays it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import inputs  # first among the benchmark's modules: pins BLAS threads, puts src/ on sys.path

import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import WORKLOADS, Checks

SETUP_REPEATS = 5


def time_setup(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import frpsim and set up."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), name, str(seed)],
                         check=True, timeout=170, capture_output=True, text=True).stdout
    return float(out.split()[-1])


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    setup_times: list[float] = field(default_factory=list)
    cycle_times: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_values: dict[str, dict[str, float]] = field(default_factory=dict)
    tracer: tracing.Tracer = field(default_factory=tracing.Tracer)
    peak_rss_mb: float = 0.0

    @property
    def cycles(self) -> int:
        return len(self.cycle_times)


def load_reference() -> dict:
    """The recorded reference values; raises ``inputs.InputError`` if the
    file is missing or does not match its recorded hash."""
    return json.loads(inputs.verified(inputs.REFERENCE_FILE).read_text())


def _compare(values, expected, rtol, what) -> list[str]:
    if expected is None:
        return [f"{what}: no value recorded"]
    problems = [f"{what}: {name} = {values[name]} has no recorded value"
                for name in sorted(set(values) - set(expected))]
    for name, ref in expected.items():
        got = values.get(name)
        if got is None or abs(got - ref) > rtol * max(abs(ref), 1.0):
            problems.append(f"{what}: {name} = {got} but expected {ref} (rtol {rtol:g})")
    return problems


def run(name: str, seed: int, seconds: float, traced: bool,
        reference: dict | None) -> Result:
    """Time ``SETUP_REPEATS`` set-ups in fresh processes, set up here, then
    run whole cycles while the next one is expected to end within
    ``seconds`` (always at least one).

    Each unit's values are compared with ``reference`` when the unit's
    inputs match the reference's (every seed for a unit whose inputs no
    seed changes, the reference seed for the others); a missing entry fails
    the unit.  ``reference=None`` records: nothing is compared with it.
    A cycle's time is the sum of its units' times, each times its weight.
    """
    wl = WORKLOADS[name]()
    res = Result(workload=name, seed=seed, traced=traced)
    checks = Checks()
    recording = reference is None
    expected = {} if recording else reference["values"].get(name, {})
    at_ref_seed = not recording and seed == reference["seed"]
    res.setup_times = [time_setup(name, seed) for _ in range(SETUP_REPEATS)]
    with tracing.instrument(res.tracer, traced, on_cut_loop=checks.cut_loop):
        try:
            res.tracer.phase = "setup"
            wl.setup(seed)
            res.tracer.phase = "cycle"
            units = wl.units()
            start = time.perf_counter()
            walls: list[float] = []
            while True:
                c0 = time.perf_counter()
                busy = 0.0
                for unit in units:
                    res.attempted += 1
                    problems: list[str]
                    try:
                        mark = len(res.tracer.spans)
                        t0 = time.perf_counter()
                        out = unit.run()
                        dt = time.perf_counter() - t0
                        dt -= sum(s.end - s.start for s in res.tracer.spans[mark:]
                                  if s.name == tracing.CHECKS)
                        busy += unit.weight * dt
                        res.samples[unit.metric].append(dt)
                        res.tracer.paused = True
                        values, problems = unit.check(out)
                    except Exception as exc:  # a failed unit is counted, never skipped
                        values = {}
                        problems = [f"{type(exc).__name__}: {exc}",
                                    traceback.format_exc(limit=3)]
                    res.tracer.paused = False
                    problems += checks.take()
                    if values:
                        if unit.key not in res.first_values:
                            res.first_values[unit.key] = values
                            if at_ref_seed or not (recording or unit.seeded):
                                problems += _compare(values, expected.get(unit.key),
                                                     wl.rtol, f"{unit.key} vs reference")
                        else:
                            problems += _compare(values, res.first_values[unit.key],
                                                 wl.rtol, f"{unit.key} vs first cycle")
                    if problems:
                        res.failed += 1
                        res.problems += [f"{unit.key}: {p}" for p in problems]
                res.cycle_times.append(busy)
                walls.append(time.perf_counter() - c0)
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(walls) > seconds:
                    break
        finally:
            wl.teardown()
    res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return res


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]().setup(int(sys.argv[2]))
    print(time.perf_counter() - _T0)
