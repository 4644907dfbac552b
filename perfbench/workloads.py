"""The benchmark's workloads: what one cycle of each runs, and how it is checked.

A workload's ``setup`` builds everything its units need from the seed; a
cycle is the fixed list of ``Unit`` calls the runner times back to back,
one caller, no pools.  Every unit returns named values (costs, energy) and
a list of problems found by checks that never share code with the program's
fast path; every data-driven cut loop's final solution is also checked for
post-deployment overloads as it returns (``Checks``).  Values are compared
with the reference recorded at the default seed and, within a run, with
the first cycle.

Sizes (why each workload holds what it holds):

* ``ieee118-rolls``: 118-bus scenario-day rolls on fixed day-ahead
  commitments and awards.  One cycle rolls ``TRAIN_HOURS`` trading hours
  of a training day (``fmm.run_training_day``) for each of ``TRAIN_DAYS``
  scenarios and validates one out-of-sample day
  (``validation.run_rtuc_validation``, always all 24 hours) under
  ``VALIDATE_POLICY``.  No MLP, no cuts.  A validation day takes 25-35 s
  here, so one day per cycle is what the run budget holds; the other
  policy's days run the same code with other award caps.  With a fresh
  scenario per seed the one day of a run took 20-40 s, which one day per
  run cannot average, so the validated day is out-of-sample scenario 0 of
  the default seed whatever the seed; the seed draws the training
  scenarios.  The cycle's time weighs the training hours by
  ``TRAIN_WEIGHT`` so that training and validation hours count 5:1, as in
  ``configs/ieee118_day1.json`` (5000 training days, 2 x 500 validation
  days): the cycle time estimates 5 training days plus 1 validation day.
* ``ieee118-clear``: ``dayahead.run_da`` (one 10,944-column MIP), then the
  first ``CLEAR_HOURS`` trading hours of ``fmm.run_fmm_day`` for the proxy
  and the data-driven policy (award block, cut loop on the meshed network).
  Its inputs do not depend on the seed.
* ``case5-pipeline``: ``pipeline.run_pipeline`` through all five stages on
  the 5-bus bottleneck case, both policies, the acceptance gate's solver
  settings and network, at ``CASE5_SIZES``: hundreds of tiny MILPs, the
  MLP fit and a cut loop that binds.

A unit whose inputs do not depend on the seed is checked against the
reference at every seed; the others at the default seed only.  A unit with
no recorded reference value fails.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

import env  # noqa: F401
import inputs
from frpsim import dayahead, fmm, network, pipeline, scenarios, validation
from frpsim.validation import DATADRIVEN, PROXY

TRAIN_DAYS = 2          # training scenarios rolled per cycle
TRAIN_HOURS = 4         # trading hours rolled per training scenario
# the config's 120 training hours per validation day, over the hours rolled
TRAIN_WEIGHT = 5 * 24 / (TRAIN_DAYS * TRAIN_HOURS)
VALIDATE_POLICY = DATADRIVEN
CLEAR_HOURS = 7         # trading hours cleared per policy
CASE5_SIZES = dict(n_training=20, n_out_of_sample=10, n_deployment=2, nn_epochs=60)
REF_GAPS = 5.0          # reference tolerance, in multiples of the MIP gap
IDENTITY_RTOL = 1e-9    # total = excl + voll * violation
OUT = Path(__file__).resolve().parent / "out"


@dataclasses.dataclass
class Unit:
    """One timed call.  ``metric`` groups samples; ``key`` names the inputs;
    ``weight`` scales the call's time in the cycle time."""

    metric: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict[str, float], list[str]]]
    seeded: bool = True   # inputs drawn from the seed
    weight: float = 1.0


class Checks:
    """Post-deployment overloads, checked as each cut loop returns.

    The runner takes the time of these checks out of the unit's time.
    """

    def __init__(self):
        self.problems: list[str] = []

    def cut_loop(self, handle: fmm.FmmHandle, sol) -> None:
        ratings = np.array([ln.rating for ln in handle.system.lines])
        for s in range(len(handle.deployment)):
            for direction in (fmm.UP, fmm.DOWN):
                flows = fmm.post_deployment_flows(handle, sol, s, direction)
                with np.errstate(invalid="ignore"):
                    worst = np.nanmax(np.abs(flows) - ratings[:, None], initial=-np.inf)
                if worst > handle.cfg.cut_tol_mw:
                    self.problems.append(
                        f"post-deployment overload {worst:.4g} MW at hour start "
                        f"{handle.horizon.start}, scenario {s}, {direction}")

    def take(self) -> list[str]:
        out, self.problems = self.problems, []
        return out


def _result_identity(res: validation.ScenarioResult, voll: float) -> list[str]:
    total = res.rt_cost_excl_violation + voll * res.total_violation_mwh
    problems = []
    if not all(map(math.isfinite, (res.total_cost, total))):
        problems.append(f"non-finite cost in scenario {res.scenario_id} ({res.policy})")
    elif abs(res.total_cost - total) > IDENTITY_RTOL * max(1.0, abs(total)):
        problems.append(f"total != excl + voll*violation in scenario "
                        f"{res.scenario_id} ({res.policy})")
    if res.total_violation_mwh < 0:
        problems.append(f"negative violation in scenario {res.scenario_id}")
    return problems


class Workload:
    name = ""
    rtol = 0.0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def units(self) -> list[Unit]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


class _System118(Workload):
    def setup(self, seed):
        self.cfg = inputs.config_118(seed)
        self.rtol = REF_GAPS * self.cfg.mip_rel_gap
        self.system = network.load_system(self.cfg.system_file)
        self.ptdf = network.compute_ptdf(self.system)
        self.profile = scenarios.load_profiles(self.cfg.profile_dir, self.system.solar_units)
        self.fixed = inputs.load_118(self.system)


class Rolls118(_System118):
    name = "ieee118-rolls"

    def setup(self, seed):
        super().setup(seed)
        unc = self.cfg.uncertainty
        self.train = scenarios.sample_scenarios(self.system, self.profile, unc,
                                                TRAIN_DAYS, scenarios.TRAINING)
        self.oos = scenarios.sample_scenarios(
            self.system, self.profile, inputs.config_118().uncertainty, 1,
            scenarios.OUT_OF_SAMPLE)
        self.vcfg = validation.ValidationConfig(voll=self.cfg.voll,
                                                solve=self.cfg.solve_options)

    def units(self):
        out = []
        for i, scn in enumerate(self.train):
            out.append(Unit("train_day_s", f"train/{i}",
                            lambda scn=scn: fmm.run_training_day(
                                self.system, self.ptdf, scn, self.fixed.da,
                                self.cfg.fmm, self.cfg.solve_options,
                                n_intervals=4 * TRAIN_HOURS),
                            self._check_training, weight=TRAIN_WEIGHT))
        policy = VALIDATE_POLICY
        out.append(Unit("validate_day_s", f"validate/{policy}/0",
                        lambda: validation.run_rtuc_validation(
                            self.system, self.ptdf, self.fixed.awards[policy],
                            self.fixed.da, self.oos[0], 0, policy, self.vcfg),
                        self._check_validation, seeded=False))
        return out

    def _check_training(self, traj):
        n = 4 * TRAIN_HOURS
        problems = []
        energy = 0.0
        for gen in self.system.generators:
            p = np.asarray(traj.dispatch[gen.id][:n])
            u = np.asarray(traj.commitment[gen.id][:n])
            if not np.isfinite(p).all() or not np.isin(u, (0.0, 1.0)).all():
                problems.append(f"generator {gen.id}: non-finite dispatch or fractional commitment")
                continue
            if (p < -1e-6).any() or (p > gen.p_max * u + 1e-6).any():
                problems.append(f"generator {gen.id}: dispatch outside [0, p_max * u]")
            if not gen.is_fast_start:
                pattern = [self.fixed.da.commitment_at(gen.id, t) for t in range(n)]
                if not np.array_equal(u, pattern):
                    problems.append(f"must-run generator {gen.id} left its day-ahead commitment")
            energy += float(p.sum()) * 0.25
        return {"energy_mwh": energy}, problems

    def _check_validation(self, res):
        return ({"total_cost": res.total_cost},
                _result_identity(res, self.vcfg.voll))


class Clear118(_System118):
    name = "ieee118-clear"

    def setup(self, seed):
        super().setup(seed)
        unc = self.cfg.uncertainty
        self.envelope = scenarios.proxy_envelopes(self.profile, unc, self.system.solar_units)
        self.deployment = scenarios.select_deployment_scenarios(
            self.system, self.profile, unc, self.cfg.n_deployment)

    def units(self):
        def clear(policy):
            dd = policy == DATADRIVEN
            return fmm.run_fmm_day(
                self.system, self.ptdf, self.profile, self.envelope, self.fixed.da,
                policy, self.cfg.fmm, factors=self.fixed.factors if dd else None,
                deployment=self.deployment if dd else None,
                options=self.cfg.solve_options, n_intervals=4 * CLEAR_HOURS)

        out = [Unit("da_s", "da", lambda: dayahead.run_da(
            self.system, self.ptdf, self.profile, options=self.cfg.solve_options,
            voll=self.cfg.voll), self._check_da, seeded=False)]
        for policy in (PROXY, DATADRIVEN):
            out.append(Unit(f"clear_day_s.{policy}", f"clear/{policy}",
                            lambda policy=policy: clear(policy), self._check_clear,
                            seeded=False))
        return out

    def _check_da(self, result):
        da, sol, _ = result
        problems = [] if sol.status == "optimal" else [f"day-ahead status {sol.status}"]
        ref = self.fixed.da_objective
        if abs(sol.objective - ref) > self.rtol * abs(ref):
            problems.append(f"day-ahead objective {sol.objective:.2f} vs stored {ref:.2f}")
        return {"objective": sol.objective}, problems

    def _check_clear(self, run):
        problems = []
        if not (math.isfinite(run.cost) and math.isfinite(run.violation_mwh)):
            problems.append(f"{run.policy}: non-finite cost")
        if run.violation_mwh < 0:
            problems.append(f"{run.policy}: negative violation")
        return {"total_cost": run.cost + self.cfg.voll * run.violation_mwh}, problems


class Case5Pipeline(Workload):
    name = "case5-pipeline"

    def setup(self, seed):
        system_file, profile_dir = inputs.case5_paths()
        self.cfg = pipeline.ExperimentConfig(
            system_file=str(system_file), profile_dir=str(profile_dir), output_dir="",
            policy="both", seed=seed, persist_training_data=False, **CASE5_SIZES)
        self.rtol = REF_GAPS * self.cfg.mip_rel_gap
        self.dirs: list[Path] = []

    def teardown(self):
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)

    def units(self):
        return [Unit("pipeline_s", "pipeline", self._run, self._check)]

    def _run(self):
        # artifacts of a previous pipeline would be reused, so each call
        # gets a fresh output directory inside the checkout
        OUT.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="case5-", dir=OUT))
        self.dirs.append(out)
        return pipeline.run_pipeline(dataclasses.replace(self.cfg, output_dir=str(out)))

    def _check(self, ctx):
        problems = []
        values = {}
        for policy in (PROXY, DATADRIVEN):
            results = ctx.results.get(policy, [])
            if len(results) != CASE5_SIZES["n_out_of_sample"]:
                problems.append(f"{policy}: {len(results)} validation results")
            for res in results:
                problems += _result_identity(res, ctx.cfg.voll)
            values[f"validate.{policy}"] = float(sum(r.total_cost for r in results))
            values[f"clear.{policy}"] = float(ctx.fmm_costs.get(policy, math.nan))
        report = ctx.out / "report.json"
        if not report.exists() or "improvements" not in json.loads(report.read_text()):
            problems.append("report stage wrote no comparison")
        shutil.rmtree(ctx.out, ignore_errors=True)
        return values, problems


WORKLOADS = {w.name: w for w in (Rolls118, Clear118, Case5Pipeline)}


def record_reference(log) -> None:
    """Run one cycle of every workload at the default seed; store its values."""
    import runner

    ref = {}
    for name in WORKLOADS:
        result = runner.run(name, inputs.DEFAULT_SEED, seconds=0.0, traced=False,
                            reference=None)
        if result.failed:
            raise RuntimeError(f"{name}: reference cycle failed: {result.problems}")
        ref[name] = result.first_values
        log(f"{name}: reference recorded")
    (inputs.DATA / inputs.REFERENCE_FILE).write_text(json.dumps(
        {"seed": inputs.DEFAULT_SEED, "values": ref}, indent=1, sort_keys=True) + "\n")
