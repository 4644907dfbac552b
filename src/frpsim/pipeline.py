"""Configuration-driven orchestration of the full comparison pipeline.

Stages run in order and each persists its artifacts under the output
directory, so a rerun picks up from whatever already exists: prepare (system,
day-ahead), train (scenario rolls, regression models), clear (hourly market
runs per policy), validate (out-of-sample re-dispatch), report (tables).
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import learner as learner_mod
from .dayahead import (DaCommitments, read_commitments_csv, run_da,
                       write_commitments_csv)
from .fmm import FmmAwards, FmmConfig, run_fmm_day, run_training_day
from .milp import SolveOptions
from .network import PowerSystem, compute_ptdf, load_system
from .scenarios import (INTERVALS_PER_DAY, OUT_OF_SAMPLE, TRAINING, UncertaintyConfig,
                        load_profiles, proxy_envelopes, sample_scenarios,
                        select_deployment_scenarios, write_scenarios_csv)
from .validation import (DATADRIVEN, PROXY, MetricsReport, ScenarioResult,
                         ValidationConfig, aggregate_metrics, compare_policies,
                         policy_aggregates, run_rtuc_validation, write_interval_csv,
                         write_results_csv)

STAGES = ("prepare", "train", "clear", "validate", "report")


class StageError(RuntimeError):
    """A pipeline stage failed; the message is tagged with the stage name.

    Both constructor arguments are in ``args``, so the error pickles.
    """

    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage, self.message = stage, message

    def __str__(self):
        return f"[{self.stage}] {self.message}"


def _is_int(value) -> bool:
    """An integer that is not a bool (JSON's ``true`` is one)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    system_file: str
    profile_dir: str
    output_dir: str
    policy: str = "both"                 # proxy | datadriven | both
    seed: int = 0
    sigma_hourly_frac: float = 0.05
    confidence_z: float = 1.96
    truncation_sigmas: float = 3.0
    n_training: int = 5000
    n_out_of_sample: int = 500
    n_deployment: int = 2
    voll: float = 10000.0
    response_threshold: float = 0.05
    nn_hidden: tuple[int, ...] = (100, 100, 25)
    nn_epochs: int = 150
    nn_batch_size: int = 128
    nn_learning_rate: float = 1e-3
    mip_rel_gap: float = 1e-4
    time_limit: float | None = None
    persist_training_data: bool = True

    def __post_init__(self):
        if self.policy not in ("proxy", "datadriven", "both"):
            raise ValueError(f"unknown policy {self.policy!r}")
        for name in ("seed", "n_training", "n_out_of_sample", "n_deployment", "nn_epochs",
                     "nn_batch_size"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        self.nn_hidden = tuple(self.nn_hidden)
        if not self.nn_hidden or not all(_is_int(n) and n >= 1 for n in self.nn_hidden):
            raise ValueError(f"nn_hidden must be one or more integers >= 1, got {self.nn_hidden}")
        for name in ("n_training", "n_out_of_sample"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # deployment scenarios come in symmetric quantile pairs
        if self.n_deployment < 2:
            raise ValueError("n_deployment must be >= 2")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name, ok, rule in (
                ("voll", self.voll > 0, "> 0"),
                ("sigma_hourly_frac", self.sigma_hourly_frac >= 0, ">= 0"),
                ("confidence_z", self.confidence_z > 0, "> 0"),
                ("truncation_sigmas", self.truncation_sigmas > 0, "> 0"),
                ("mip_rel_gap", 0 <= self.mip_rel_gap < 1, "in [0, 1)"),
                ("time_limit", self.time_limit is None or self.time_limit > 0,
                 "None or > 0"),
                ("nn_learning_rate", self.nn_learning_rate > 0, "> 0"),
                ("nn_epochs", self.nn_epochs >= 1, ">= 1"),
                ("nn_batch_size", self.nn_batch_size >= 1, ">= 1"),
                ("response_threshold", 0 <= self.response_threshold <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        return cls(**raw)

    @property
    def uncertainty(self) -> UncertaintyConfig:
        return UncertaintyConfig(
            sigma_hourly_frac=self.sigma_hourly_frac,
            confidence_z=self.confidence_z,
            truncation_sigmas=self.truncation_sigmas,
            seed=self.seed,
        )

    @property
    def solve_options(self) -> SolveOptions:
        return SolveOptions(mip_rel_gap=self.mip_rel_gap, time_limit=self.time_limit)

    @property
    def fmm(self) -> FmmConfig:
        return FmmConfig(voll=self.voll, response_threshold=self.response_threshold)

    @property
    def policies(self) -> list[str]:
        if self.policy == "both":
            return [PROXY, DATADRIVEN]
        return [self.policy]


@dataclass
class PipelineContext:
    """Lazily loaded shared artifacts for the stage functions."""

    cfg: ExperimentConfig
    out: Path
    system: PowerSystem | None = None
    ptdf: object = None
    profile: object = None
    envelope: object = None
    da: DaCommitments | None = None
    models: dict | None = None
    deployment: object = None
    awards: dict[str, FmmAwards] = field(default_factory=dict)
    fmm_costs: dict[str, float] = field(default_factory=dict)
    results: dict[str, list[ScenarioResult]] = field(default_factory=dict)

    def load_inputs(self):
        if self.system is None:
            self.system = load_system(self.cfg.system_file)
            self.ptdf = compute_ptdf(self.system)
            self.profile = load_profiles(self.cfg.profile_dir, self.system.solar_units)
            self.envelope = proxy_envelopes(self.profile, self.cfg.uncertainty,
                                            self.system.solar_units)

    def load_da(self):
        self.load_inputs()
        if self.da is None:
            path = self.out / "da_commitments.csv"
            if not path.exists():
                raise StageError("prepare", "day-ahead artifacts missing; run prepare")
            self.da = read_commitments_csv(path)

    def load_deployment(self):
        self.load_inputs()
        if self.deployment is None:
            self.deployment = select_deployment_scenarios(
                self.system, self.profile, self.cfg.uncertainty,
                self.cfg.n_deployment,
            )


# ------------------------------------------------------------- scenario-days

def _pool_size(n_days: int) -> int:
    """Worker processes for ``n_days`` independent scenario-days: one per CPU
    this process may run on (``taskset`` narrows them), at most one per day."""
    return max(1, min(len(os.sched_getaffinity(0)), n_days))


def _roll_days(stage: str, label: str, day, scenarios, *more) -> list:
    """``[day(s, *m) for s, *m in zip(scenarios, *more)]`` on a process pool.

    ``Executor.map`` keeps input order, so the results are those of a serial
    loop.  The start method is named because Python's default differs across
    versions.  Forked workers start with frpsim and the inputs loaded; fork
    is safe here because the pool forks before it starts its own threads,
    HiGHS leaves no thread behind and OpenBLAS restarts its threads in the
    child.  The first failing day in input order raises
    ``StageError(stage, "<label> <index>: <error>")`` and cancels the days
    not yet started.
    """
    fork = multiprocessing.get_context("fork")
    done = []
    with ProcessPoolExecutor(_pool_size(len(scenarios)), mp_context=fork) as pool:
        try:
            for result in pool.map(day, scenarios, *more):
                done.append(result)
        except Exception as exc:
            raise StageError(stage, f"{label} {len(done)}: {exc}") from exc
    return done


# ------------------------------------------------------------------- stages

def stage_prepare(ctx: PipelineContext, force: bool = False) -> None:
    out = ctx.out / "da_commitments.csv"
    if out.exists() and not force:
        return
    ctx.load_inputs()
    da, _, _ = run_da(ctx.system, ctx.ptdf, ctx.profile,
                      options=ctx.cfg.solve_options, voll=ctx.cfg.voll)
    write_commitments_csv(da, out)
    ctx.da = da


def stage_train(ctx: PipelineContext, force: bool = False) -> None:
    if DATADRIVEN not in ctx.cfg.policies:
        return
    model_dir = ctx.out / "models"
    if model_dir.exists() and any(model_dir.glob("gen_*.npz")) and not force:
        return
    ctx.load_da()
    cfg = ctx.cfg
    training = sample_scenarios(ctx.system, ctx.profile, cfg.uncertainty,
                                cfg.n_training, TRAINING)
    trajs = _roll_days("train", "training scenario",
                      partial(run_training_day, ctx.system, ctx.ptdf, da=ctx.da,
                              cfg=cfg.fmm, options=cfg.solve_options),
                      training)
    dataset = learner_mod.build_targets(list(zip(training, trajs)), ctx.system,
                                        seed=cfg.seed)
    if cfg.persist_training_data:
        _write_dataset_csv(dataset, ctx.out / "training_dataset.csv")
    train_cfg = learner_mod.TrainConfig(
        hidden=cfg.nn_hidden, epochs=cfg.nn_epochs,
        batch_size=cfg.nn_batch_size, learning_rate=cfg.nn_learning_rate,
        seed=cfg.seed,
    )
    models = learner_mod.train(dataset, train_cfg)
    learner_mod.save_models(models, model_dir)
    meta = {g: {"train_mse": m.train_mse, "test_mse": m.test_mse}
            for g, m in models.items()}
    (ctx.out / "training_meta.json").write_text(json.dumps(meta, indent=2))
    ctx.models = models


def stage_clear(ctx: PipelineContext, force: bool = False) -> None:
    ctx.load_da()
    cfg = ctx.cfg
    for policy in cfg.policies:
        awards_path = ctx.out / f"awards_{policy}.csv"
        if awards_path.exists() and not force:
            continue
        try:
            factors = deployment = None
            if policy == DATADRIVEN:
                ctx.load_deployment()
                deployment = ctx.deployment
                write_scenarios_csv(deployment, ctx.out / "deployment_scenarios.csv",
                                    ctx.system.solar_units)
                if ctx.models is None:
                    ctx.models = learner_mod.load_models(ctx.out / "models")
                    if not ctx.models:
                        raise StageError("clear", "no trained models; run train")
                factors = learner_mod.predict_factors(ctx.models, deployment)
                _write_factors_csv(factors, ctx.out / "response_factors.csv")
            run = run_fmm_day(ctx.system, ctx.ptdf, ctx.profile, ctx.envelope, ctx.da,
                              policy, cfg.fmm, factors=factors, deployment=deployment,
                              options=cfg.solve_options)
            if policy == DATADRIVEN:
                _write_cuts_csv(run.cuts, ctx.out / "cuts_datadriven.csv")
        except StageError:
            raise
        except Exception as exc:
            raise StageError("clear", f"{policy}: {exc}") from exc
        _write_awards_csv(run.awards, awards_path)
        ctx.awards[policy] = run.awards
        ctx.fmm_costs[policy] = run.cost
        costs_path = ctx.out / "fmm_costs.json"
        existing = json.loads(costs_path.read_text()) if costs_path.exists() else {}
        existing[policy] = {"cost": run.cost, "violation_mwh": run.violation_mwh}
        costs_path.write_text(json.dumps(existing, indent=2))


def stage_validate(ctx: PipelineContext, force: bool = False) -> None:
    ctx.load_da()
    cfg = ctx.cfg
    oos = sample_scenarios(ctx.system, ctx.profile, cfg.uncertainty,
                           cfg.n_out_of_sample, OUT_OF_SAMPLE)
    vcfg = ValidationConfig(voll=cfg.voll, solve=cfg.solve_options)
    for policy in cfg.policies:
        results_path = ctx.out / f"results_{policy}.csv"
        if results_path.exists() and not force:
            continue
        awards = ctx.awards.get(policy)
        if awards is None:
            awards_path = ctx.out / f"awards_{policy}.csv"
            if not awards_path.exists():
                raise StageError("validate", f"awards for {policy} missing; run clear")
            awards = _read_awards_csv(awards_path, ctx.system)
            ctx.awards[policy] = awards
        results = _roll_days("validate", f"{policy} scenario",
                            partial(run_rtuc_validation, ctx.system, ctx.ptdf, awards,
                                    ctx.da, policy=policy, cfg=vcfg),
                            oos, range(len(oos)))
        write_results_csv(results, results_path)
        write_interval_csv(results, ctx.out / f"intervals_{policy}.csv")
        ctx.results[policy] = results


def stage_report(ctx: PipelineContext, force: bool = False) -> None:
    report_path = ctx.out / "report.json"
    if report_path.exists() and not force:
        return
    cfg = ctx.cfg
    costs_path = ctx.out / "fmm_costs.json"
    fmm_costs = {}
    if costs_path.exists():
        fmm_costs = {k: v["cost"] for k, v in json.loads(costs_path.read_text()).items()}
    per_policy = {}
    for policy in cfg.policies:
        results = ctx.results.get(policy)
        if results is None:
            results = _read_results(ctx.out, policy)
            ctx.results[policy] = results
        per_policy[policy] = policy_aggregates(results)
    payload = {"config": asdict(cfg), "fmm_costs": fmm_costs,
               "per_policy": per_policy}
    if set(cfg.policies) == {PROXY, DATADRIVEN}:
        report = aggregate_metrics(ctx.results[PROXY], ctx.results[DATADRIVEN],
                                   fmm_cost=fmm_costs)
        payload["improvements"] = report.improvements
        emit_tables(report, ctx.out)
    report_path.write_text(json.dumps(payload, indent=2))


def _check_resumed_config(path: Path, cfg: ExperimentConfig) -> None:
    """Refuse to resume over artifacts that a different config produced.

    ``output_dir`` and ``policy`` may differ: artifacts are named per policy,
    and a copied output directory holds the same run.
    """
    if not path.exists():
        return
    old = json.loads(path.read_text())
    new = json.loads(json.dumps(asdict(cfg)))
    changed = [f"{k}: {old.get(k, '<missing>')!r} -> {new.get(k, '<missing>')!r}"
               for k in [*new, *(k for k in old if k not in new)]
               if k not in ("output_dir", "policy") and old.get(k) != new.get(k)]
    if changed:
        raise StageError("config", f"{path} was written by a different config "
                                   f"({'; '.join(changed)}); use --force to recompute")


def run_pipeline(cfg: ExperimentConfig, stages=None, force: bool = False
                 ) -> PipelineContext:
    """Run the requested stages in order; artifacts land in the output dir.

    Unless ``force`` is set, an output directory whose ``config_used.json``
    differs from ``cfg`` raises ``StageError`` before any stage runs.
    """
    todo = list(stages) if stages else list(STAGES)
    for stage in todo:
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not force:
        _check_resumed_config(out / "config_used.json", cfg)
    (out / "config_used.json").write_text(json.dumps(asdict(cfg), indent=2))
    ctx = PipelineContext(cfg=cfg, out=out)
    runners = {
        "prepare": stage_prepare,
        "train": stage_train,
        "clear": stage_clear,
        "validate": stage_validate,
        "report": stage_report,
    }
    for stage in STAGES:
        if stage in todo:
            try:
                runners[stage](ctx, force=force)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(stage, str(exc)) from exc
    return ctx


# ------------------------------------------------------------------- tables

def emit_tables(report: MetricsReport, out_dir) -> list[Path]:
    """Write the comparison tables and the per-interval quartile CSV."""
    if not report.proxy:
        raise ValueError("report is empty")
    out_dir = Path(out_dir)
    rows = compare_policies(report)
    written = []
    tables = {
        "improvements": "table_improvements.csv",
        "violations": "table_violations.csv",
        "costs": "table_costs.csv",
        "fs_commitments": "table_fs_commitments.csv",
    }
    for table, filename in tables.items():
        path = out_dir / filename
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "proxy", "datadriven"])
            for row in rows:
                if row.table == table:
                    writer.writerow([row.metric, f"{row.proxy:.6f}",
                                     f"{row.datadriven:.6f}"])
        written.append(path)
    path = out_dir / "table_interval_quartiles.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval", "improvement_q1", "improvement_median",
                         "improvement_q3"])
        for t in range(len(report.interval_improvement_median)):
            writer.writerow([
                t,
                f"{report.interval_improvement_q1[t]:.6f}",
                f"{report.interval_improvement_median[t]:.6f}",
                f"{report.interval_improvement_q3[t]:.6f}",
            ])
    written.append(path)
    return written


# ------------------------------------------------------------------ persist

def _write_awards_csv(awards: FmmAwards, path) -> None:
    # full-precision floats so validation reruns from disk reproduce exactly
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generator", "interval", "p", "u", "ur", "dr"])
        for g in awards.gen_ids:
            for t in range(awards.n_intervals):
                writer.writerow([
                    g, t, repr(float(awards.p[g][t])), int(awards.u[g][t]),
                    repr(float(awards.ur[g][t])), repr(float(awards.dr[g][t])),
                ])


def _read_awards_csv(path, system: PowerSystem) -> FmmAwards:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = max(int(r["interval"]) for r in rows) + 1
    awards = FmmAwards.empty(system, n)
    for r in rows:
        g, t = int(r["generator"]), int(r["interval"])
        awards.p[g][t] = float(r["p"])
        awards.u[g][t] = float(r["u"])
        awards.ur[g][t] = float(r["ur"])
        awards.dr[g][t] = float(r["dr"])
    return awards


def _write_cuts_csv(cuts, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hour", "line", "t", "scenario", "direction", "bound",
                         "round"])
        for hour, cut in cuts:
            writer.writerow([hour, cut.line_id, cut.t, cut.scenario,
                             cut.direction, cut.bound, cut.round_added])


def _write_factors_csv(factors, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generator", "move", "scenario", "factor"])
        for g in factors.gen_ids():
            arr = factors.values[g]
            for t in range(arr.shape[0]):
                for s in range(arr.shape[1]):
                    writer.writerow([g, t, s, f"{arr[t, s]:.6f}"])


def _write_dataset_csv(dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        n_feat = dataset.features.shape[1]
        writer.writerow(["generator", "interval", "target", "is_test",
                         *(f"f{i}" for i in range(n_feat))])
        for i in range(len(dataset)):
            writer.writerow([
                dataset.gen_ids[i], dataset.intervals[i],
                f"{dataset.targets[i]:.6f}", int(dataset.is_test[i]),
                *(f"{x:.6f}" for x in dataset.features[i]),
            ])


def _read_results(out_dir: Path, policy: str) -> list[ScenarioResult]:
    results_path = out_dir / f"results_{policy}.csv"
    intervals_path = out_dir / f"intervals_{policy}.csv"
    for path in (results_path, intervals_path):
        if not path.exists():
            raise StageError("report", f"{path.name} missing; run validate")
    per_interval: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    with open(intervals_path, newline="") as fh:
        for row in csv.DictReader(fh):
            sid = int(row["scenario_id"])
            cost, viol = per_interval.setdefault(
                sid, (np.zeros(INTERVALS_PER_DAY), np.zeros(INTERVALS_PER_DAY))
            )
            t = int(row["interval"])
            cost[t] = float(row["cost"])
            viol[t] = float(row["violation_mwh"])
    out = []
    with open(results_path, newline="") as fh:
        for row in csv.DictReader(fh):
            sid = int(row["scenario_id"])
            if sid not in per_interval:
                raise StageError("report", f"{intervals_path.name} has no rows "
                                           f"for scenario {sid}")
            cost, viol = per_interval[sid]
            out.append(ScenarioResult(
                scenario_id=sid,
                policy=row["policy"],
                rt_cost_excl_violation=float(row["rt_cost_excl_violation"]),
                total_violation_mwh=float(row["total_violation_mwh"]),
                fs_commitment_count=int(row["fs_commitments"]),
                total_cost=float(row["total_cost"]),
                interval_cost=cost,
                interval_violation_mwh=viol,
            ))
    return out
