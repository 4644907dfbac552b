"""Configuration-driven orchestration of the full comparison pipeline.

Stages run in order and each persists its artifacts under the output
directory, so a rerun picks up from whatever already exists: prepare (system,
day-ahead), train (scenario rolls, regression models), clear (hourly market
runs per policy), validate (out-of-sample re-dispatch), report (tables).
Each stage reads what an earlier one produced back from that directory, so a
fresh and a resumed run take the same path.  This module owns the format of
every artifact.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
import numbers
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np

from . import learner as learner_mod
from .dayahead import DaCommitments, run_da
from .fmm import DATADRIVEN, PROXY, FmmAwards, FmmConfig, run_fmm_day, run_training_day
from .milp import SolveOptions
from .network import PowerSystem, SolarUnit, compute_ptdf, load_system, read_json
from .scenarios import (HOURS_PER_DAY, INTERVALS_PER_DAY, OUT_OF_SAMPLE, TRAINING, Scenario,
                        UncertaintyConfig, load_profiles, proxy_envelopes, sample_scenarios,
                        select_deployment_scenarios)
from .validation import ScenarioResult, ValidationConfig, run_rtuc_validation

STAGES = ("prepare", "train", "clear", "validate", "report")
POLICIES = (PROXY, DATADRIVEN, "both")   # the config's policy choices


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


# a config field's annotation -> what its value must be, and the types that are
_FIELD_TYPES = {"str": ("a string", str), "bool": ("a boolean", bool),
                "int": ("an integer", numbers.Integral), "float": ("a number", numbers.Real),
                "float | None": ("a number or None", (numbers.Real, type(None))),
                "tuple[int, ...]": ("one or more integers >= 1", (tuple, list))}


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
        for f in fields(self):
            value = getattr(self, f.name)
            what, kinds = _FIELD_TYPES[f.type]
            # a bool is an int, and JSON's true loads as one
            if not isinstance(value, kinds) or isinstance(value, bool) and kinds is not bool:
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        self.nn_hidden = tuple(self.nn_hidden)
        if not self.nn_hidden or not all(_is_int(n) and n >= 1 for n in self.nn_hidden):
            raise ValueError(f"nn_hidden must be one or more integers >= 1, got {self.nn_hidden}")
        for name, ok, rule in (
                ("seed", self.seed >= 0, ">= 0"),
                ("n_training", self.n_training >= 1, ">= 1"),
                ("n_out_of_sample", self.n_out_of_sample >= 1, ">= 1"),
                # deployment scenarios come in symmetric quantile pairs
                ("n_deployment", self.n_deployment >= 2, ">= 2"),
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
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: the top level is not a JSON object")
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
    """The run's inputs, loaded once, and what this run's stages computed.

    A stage reads what an earlier stage produced from ``out``, whether or
    not that stage ran in this process; ``da`` holds that read of the
    day-ahead file.  ``fmm_costs`` and ``results`` collect what this run's
    clear and validate stages computed, for callers of ``run_pipeline``.
    """

    cfg: ExperimentConfig
    out: Path
    system: PowerSystem | None = None
    ptdf: object = None
    profile: object = None
    envelope: object = None
    da: DaCommitments | None = None
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
            self.da = _read_da_csv(self.out / "da_commitments.csv", self.system)


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
    _write_da_csv(da, out)


def stage_train(ctx: PipelineContext, force: bool = False) -> None:
    """Fit the response models; ``training_meta.json``, written after every
    model file, marks the stage done."""
    if DATADRIVEN not in ctx.cfg.policies:
        return
    meta_path = ctx.out / "training_meta.json"
    if meta_path.exists() and not force:
        return
    # a retrain that stops half way must not leave the old marker, and one
    # that fits fewer generators must not leave their old models
    meta_path.unlink(missing_ok=True)
    shutil.rmtree(ctx.out / "models", ignore_errors=True)
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
    _write_models(learner_mod.train(dataset, train_cfg), ctx.out)


def stage_clear(ctx: PipelineContext, force: bool = False) -> None:
    ctx.load_da()
    cfg = ctx.cfg
    for policy in cfg.policies:
        awards_path = ctx.out / f"awards_{policy}.csv"
        if awards_path.exists() and not force:
            continue
        models = _read_models(ctx.out) if policy == DATADRIVEN else None
        try:
            factors = deployment = None
            if policy == DATADRIVEN:
                deployment = select_deployment_scenarios(
                    ctx.system, ctx.profile, cfg.uncertainty, cfg.n_deployment)
                _write_scenarios_csv(deployment, ctx.out / "deployment_scenarios.csv",
                                     ctx.system.solar_units)
                factors = learner_mod.predict_factors(models, deployment)
                _write_factors_csv(factors, ctx.out / "response_factors.csv")
            run = run_fmm_day(ctx.system, ctx.ptdf, ctx.profile, ctx.envelope, ctx.da,
                              policy, cfg.fmm, factors=factors, deployment=deployment,
                              options=cfg.solve_options)
            if policy == DATADRIVEN:
                _write_cuts_csv(run.cuts, ctx.out / "cuts_datadriven.csv")
        except Exception as exc:
            raise StageError("clear", f"{policy}: {exc}") from exc
        ctx.fmm_costs[policy] = run.cost
        costs_path = ctx.out / "fmm_costs.json"
        existing = json.loads(costs_path.read_text()) if costs_path.exists() else {}
        existing[policy] = {"cost": run.cost, "violation_mwh": run.violation_mwh}
        _write_json(costs_path, existing)
        # the awards file marks the policy cleared, so it goes last
        _write_awards_csv(run.awards, awards_path)


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
        awards = _read_awards_csv(ctx.out / f"awards_{policy}.csv", ctx.system)
        results = _roll_days("validate", f"{policy} scenario",
                            partial(run_rtuc_validation, ctx.system, ctx.ptdf, awards,
                                    ctx.da, policy=policy, cfg=vcfg),
                            oos, range(len(oos)))
        # the results file marks the policy validated, so it goes last
        _write_intervals_csv(results, ctx.out / f"intervals_{policy}.csv")
        _write_results_csv(results, results_path)
        ctx.results[policy] = results


# per-scenario metrics, in results-file and report order; the first three
# also count the scenarios where the data-driven policy is strictly lower
_METRIC_NAMES = ("rt_cost_excl_violation", "total_violation_mwh", "fs_commitments",
                 "total_cost")
_IMPROVABLE = _METRIC_NAMES[:3]
_STATS = {"avg": np.mean, "sum": np.sum, "max": np.max}

# each comparison table's rows, in order: "<metric>.<stat>" of the policy
# aggregates, the clearing cost, and the data-driven improvement counts
# (the proxy column holds the number of scenarios)
_TABLES = {
    "table_improvements.csv": [f"scenarios_improved.{m}" for m in _IMPROVABLE],
    "table_violations.csv": [f"total_violation_mwh.{s}" for s in ("avg", "sum", "max")],
    "table_costs.csv": ["fmm_operating_cost",
                        *(f"{m}.{s}" for s in ("avg", "max")
                          for m in ("rt_cost_excl_violation", "total_cost"))],
    "table_fs_commitments.csv": [f"fs_commitments.{s}" for s in ("sum", "avg", "max")],
}


def stage_report(ctx: PipelineContext, force: bool = False) -> None:
    """Aggregate each policy's results; with both policies, compare them
    scenario by scenario and write the comparison tables."""
    report_path = ctx.out / "report.json"
    if report_path.exists() and not force:
        return
    cfg = ctx.cfg
    costs_path = ctx.out / "fmm_costs.json"
    fmm = json.loads(costs_path.read_text()) if costs_path.exists() else {}
    metrics, interval_cost = {}, {}
    for policy in cfg.policies:
        if policy not in fmm:
            raise StageError("report", f"fmm_costs.json has no {policy} cost; run clear")
        metrics[policy], interval_cost[policy] = _read_results(
            ctx.out, policy, cfg.n_out_of_sample)
    fmm_costs = {p: v["cost"] for p, v in fmm.items()}
    per_policy = {p: {m: {s: float(stat(v)) for s, stat in _STATS.items()}
                      for m, v in metrics[p].items()}
                  for p in cfg.policies}
    payload = {"config": asdict(cfg), "fmm_costs": fmm_costs, "per_policy": per_policy}
    if set(cfg.policies) == {PROXY, DATADRIVEN}:
        improved = {m: int(np.sum(metrics[DATADRIVEN][m] < metrics[PROXY][m]))
                    for m in _IMPROVABLE}
        payload["improvements"] = improved
        cells = {p: {"fmm_operating_cost": fmm_costs[p],
                     **{f"{m}.{s}": x for m, stats in per_policy[p].items()
                        for s, x in stats.items()}}
                 for p in (PROXY, DATADRIVEN)}
        for m, count in improved.items():
            cells[PROXY][f"scenarios_improved.{m}"] = float(cfg.n_out_of_sample)
            cells[DATADRIVEN][f"scenarios_improved.{m}"] = float(count)
        for name, rows in _TABLES.items():
            _write_csv(ctx.out / name, ["metric", PROXY, DATADRIVEN],
                       ([r, f"{cells[PROXY][r]:.6f}", f"{cells[DATADRIVEN][r]:.6f}"]
                        for r in rows))
        # positive: data-driven cheaper at that interval
        gains = interval_cost[PROXY] - interval_cost[DATADRIVEN]
        quartiles = [np.quantile(gains, q, axis=0) for q in (0.25, 0.5, 0.75)]
        _write_csv(ctx.out / "table_interval_quartiles.csv",
                   ["interval", "improvement_q1", "improvement_median", "improvement_q3"],
                   ([t, *(f"{q[t]:.6f}" for q in quartiles)]
                    for t in range(INTERVALS_PER_DAY)))
    _write_json(report_path, payload)


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
    _write_json(out / "config_used.json", asdict(cfg))
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


# --------------------------------------------------------- artifact formats
# Every file a stage reads back carries full-precision (``repr``) floats, so
# a stage computes the same from disk as from memory.  The audit-only files
# (deployment scenarios, response factors, cuts, training dataset) carry six
# decimals.  The model files hold their arrays as written.

def _replace(path: Path, fill, binary: bool = False) -> None:
    """Write ``path`` through ``fill(fh)`` into ``<name>.tmp``, opened as
    text or, if ``binary``, as bytes, then rename it over ``path``: a write
    that fails leaves no partial file behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            fill(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    def fill(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    _replace(path, fill)


def _write_json(path: Path, payload) -> None:
    _replace(path, lambda fh: fh.write(json.dumps(payload, indent=2)))


def _read_csv(path: Path, made_by: str, keys: tuple[str, ...], cells: list[tuple],
              columns: tuple[str, ...], labels: dict[str, str] | None = None
              ) -> dict[str, np.ndarray]:
    """Each of ``columns`` of ``path`` as floats, one per cell of ``cells``,
    in that order.

    ``keys`` are the integer columns that place a row in a cell, and
    ``labels`` maps a text column to the value every row must hold.  A file
    that lacks a column, holds a cell that does not parse or a row with
    another label, lacks a cell, repeats one or holds one not in ``cells``
    is refused, naming the first such column, row or cell and ``made_by``,
    the stage that writes it.
    """
    if not path.exists():
        raise ValueError(f"{path.name} missing; run {made_by}")
    labels = labels or {}
    parsers = [(k, int) for k in keys] + [(c, float) for c in columns]
    wanted, rows = set(cells), {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        absent = [name for name in [*keys, *labels, *columns]
                  if name not in (reader.fieldnames or ())]
        if absent:
            raise ValueError(f"{path.name} line 1 has no {absent[0]} column; rerun {made_by}")
        for row in reader:
            for name, label in labels.items():
                if row[name] != label:
                    raise ValueError(f"{path.name} line {reader.line_num}, column {name}: "
                                     f"{row[name]!r} is not {label!r}; rerun {made_by}")
            values = []
            for name, parse in parsers:
                try:
                    values.append(parse(row[name]))
                except (TypeError, ValueError):   # a short row reads None
                    raise ValueError(f"{path.name} line {reader.line_num}, column {name}: "
                                     f"cannot read {row[name]!r}; rerun {made_by}") from None
            cell = tuple(values[:len(keys)])
            if cell in rows or cell not in wanted:
                problem = "repeats" if cell in rows else "has an unexpected"
                raise ValueError(f"{path.name} {problem} {_cell(keys, cell)}; "
                                 f"rerun {made_by}")
            rows[cell] = values[len(keys):]
    for cell in cells:
        if cell not in rows:
            raise ValueError(f"{path.name} has no row for {_cell(keys, cell)}; "
                             f"rerun {made_by}")
    return {name: np.array([rows[cell][i] for cell in cells])
            for i, name in enumerate(columns)}


def _cell(keys, cell) -> str:
    return ", ".join(f"{k} {v}" for k, v in zip(keys, cell))


def _exact(x) -> str:
    return repr(float(x))


def _write_da_csv(da: DaCommitments, path: Path) -> None:
    _write_csv(path, ["generator", "hour", "u", "dispatch_mw"],
               ([g, h, int(da.u_hourly[g][h]), _exact(da.dispatch_hourly[g][h])]
                for g in sorted(da.u_hourly) for h in range(HOURS_PER_DAY)))


def _read_da_csv(path: Path, system: PowerSystem) -> DaCommitments:
    ids = [g.id for g in system.generators]
    u, p = (col.reshape(len(ids), HOURS_PER_DAY)
            for col in _read_csv(path, "prepare", ("generator", "hour"),
                                 list(product(ids, range(HOURS_PER_DAY))),
                                 ("u", "dispatch_mw")).values())
    return DaCommitments(u_hourly=dict(zip(ids, u)), dispatch_hourly=dict(zip(ids, p)),
                         objective=float("nan"))


def _write_awards_csv(awards: FmmAwards, path: Path) -> None:
    _write_csv(path, ["generator", "interval", "p", "u", "ur", "dr"],
               ([g, t, _exact(awards.p[g][t]), int(awards.u[g][t]),
                 _exact(awards.ur[g][t]), _exact(awards.dr[g][t])]
                for g in awards.gen_ids for t in range(awards.n_intervals)))


def _read_awards_csv(path: Path, system: PowerSystem) -> FmmAwards:
    ids = [g.id for g in system.generators]
    cols = _read_csv(path, "clear", ("generator", "interval"),
                     list(product(ids, range(INTERVALS_PER_DAY))), ("p", "u", "ur", "dr"))
    return FmmAwards(gen_ids=ids, **{
        k: dict(zip(ids, col.reshape(len(ids), INTERVALS_PER_DAY)))
        for k, col in cols.items()})


def _write_models(models: dict[int, learner_mod.RegressionModel], out: Path) -> None:
    """One ``models/gen_<id>.npz`` per model with what prediction needs, then
    ``training_meta.json``: the fitted generators with their fit errors."""
    (out / "models").mkdir(exist_ok=True)
    for gen_id, m in models.items():
        layers = {f"{k}{i}": a for k, arrays in (("w", m.mlp.weights), ("b", m.mlp.biases))
                  for i, a in enumerate(arrays)}
        # a handle, since np.savez appends ".npz" to a path without it
        _replace(out / "models" / f"gen_{gen_id}.npz",
                 partial(np.savez, mean=m.mean, std=m.std, **layers), binary=True)
    _write_json(out / "training_meta.json",
                {g: {"train_mse": m.train_mse, "test_mse": m.test_mse}
                 for g, m in models.items()})


def _read_models(out: Path) -> dict[int, learner_mod.RegressionModel]:
    """The models of exactly the generators that ``training_meta.json`` lists."""
    if not (out / "training_meta.json").exists():
        raise ValueError("training_meta.json missing; run train")
    fits = json.loads((out / "training_meta.json").read_text())
    names = {f"gen_{g}.npz": g for g in fits}
    found = set(os.listdir(out / "models")) if (out / "models").is_dir() else set()
    mismatched = sorted(names.keys() ^ found)
    if mismatched:
        name = mismatched[0]
        problem = "missing" if name in names else "is not listed in training_meta.json"
        raise ValueError(f"models/{name} {problem}; rerun train")
    models = {}
    for name, gen in names.items():
        with np.load(out / "models" / name) as data:
            n_layers = sum(key.startswith("w") for key in data.files)
            weights, biases = ([data[f"{k}{i}"] for i in range(n_layers)] for k in "wb")
            mean, std = data["mean"], data["std"]
        mlp = learner_mod.Mlp(len(mean), tuple(w.shape[1] for w in weights[:-1]))
        mlp.weights, mlp.biases = weights, biases
        models[int(gen)] = learner_mod.RegressionModel(mlp, mean, std, **fits[gen])
    return models


def _write_results_csv(results: list[ScenarioResult], path: Path) -> None:
    _write_csv(path, ["scenario_id", "policy", *_METRIC_NAMES],
               ([r.scenario_id, r.policy, _exact(r.rt_cost_excl_violation),
                 _exact(r.total_violation_mwh), r.fs_commitment_count,
                 _exact(r.total_cost)] for r in results))


def _write_intervals_csv(results: list[ScenarioResult], path: Path) -> None:
    _write_csv(path, ["scenario_id", "policy", "interval", "cost", "violation_mwh"],
               ([r.scenario_id, r.policy, t, _exact(r.interval_cost[t]),
                 _exact(r.interval_violation_mwh[t])]
                for r in results for t in range(len(r.interval_cost))))


def _read_results(out: Path, policy: str, n: int
                  ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Each metric of scenarios ``0 .. n-1`` of one policy, and their
    (n, 96) per-interval costs.

    Both policies' files must hold the same scenarios, so a comparison of
    them pairs each scenario with itself, and every row must name
    ``policy``, so neither policy is compared with a copy of the other.
    """
    scenario_ids = range(n)
    metrics = _read_csv(out / f"results_{policy}.csv", "validate", ("scenario_id",),
                        [(s,) for s in scenario_ids], _METRIC_NAMES, {"policy": policy})
    cost = _read_csv(out / f"intervals_{policy}.csv", "validate",
                     ("scenario_id", "interval"),
                     list(product(scenario_ids, range(INTERVALS_PER_DAY))), ("cost",),
                     {"policy": policy})
    return metrics, cost["cost"].reshape(n, INTERVALS_PER_DAY)


def _write_scenarios_csv(scenario_set: tuple[Scenario, ...], path: Path,
                         solar_units: tuple[SolarUnit, ...]) -> None:
    """Audit dump: one row per (scenario, interval, quantity)."""
    def rows():
        for sid, scn in enumerate(scenario_set):
            for t in range(scn.system_load.shape[0]):
                yield [sid, t, "load", f"{scn.system_load[t]:.6f}"]
                for u, unit in enumerate(solar_units):
                    yield [sid, t, f"solar_{unit.id}", f"{scn.solar[u, t]:.6f}"]
    _write_csv(path, ["scenario_id", "interval", "quantity", "value"], rows())


def _write_cuts_csv(cuts, path: Path) -> None:
    _write_csv(path, ["hour", "line", "t", "scenario", "direction", "bound", "round"],
               ([hour, cut.line_id, cut.t, cut.scenario, cut.direction, cut.bound,
                 cut.round_added] for hour, cut in cuts))


def _write_factors_csv(factors, path: Path) -> None:
    _write_csv(path, ["generator", "move", "scenario", "factor"],
               ([g, t, s, f"{v:.6f}"]
                for g in factors.gen_ids() for (t, s), v in np.ndenumerate(factors.values[g])))


def _write_dataset_csv(dataset, path: Path) -> None:
    _write_csv(path, ["generator", "interval", "target", "is_test",
                      *(f"f{i}" for i in range(dataset.features.shape[1]))],
               ([dataset.gen_ids[i], dataset.intervals[i], f"{dataset.targets[i]:.6f}",
                 int(dataset.is_test[i]), *(f"{x:.6f}" for x in dataset.features[i])]
                for i in range(len(dataset))))
