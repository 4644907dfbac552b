from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import pickle
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from frpsim import fmm, learner, pipeline, validation
from frpsim.cli import main as cli_main
from frpsim.fmm import HourSolveError
from frpsim.milp import Rows
from frpsim.pipeline import ExperimentConfig, StageError, run_pipeline
from frpsim.scenarios import Scenario
from util import bottleneck_profile, bottleneck_system, profile_to_dir, system_to_json

ROOT = Path(__file__).resolve().parents[1]
TABLES = ["table_improvements.csv", "table_violations.csv", "table_costs.csv",
          "table_fs_commitments.csv", "table_interval_quartiles.csv"]


@pytest.fixture(scope="module")
def toy_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    system_path = system_to_json(bottleneck_system(), root / "system.json")
    profile_dir = profile_to_dir(bottleneck_profile(), root / "day")
    return system_path, profile_dir


def toy_config(system_path, profile_dir, out_dir, **overrides) -> ExperimentConfig:
    base = dict(
        system_file=str(system_path),
        profile_dir=str(profile_dir),
        output_dir=str(out_dir),
        policy="both",
        seed=5,
        n_training=3,
        n_out_of_sample=2,
        n_deployment=2,
        nn_hidden=(16, 8),
        nn_epochs=8,
        persist_training_data=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_from_json_round_trip(self, tmp_path, toy_inputs):
        system_path, profile_dir = toy_inputs
        payload = {
            "system_file": str(system_path),
            "profile_dir": str(profile_dir),
            "output_dir": str(tmp_path / "out"),
            "n_training": 7,
            "nn_hidden": [16, 8],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.n_training == 7
        assert cfg.nn_hidden == (16, 8)
        assert cfg.policy == "both"

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ExperimentConfig(system_file="x", profile_dir="y", output_dir="z",
                             policy="zonal")

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError, match="n_training"):
            ExperimentConfig(system_file="x", profile_dir="y", output_dir="z",
                             n_training=0)

    @pytest.mark.parametrize("field, value", [
        ("voll", math.nan), ("voll", 0.0), ("voll", -1.0),
        ("sigma_hourly_frac", -0.01), ("sigma_hourly_frac", math.inf),
        ("confidence_z", 0.0), ("truncation_sigmas", -1.0),
        ("mip_rel_gap", -1.0), ("mip_rel_gap", 1.0), ("mip_rel_gap", math.nan),
        ("nn_learning_rate", 0.0), ("nn_epochs", 0), ("nn_batch_size", 0),
        ("response_threshold", -0.1), ("response_threshold", 1.5),
        ("n_training", math.nan), ("seed", -1),
        # counts are integers, and a bool is not one
        ("n_training", 2.5), ("n_training", 7.0), ("nn_epochs", 1.5), ("seed", 1.5),
        ("n_out_of_sample", True), ("nn_batch_size", True), ("n_deployment", 2.0),
        # pytest names the tuples below by position (value26-29): keep them there
        ("nn_hidden", True), ("nn_hidden", 16),
        ("nn_hidden", ()), ("nn_hidden", (0,)), ("nn_hidden", (16, 2.5)),
        ("nn_hidden", (16, True)),
        # no value is converted: a string is refused, whatever it spells
        ("persist_training_data", "false"), ("persist_training_data", 0),
        ("voll", "abc"), ("voll", True), ("mip_rel_gap", "0.001"),
        ("n_training", "10"), ("policy", 1)])
    def test_rejects_bad_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(system_file="x", profile_dir="y", output_dir="z",
                             **{field: value})

    def test_rejects_nan_from_json(self, tmp_path):
        # json.load parses a bare NaN
        path = tmp_path / "cfg.json"
        path.write_text('{"system_file": "x", "profile_dir": "y", "output_dir": "z", '
                        '"voll": NaN}')
        with pytest.raises(ValueError, match="^voll must be finite"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("field, value", [("n_training", "2.5"), ("seed", "true"),
                                              ("persist_training_data", '"false"'),
                                              ("voll", '"abc"'),
                                              ("nn_hidden", "[]"), ("nn_hidden", "[8, 0]")])
    def test_rejects_bad_counts_from_json(self, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text('{"system_file": "x", "profile_dir": "y", "output_dir": "z", '
                        f'"{field}": {value}}}')
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("text, message", [
        ('{"system_file": "x", "profile_dir": "y", "output_dir": "z", "seed": 1, "seed": 2}',
         "key 'seed' repeated within one object$"),
        ('{"system_file": "x", "profile_dir": "y", "output_dir": "z", "nn_hidden": [8, ',
         "Expecting value: line 1"),
        ('{"system_file": "x", "profile_dir": "y", "output_dir": "z", "time_limit": null}',
         "unknown field 'time_limit'$"),
        ('{"system_file": "x", "profile_dir": "y", "output_dir": "z", '
         '"persist_scenarios": false}', "unknown field 'persist_scenarios'$"),
        ('["system_file", "x"]', "the top level is not a JSON object$"),
        ("7", "the top level is not a JSON object$"),
        # the first of the three required fields, in field order
        ('{"output_dir": "z", "profile_dir": "y"}', "missing field 'system_file'$")])
    def test_rejects_bad_json_naming_the_file(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}") as err:
            ExperimentConfig.from_json(path)
        assert type(err.value) is ValueError

    def test_accepts_ints_for_floats_unconverted(self):
        cfg = ExperimentConfig(system_file="x", profile_dir="y", output_dir="z",
                               voll=500, mip_rel_gap=0)
        assert [type(v) for v in (cfg.voll, cfg.mip_rel_gap)] == [int] * 2

    def test_accepts_edge_values(self):
        cfg = ExperimentConfig(system_file="x", profile_dir="y", output_dir="z",
                               sigma_hourly_frac=0.0, mip_rel_gap=0.0,
                               response_threshold=1.0, nn_epochs=1, nn_batch_size=1)
        assert cfg.mip_rel_gap == 0.0 and cfg.response_threshold == 1.0

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda path: path.name)
    def test_bundled_config_loads(self, path):
        cfg = ExperimentConfig.from_json(path)
        # its paths are relative to the repository root
        assert (ROOT / cfg.system_file).is_file() and (ROOT / cfg.profile_dir).is_dir()

    def test_rejects_single_deployment_scenario(self):
        # the clear stage places deployment scenarios in symmetric pairs
        with pytest.raises(ValueError, match="n_deployment must be >= 2"):
            ExperimentConfig(system_file="x", profile_dir="y", output_dir="z",
                             n_deployment=1)


@pytest.fixture(scope="module")
def completed(toy_inputs, tmp_path_factory):
    system_path, profile_dir = toy_inputs
    out = tmp_path_factory.mktemp("run")
    cfg = toy_config(system_path, profile_dir, out)
    ctx = run_pipeline(cfg)
    return cfg, out, ctx


class TestPipeline:

    def test_all_artifacts_exist(self, completed):
        _, out, _ = completed
        expected = [
            "config_used.json", "da_commitments.csv", "training_meta.json",
            "awards_proxy.csv", "awards_datadriven.csv", "cuts_datadriven.csv",
            "deployment_scenarios.csv", "response_factors.csv", "fmm_costs.json",
            "results_proxy.csv", "results_datadriven.csv", "intervals_proxy.csv",
            "intervals_datadriven.csv", "report.json", *TABLES,
        ]
        missing = [name for name in expected if not (out / name).exists()]
        assert not missing, f"missing artifacts: {missing}"
        assert any((out / "models").glob("gen_*.npz"))

    def test_report_carries_both_policies(self, completed):
        _, out, _ = completed
        report = json.loads((out / "report.json").read_text())
        assert set(report["per_policy"]) == {"proxy", "datadriven"}
        assert set(report["improvements"]) == {
            "rt_cost_excl_violation", "total_violation_mwh", "fs_commitments",
        }
        assert report["fmm_costs"]["datadriven"] >= report["fmm_costs"]["proxy"]

    def test_paired_scenarios_identical_ids(self, completed):
        _, out, _ = completed
        import csv as _csv
        ids = {}
        for policy in ("proxy", "datadriven"):
            with open(out / f"results_{policy}.csv", newline="") as fh:
                ids[policy] = [row["scenario_id"] for row in _csv.DictReader(fh)]
        assert ids["proxy"] == ids["datadriven"]

    def test_rerun_is_idempotent_and_identical(self, completed, toy_inputs,
                                               tmp_path_factory):
        cfg_done, out, _ = completed
        system_path, profile_dir = toy_inputs
        before = {name: (out / name).read_bytes() for name in TABLES}
        run_pipeline(toy_config(system_path, profile_dir, out))  # resumes, no-op
        for name in TABLES:
            assert (out / name).read_bytes() == before[name]

    def test_validation_reproducible_from_persisted_awards(
            self, completed, toy_inputs):
        _, out, _ = completed
        system_path, profile_dir = toy_inputs
        before = {
            name: (out / name).read_bytes()
            for name in ("results_proxy.csv", "results_datadriven.csv", *TABLES)
        }
        for name in before:
            (out / name).unlink()
        (out / "report.json").unlink()
        run_pipeline(toy_config(system_path, profile_dir, out))
        for name, content in before.items():
            assert (out / name).read_bytes() == content

    def test_fresh_run_same_seed_bitwise_identical(self, completed, toy_inputs,
                                                   tmp_path_factory):
        _, out, _ = completed
        system_path, profile_dir = toy_inputs
        out2 = tmp_path_factory.mktemp("rerun")
        run_pipeline(toy_config(system_path, profile_dir, out2))
        for name in ("results_proxy.csv", "results_datadriven.csv", *TABLES):
            assert (out2 / name).read_bytes() == (out / name).read_bytes()


class TestTrainingDataset:
    """``persist_training_data`` (true by default) writes the regression rows
    that ``learner.build_targets`` built, to six decimals."""

    def test_written_when_persisted(self, toy_inputs, tmp_path, monkeypatch):
        system_path, profile_dir = toy_inputs
        build, built = learner.build_targets, []

        def keep(*args, **kw):
            built.append(build(*args, **kw))
            return built[-1]
        monkeypatch.setattr(learner, "build_targets", keep)
        cfg = toy_config(system_path, profile_dir, tmp_path / "out", persist_training_data=True)
        run_pipeline(cfg, stages=["prepare", "train"])
        (dataset,) = built
        with open(tmp_path / "out" / "training_dataset.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        dim = dataset.features.shape[1]
        assert header == ["generator", "interval", "target", "is_test",
                          *(f"f{i}" for i in range(dim))]
        assert len(rows) == len(dataset) > 0
        assert [int(r[0]) for r in rows] == dataset.gen_ids.tolist()
        assert [int(r[1]) for r in rows] == dataset.intervals.tolist()
        assert [int(r[3]) for r in rows] == dataset.is_test.astype(int).tolist()
        values = np.array([[float(x) for x in (r[2], *r[4:])] for r in rows])
        np.testing.assert_allclose(values[:, 0], dataset.targets, rtol=0, atol=5e-7)
        np.testing.assert_allclose(values[:, 1:], dataset.features, rtol=0, atol=5e-7)

    def test_not_written_otherwise(self, completed):
        cfg, out, _ = completed
        assert not cfg.persist_training_data
        assert (out / "training_meta.json").exists()
        assert not (out / "training_dataset.csv").exists()


def test_generator_ids_out_of_ascending_order(completed, tmp_path):
    """Generator ids label rows only: with the toy system's ids 3, 1, 2, 0 in
    ``system.generators`` order, a proxy run reads its day-ahead and awards
    back in that order and gives the results of ids 0, 1, 2, 3."""
    _, out, _ = completed
    system = bottleneck_system()
    system = dataclasses.replace(system, generators=tuple(
        dataclasses.replace(g, id=i) for g, i in zip(system.generators, (3, 1, 2, 0))))
    system_path = system_to_json(system, tmp_path / "system.json")
    profile_dir = profile_to_dir(bottleneck_profile(), tmp_path / "day")
    copy = tmp_path / "out"
    run_pipeline(toy_config(system_path, profile_dir, copy, policy="proxy"),
                 stages=["prepare", "clear", "validate", "report"])
    with open(copy / "da_commitments.csv", newline="") as fh:
        ids = [int(row["generator"]) for row in csv.DictReader(fh)]
    assert ids == [g for g in (3, 1, 2, 0) for _ in range(24)]
    for name in ("results_proxy.csv", "intervals_proxy.csv"):
        assert (copy / name).read_bytes() == (out / name).read_bytes(), name


class TestSinglePolicy:
    def test_proxy_only_produces_no_learner_artifacts(self, toy_inputs, tmp_path):
        system_path, profile_dir = toy_inputs
        cfg = toy_config(system_path, profile_dir, tmp_path / "out",
                         policy="proxy")
        run_pipeline(cfg)
        out = tmp_path / "out"
        assert (out / "awards_proxy.csv").exists()
        assert not (out / "models").exists()
        assert not (out / "awards_datadriven.csv").exists()
        assert not (out / "response_factors.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert list(report["per_policy"]) == ["proxy"]
        assert "improvements" not in report

    def test_validate_without_clear_fails_with_stage_tag(self, toy_inputs,
                                                         tmp_path):
        system_path, profile_dir = toy_inputs
        cfg = toy_config(system_path, profile_dir, tmp_path / "out2",
                         policy="proxy")
        run_pipeline(cfg, stages=["prepare"])
        with pytest.raises(StageError, match=r"\[validate\]"):
            run_pipeline(cfg, stages=["validate"])


def test_emit_tables_rejects_empty_report(completed, toy_inputs, tmp_path):
    """A forced report over header-only results fails and leaves the
    previous report and tables as they were."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    names = ["report.json", *TABLES]
    before = {name: (copy / name).read_bytes() for name in names}
    for policy in (validation.PROXY, validation.DATADRIVEN):
        path = copy / f"results_{policy}.csv"
        path.write_bytes(path.read_bytes().splitlines(keepends=True)[0])
    message = f"[report] {copy / 'results_proxy.csv'} has no row for scenario_id 0"
    with pytest.raises(StageError, match=f"^{re.escape(message)}; rerun validate$"):
        run_pipeline(toy_config(system_path, profile_dir, copy), stages=["report"],
                     force=True)
    for name in names:
        assert (copy / name).read_bytes() == before[name], name


def _config_file(cfg: ExperimentConfig, path) -> str:
    path.write_text(json.dumps({**cfg.__dict__, "nn_hidden": list(cfg.nn_hidden)}))
    return str(path)


class TestCli:
    def test_cli_all_exit_zero(self, toy_inputs, tmp_path, capsys):
        system_path, profile_dir = toy_inputs
        cfg = toy_config(system_path, profile_dir, tmp_path / "cli_out",
                         policy="proxy")
        cfg_path = _config_file(cfg, tmp_path / "cfg.json")
        assert cli_main(["all", "--config", cfg_path]) == 0
        assert (tmp_path / "cli_out" / "report.json").exists()

    def test_cli_policy_and_out_overrides(self, toy_inputs, tmp_path):
        system_path, profile_dir = toy_inputs
        cfg = toy_config(system_path, profile_dir, tmp_path / "ignored",
                         policy="proxy")
        cfg_path = _config_file(cfg, tmp_path / "cfg.json")
        out = tmp_path / "override_out"
        assert cli_main(["prepare", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "da_commitments.csv").exists()

    def test_cli_bad_override_exit_two_before_any_file(self, toy_inputs, tmp_path, capsys):
        """An override goes through the config check, so a negative seed
        stops the run before it writes anything."""
        system_path, profile_dir = toy_inputs
        cfg = toy_config(system_path, profile_dir, tmp_path / "o", policy="proxy")
        cfg_path = _config_file(cfg, tmp_path / "cfg.json")
        assert cli_main(["all", "--config", cfg_path, "--seed", "-1"]) == 2
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"policy\": \"zonal\"}")
        assert cli_main(["all", "--config", str(path)]) == 2

    def test_cli_missing_field_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"system_file": "x", "output_dir": "z"}')
        assert cli_main(["all", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: missing field 'profile_dir'\n"

    def test_cli_single_deployment_scenario_exit_two(self, toy_inputs, tmp_path, capsys):
        system_path, profile_dir = toy_inputs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "system_file": str(system_path),
            "profile_dir": str(profile_dir),
            "output_dir": str(tmp_path / "o"),
            "n_training": 1,
            "n_out_of_sample": 1,
            "n_deployment": 1,
            "nn_epochs": 1,
        }))
        assert cli_main(["all", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["time_limit", "persist_scenarios"])
    def test_cli_unknown_field_exit_two(self, toy_inputs, tmp_path, capsys, key):
        system_path, profile_dir = toy_inputs
        cfg = toy_config(system_path, profile_dir, tmp_path / "o", policy="proxy")
        path = tmp_path / "cfg.json"
        _config_file(cfg, path)
        path.write_text(json.dumps({**json.loads(path.read_text()), key: None}))
        assert cli_main(["all", "--config", str(path)]) == 2
        assert f"unknown field '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_cli_missing_system_file_stage_error(self, tmp_path, toy_inputs):
        _, profile_dir = toy_inputs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "system_file": str(tmp_path / "ghost.json"),
            "profile_dir": str(profile_dir),
            "output_dir": str(tmp_path / "o"),
            "policy": "proxy",
        }))
        assert cli_main(["all", "--config", str(path)]) == 3


def test_resume_refuses_artifacts_of_a_different_config(completed, toy_inputs, tmp_path):
    """A rerun with another seed over a finished run's artifacts fails before
    any stage instead of keeping the old seed's results; ``force`` overrides."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    before = (copy / "results_proxy.csv").read_bytes()
    changed = toy_config(system_path, profile_dir, copy, seed=6, n_out_of_sample=3)
    with pytest.raises(StageError, match=r"^\[config\] .*seed: 5 -> 6; "
                                         r"n_out_of_sample: 2 -> 3\)") as info:
        run_pipeline(changed)
    assert info.value.stage == "config"
    assert (copy / "results_proxy.csv").read_bytes() == before
    assert json.loads((copy / "config_used.json").read_text())["seed"] == 5
    # the report reads scenarios 0 .. n_out_of_sample-1, so keep that count
    run_pipeline(toy_config(system_path, profile_dir, copy, seed=6), stages=["report"],
                 force=True)
    assert json.loads((copy / "config_used.json").read_text())["seed"] == 6


def test_resume_refuses_a_removed_field(completed, toy_inputs, tmp_path):
    """An output directory written while ``time_limit`` was a config field
    carries it in ``config_used.json``: a resume names it, ``force`` runs."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    used = copy / "config_used.json"
    used.write_text(json.dumps({**json.loads(used.read_text()), "time_limit": None}))
    cfg = toy_config(system_path, profile_dir, copy)
    with pytest.raises(StageError, match=r"^\[config\] .*\(time_limit: None -> "
                                         r"'<missing>'\); use --force"):
        run_pipeline(cfg, stages=["report"])
    run_pipeline(cfg, stages=["report"], force=True)
    assert "time_limit" not in json.loads(used.read_text())


@pytest.mark.parametrize("name, stage, policy", [
    ("fmm_costs.json", "report", "both"), ("fmm_costs.json", "clear", "proxy"),
    ("training_meta.json", "clear", "datadriven"), ("config_used.json", "config", "both")])
def test_truncated_json_artifact_named(completed, toy_inputs, tmp_path, name, stage, policy):
    """A JSON artifact that does not parse fails its stage naming the file."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    data = (copy / name).read_bytes()
    (copy / name).write_bytes(data[:len(data) // 2])
    with pytest.raises(StageError, match=rf"^\[{stage}\] {re.escape(str(copy / name))}: "):
        run_pipeline(toy_config(system_path, profile_dir, copy, policy=policy),
                     stages=[stage if stage != "config" else "report"],
                     force=stage != "config")


@pytest.mark.parametrize("name, stage, policy", [
    ("fmm_costs.json", "report", "both"), ("fmm_costs.json", "clear", "proxy"),
    ("training_meta.json", "clear", "datadriven"), ("config_used.json", "config", "both")])
def test_non_object_json_artifact_named(completed, toy_inputs, tmp_path, name, stage, policy):
    """A JSON artifact that parses to something other than an object fails
    its stage naming the file."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / name).write_text("[1, 2]")
    with pytest.raises(StageError, match=rf"^\[{stage}\] {re.escape(str(copy / name))}: "
                                         r"the top level is not a JSON object$"):
        run_pipeline(toy_config(system_path, profile_dir, copy, policy=policy),
                     stages=[stage if stage != "config" else "report"],
                     force=stage != "config")


@pytest.mark.parametrize("name, edit, stage, policy, message", [
    ("fmm_costs.json", lambda d: {**d, "proxy": 1}, "report", "both",
     "'proxy' is not an object whose cost is a finite number"),
    ("fmm_costs.json", lambda d: {**d, "datadriven": {"cost": math.inf}}, "report", "both",
     "'datadriven' is not an object whose cost is a finite number"),
    ("training_meta.json", lambda d: dict.fromkeys(d, 1), "clear", "datadriven",
     "'{first}' is not an object whose train_mse is a finite number"),
    ("training_meta.json", lambda d: {g: {**v, "train_mse": math.nan} for g, v in d.items()},
     "clear", "datadriven", "'{first}' is not an object whose train_mse is a finite number"),
    ("training_meta.json", lambda d: {g: {**v, "test_mse": "0.1"} for g, v in d.items()},
     "clear", "datadriven",
     "'{first}' is not an object whose test_mse is a finite number or NaN"),
], ids=["cost-not-object", "cost-infinite", "fit-not-object", "train-mse-nan",
        "test-mse-string"])
def test_json_artifact_entry_named(completed, toy_inputs, tmp_path, name, edit, stage,
                                   policy, message):
    """An entry of a JSON artifact that its stage reads must be an object
    holding finite numbers; the refusal names the file and the entry."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    raw = json.loads((copy / name).read_text())
    (copy / name).write_text(json.dumps(edit(raw)))
    message = re.escape(f"{copy / name}: " + message.format(first=next(iter(raw))))
    with pytest.raises(StageError, match=rf"^\[{stage}\] {message}$"):
        run_pipeline(toy_config(system_path, profile_dir, copy, policy=policy),
                     stages=[stage], force=True)


def test_training_meta_keeps_nan_test_mse(completed, tmp_path):
    """A generator with no test rows has a NaN test error, which clear reads."""
    _, out, _ = completed
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    meta = json.loads((copy / "training_meta.json").read_text())
    (copy / "training_meta.json").write_text(json.dumps(
        {g: {**v, "test_mse": math.nan} for g, v in meta.items()}))
    models = pipeline._read_models(copy)
    assert sorted(models) == sorted(map(int, meta))
    assert all(math.isnan(m.test_mse) for m in models.values())
    assert [m.train_mse for m in models.values()] == [v["train_mse"] for v in meta.values()]


def test_report_lists_only_the_runs_fmm_costs(completed, toy_inputs, tmp_path):
    """A proxy-only report over a directory that cleared both policies does
    not carry the data-driven clearing cost left in ``fmm_costs.json``."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    run_pipeline(toy_config(system_path, profile_dir, copy, policy="proxy"),
                 stages=["report"], force=True)
    report = json.loads((copy / "report.json").read_text())
    costs = json.loads((copy / "fmm_costs.json").read_text())
    assert list(costs) == ["proxy", "datadriven"]
    assert report["fmm_costs"] == {"proxy": costs["proxy"]["cost"]}


def test_cli_non_object_config_used_exit_three(completed, toy_inputs, tmp_path, capsys):
    """A resumed ``config_used.json`` that is no object is a stage error
    (exit 3), not an unexpected failure (exit 4)."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "config_used.json").write_text("[1, 2]")
    path = tmp_path / "cfg.json"
    _config_file(toy_config(system_path, profile_dir, copy), path)
    assert cli_main(["report", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"[config] {copy / 'config_used.json'}: ")


def test_resumed_report_reproduces_the_run_byte_for_byte(completed, toy_inputs):
    """The report stage reads the validation results back from disk in a
    fresh run too, so rerunning it alone over a finished run changes nothing."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    names = ["report.json", *TABLES]
    before = {name: (out / name).read_bytes() for name in names}
    run_pipeline(toy_config(system_path, profile_dir, out), stages=["report"], force=True)
    for name in names:
        assert (out / name).read_bytes() == before[name], name


def _keep_rows(n):
    """Cut a CSV artifact to its header and first ``n`` rows."""
    def edit(path):
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:n + 1]))
    return edit


def _repeat_row(i):
    def edit(path):
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([*lines[:i + 2], *lines[i + 1:]]))
    return edit


def _set_line(n, text):
    """Replace line ``n`` (1-based) of a CSV artifact by ``text``."""
    def edit(path):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[n - 1] = text.encode() + b"\r\n"
        path.write_bytes(b"".join(lines))
    return edit


def _repeat_last_column(path):
    """Give every line of a CSV artifact a second copy of its last cell."""
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"".join(ln + b"," + ln.rsplit(b",", 1)[-1] + b"\r\n" for ln in lines))


def _swap_lines(n):
    """Swap lines ``n`` and ``n + 1`` (1-based) of a CSV artifact."""
    def edit(path):
        lines = path.read_bytes().splitlines(keepends=True)
        lines[n - 1], lines[n] = lines[n], lines[n - 1]
        path.write_bytes(b"".join(lines))
    return edit


@pytest.mark.parametrize("name, edit, stage, message", [
    # 4 generators x 96 intervals; generator 2 stops after interval 6
    ("awards_proxy.csv", _keep_rows(199), "validate",
     "{path} has no row for generator 2, interval 7; rerun clear"),
    ("awards_datadriven.csv", _repeat_row(5), "validate",
     "{path} line 8 holds generator 0, interval 5 where generator 0, interval 6 belongs; "
     "rerun clear"),
    # 4 generators x 24 hours; generator 2 stops after hour 0
    ("da_commitments.csv", _keep_rows(49), "validate",
     "{path} has no row for generator 2, hour 1; rerun prepare"),
    ("intervals_proxy.csv", _keep_rows(150), "report",
     "{path} has no row for scenario_id 1, interval 54; rerun validate"),
    ("results_datadriven.csv", _keep_rows(0), "report",
     "{path} has no row for scenario_id 0; rerun validate"),
    ("fmm_costs.json", lambda path: path.write_text('{"proxy": {"cost": 1.0}}'), "report",
     "fmm_costs.json has no datadriven cost; run clear"),
    ("da_commitments.csv", _set_line(1, "generator,hour,u,dispatch"), "clear",
     "{path} line 1 has no dispatch_mw column; rerun prepare"),
    ("da_commitments.csv", _set_line(2, "0,0,x,0.0"), "clear",
     "{path} line 2, column u: cannot read 'x'; rerun prepare"),
    ("awards_proxy.csv", _set_line(3, "0,1"), "validate",
     "{path} line 3: row length 2, header length 6; rerun clear"),
    ("intervals_datadriven.csv", _set_line(4, "0,datadriven,two,1.0,0.0"), "report",
     "{path} line 4, column interval: cannot read 'two'; rerun validate"),
    # refused for the first time by the one CSV reader
    ("awards_proxy.csv", _set_line(2, "0,0,nan,1,0.0,0.0"), "validate",
     "{path} line 2, column p: 'nan' is not finite; rerun clear"),
    ("results_datadriven.csv", _set_line(3, "1,datadriven,inf,0.0,0,1.0"), "report",
     "{path} line 3, column rt_cost_excl_violation: 'inf' is not finite; rerun validate"),
    # an unquoted "1,000.5" read as two cells would load 1 MW
    ("da_commitments.csv", _set_line(2, "0,0,1,1,000.5"), "clear",
     "{path} line 2: row length 5, header length 4; rerun prepare"),
    ("intervals_proxy.csv", _swap_lines(2), "report",
     "{path} line 2 holds scenario_id 0, interval 1 where scenario_id 0, interval 0 "
     "belongs; rerun validate"),
    ("results_proxy.csv", lambda path: path.write_bytes(
        path.read_bytes() + path.read_bytes().splitlines(keepends=True)[-1]), "report",
     "{path} line 4 holds scenario_id 1 where no row belongs; rerun validate"),
    # read by name, the last copy of a repeated column would load silently
    ("da_commitments.csv", _repeat_last_column, "clear",
     "{path} line 1 names column dispatch_mw twice; rerun prepare"),
], ids=["awards-prefix", "awards-repeat", "da-prefix", "intervals-prefix", "results-empty",
        "fmm-costs-policy", "da-column", "da-cell", "awards-short-row", "intervals-key",
        "awards-nan", "results-inf", "da-long-row", "intervals-order", "results-extra-row",
        "da-repeated-column"])
def test_incomplete_artifact_refused(completed, toy_inputs, tmp_path, name, edit, stage,
                                     message):
    """A reader takes every cell of its file exactly once, in order, or fails
    naming the file and the first missing, repeated, unreadable, non-finite
    or misplaced column, line or cell."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy / name)
    message = re.escape(message.format(path=copy / name))
    with pytest.raises(StageError, match=rf"^\[{stage}\] {message}$"):
        run_pipeline(toy_config(system_path, profile_dir, copy), stages=[stage],
                     force=True)


def test_models_without_training_meta_are_retrained(completed, toy_inputs, tmp_path):
    """``training_meta.json`` marks the train stage done: a models directory
    left by an interrupted run is refused by clear and retrained by train."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    models = sorted(p.name for p in (copy / "models").glob("gen_*.npz"))
    assert len(models) > 1
    (copy / "training_meta.json").unlink()
    for name in models[1:]:
        (copy / "models" / name).unlink()
    cfg = toy_config(system_path, profile_dir, copy)
    with pytest.raises(StageError, match=r"^\[clear\] training_meta\.json missing; "
                                         r"run train$"):
        run_pipeline(cfg, stages=["clear"], force=True)
    run_pipeline(cfg, stages=["train"])
    assert sorted(p.name for p in (copy / "models").glob("gen_*.npz")) == models
    assert (copy / "training_meta.json").read_bytes() == (out / "training_meta.json"
                                                          ).read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda models, first: (models / first).unlink(), "models/{first} missing; rerun train"),
    (lambda models, first: shutil.copy(models / first, models / "gen_99.npz"),
     "models/gen_99.npz is not listed in training_meta.json; rerun train"),
], ids=["missing", "unlisted"])
def test_clear_reads_exactly_the_listed_models(completed, toy_inputs, tmp_path, edit,
                                               message):
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    first = sorted(os.listdir(copy / "models"))[0]
    edit(copy / "models", first)
    message = re.escape(message.format(first=first))
    with pytest.raises(StageError, match=rf"^\[clear\] {message}$"):
        run_pipeline(toy_config(system_path, profile_dir, copy, policy="datadriven"),
                     stages=["clear"], force=True)


def test_interrupted_train_resumes_to_the_uninterrupted_outputs(completed, toy_inputs,
                                                                tmp_path, monkeypatch):
    """A train stage that fails while it writes its second model file leaves
    no ``training_meta.json``, so a resume fits again and reproduces the
    models, factors and awards of a run that was never interrupted."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    cfg = toy_config(system_path, profile_dir, copy)
    replace, written = pipeline._replace, []

    def fail_on_second_model(path, fill, binary=False):
        if path.suffix == ".npz":
            written.append(path.name)
            if len(written) == 2:
                def fill_then_fail(fh):
                    fill(fh)
                    raise OSError("disk full")
                return replace(path, fill_then_fail, binary)
        return replace(path, fill, binary)
    monkeypatch.setattr(pipeline, "_replace", fail_on_second_model)
    stages = ["prepare", "train", "clear"]
    with pytest.raises(StageError, match=r"^\[train\] disk full$"):
        run_pipeline(cfg, stages=stages)
    assert not (copy / "training_meta.json").exists()
    assert os.listdir(copy / "models") == written[:1]
    monkeypatch.setattr(pipeline, "_replace", replace)
    run_pipeline(cfg, stages=stages)
    models = sorted(os.listdir(out / "models"))
    assert sorted(os.listdir(copy / "models")) == models
    for name in (*(f"models/{m}" for m in models), "training_meta.json",
                 "response_factors.csv", "awards_datadriven.csv"):
        assert (copy / name).read_bytes() == (out / name).read_bytes(), name


def test_retrain_that_fits_fewer_generators_leaves_no_stale_model(
        completed, toy_inputs, tmp_path, monkeypatch):
    """A forced retrain starts from an empty models directory, so clear
    predicts no factors from the model of a generator the new fit skipped."""
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    train, kept = learner.train, []

    def train_one_fewer(*args, **kw):
        models = train(*args, **kw)
        del models[max(models)]
        kept.extend(models)
        return models
    monkeypatch.setattr(learner, "train", train_one_fewer)
    before = json.loads((copy / "training_meta.json").read_text())
    run_pipeline(toy_config(system_path, profile_dir, copy, policy="datadriven"),
                 stages=["train", "clear"], force=True)
    assert len(kept) == len(before) - 1 >= 1
    assert sorted(os.listdir(copy / "models")) == sorted(f"gen_{g}.npz" for g in kept)
    assert json.loads((copy / "training_meta.json").read_text()).keys() == {
        str(g) for g in kept}
    with open(copy / "response_factors.csv", newline="") as fh:
        assert {int(row["generator"]) for row in csv.DictReader(fh)} == set(kept)


def test_failed_write_leaves_no_file(tmp_path):
    def rows():
        yield [1, 2]
        raise RuntimeError("disk full")
    path = tmp_path / "a.csv"
    with pytest.raises(RuntimeError, match="disk full"):
        pipeline._write_csv(path, ["x", "y"], rows())
    assert list(tmp_path.iterdir()) == []
    path.write_text("old")
    with pytest.raises(RuntimeError, match="disk full"):
        pipeline._write_csv(path, ["x", "y"], rows())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old"


def test_report_refuses_missing_interval_file(completed, toy_inputs, tmp_path):
    """A report rerun over results without their per-interval file fails
    instead of filling the quartile table with zeros."""
    import shutil

    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / "intervals_proxy.csv").unlink()
    with pytest.raises(StageError, match=r"\[report\] intervals_proxy\.csv missing"):
        run_pipeline(toy_config(system_path, profile_dir, copy),
                     stages=["report"], force=True)


def test_stage_error_pickles_with_message_and_stage():
    err = pickle.loads(pickle.dumps(StageError("validate", "proxy scenario 3: boom")))
    assert isinstance(err, StageError)
    assert str(err) == "[validate] proxy scenario 3: boom"
    assert err.stage == "validate"


# --------------------------------------------------------- scenario-day pool

def _infeasible_at_hour_2(build, index):
    """Wrap an hour builder so that hour 2 of the scenario whose seed_info
    ends in ``index=<index>`` demands more than generator 0 can make."""

    def build_hour(*args, **kw):
        handle = build(*args, **kw)
        horizon = next(a for a in args if isinstance(a, fmm.FmmHorizon))
        scenario = next(a for a in args if isinstance(a, Scenario))
        if horizon.start == 8 and scenario.seed_info.endswith(f"index={index}"):
            handle.model.add_rows([Rows("over_pmax", (0,),
                                        terms=[(handle.builder.p[0, 0], 1.0)], lo=1e6)])
        return handle
    return build_hour


# HiGHS's status, which a failed hour carries as the day-ahead's failure does
_INFEASIBLE = (r" \(The problem is infeasible\. \(HiGHS Status 8: model_status is "
               r"Infeasible; primal_status is None\)\)$")


def test_pool_size_follows_usable_cpus():
    assert pipeline._pool_size(1) == 1
    assert pipeline._pool_size(10**6) == len(os.sched_getaffinity(0))


def test_failing_validation_day_names_stage_policy_and_scenario(
        completed, toy_inputs, tmp_path, monkeypatch):
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    monkeypatch.setattr(validation, "build_rtuc_hour",
                        _infeasible_at_hour_2(validation.build_rtuc_hour, 1))
    monkeypatch.setattr(pipeline, "_pool_size", lambda n: 2)
    with pytest.raises(StageError, match=r"^\[validate\] proxy scenario 1: proxy hour 2, "
                                         r"scenario 1: solve ended infeasible"
                                         + _INFEASIBLE) as info:
        run_pipeline(toy_config(system_path, profile_dir, copy),
                     stages=["validate"], force=True)
    assert info.value.stage == "validate"
    # the worker's error crossed the process boundary intact
    assert isinstance(info.value.__cause__, HourSolveError)
    assert (info.value.__cause__.policy, info.value.__cause__.scenario) == ("proxy", 1)


def test_failing_training_day_names_its_scenario(completed, toy_inputs, tmp_path,
                                                 monkeypatch):
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    monkeypatch.setattr(fmm, "build_fmm_training",
                        _infeasible_at_hour_2(fmm.build_fmm_training, 2))
    monkeypatch.setattr(pipeline, "_pool_size", lambda n: 2)
    with pytest.raises(StageError, match=r"^\[train\] training scenario 2: training hour 2, "
                                         r"scenario seed=5 kind=training index=2: "
                                         r"solve ended infeasible" + _INFEASIBLE) as info:
        run_pipeline(toy_config(system_path, profile_dir, copy),
                     stages=["train"], force=True)
    assert info.value.stage == "train"
    assert isinstance(info.value.__cause__, HourSolveError)


def test_worker_count_does_not_change_outputs(toy_inputs, tmp_path, monkeypatch):
    system_path, profile_dir = toy_inputs
    out = tmp_path / "out"
    names = ["awards_proxy.csv", "awards_datadriven.csv", "results_proxy.csv",
             "results_datadriven.csv", "intervals_proxy.csv",
             "intervals_datadriven.csv", "fmm_costs.json", "report.json"]
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "_pool_size", lambda n, w=workers: w)
        run_pipeline(toy_config(system_path, profile_dir, out))
        runs.append({name: (out / name).read_bytes() for name in names})
        shutil.rmtree(out)
    for name in names:
        assert runs[0][name] == runs[1][name], name


def test_failing_day_ahead_is_tagged_prepare(toy_inputs, tmp_path, monkeypatch):
    system_path, profile_dir = toy_inputs

    def failing_run_da(*args, **kw):
        raise RuntimeError("day-ahead solve failed: infeasible")
    monkeypatch.setattr(pipeline, "run_da", failing_run_da)
    with pytest.raises(StageError, match=r"^\[prepare\] day-ahead solve failed: "
                                         r"infeasible$") as info:
        run_pipeline(toy_config(system_path, profile_dir, tmp_path / "out"),
                     stages=["prepare"])
    assert info.value.stage == "prepare"


def test_failing_fit_is_tagged_train(completed, toy_inputs, tmp_path, monkeypatch):
    _, out, _ = completed
    system_path, profile_dir = toy_inputs
    copy = tmp_path / "out"
    shutil.copytree(out, copy)

    def failing_train(*args, **kw):
        raise FloatingPointError("loss is nan")
    monkeypatch.setattr(learner, "train", failing_train)
    monkeypatch.setattr(pipeline, "_pool_size", lambda n: 1)
    with pytest.raises(StageError, match=r"^\[train\] loss is nan$") as info:
        run_pipeline(toy_config(system_path, profile_dir, copy),
                     stages=["train"], force=True)
    assert info.value.stage == "train"
