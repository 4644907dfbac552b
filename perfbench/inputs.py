"""Fixed upstream inputs of the benchmark: generation, storage and loading.

The 118-bus workloads start from a day-ahead commitment, proxy and
data-driven awards and ramp-response factors that the full pipeline would
produce.  Computing them costs minutes, so they are generated once by

    python3 perfbench/inputs.py

and kept under ``perfbench/data`` with a recorded SHA-256 per file.  Loading
refuses a file whose content no longer matches its recorded hash.  The same
command writes the 5-bus bottleneck case (system file and forecast day) and
then records, from one cycle of each workload at the default seed, the
reference values runs are checked against (``--reference-only`` re-records
just those).  The reference file is hashed in the manifest like the inputs.
"""

from __future__ import annotations

import env  # noqa: F401  (first: pins BLAS threads, puts src/ on sys.path)

import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from frpsim import dayahead, fmm, learner, network, pipeline, scenarios
from frpsim.network import Bus, GenerationResource, PowerSystem, SolarUnit, TransmissionLine
from frpsim.scenarios import ForecastProfile

ROOT = env.ROOT
DATA = Path(__file__).resolve().parent / "data"
MANIFEST = DATA / "manifest.json"
REFERENCE_FILE = "reference.json"
INPUTS_118 = "ieee118_inputs.npz"
CASE5_SYSTEM = "case5/system.json"
CASE5_DAY = "case5/day"
CONFIG_118 = ROOT / "configs" / "ieee118_day1.json"

DEFAULT_SEED = 7
# Full training days behind the fixed response factors.  With 6 days the
# clamped predictions made the data-driven day infeasible at hour 16.
MODEL_DAYS = 14


class InputError(RuntimeError):
    """Benchmark input data is missing or does not match its recorded hash."""


def config_118(seed: int = DEFAULT_SEED) -> pipeline.ExperimentConfig:
    """``configs/ieee118_day1.json`` with paths made absolute and the seed replaced."""
    raw = json.loads(CONFIG_118.read_text())
    raw.update(seed=seed, system_file=str(ROOT / raw["system_file"]),
               profile_dir=str(ROOT / raw["profile_dir"]))
    return pipeline.ExperimentConfig(**raw)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verified(rel: str) -> Path:
    """Path of a data file whose content matches the manifest."""
    if not MANIFEST.exists():
        raise InputError(f"missing {MANIFEST}")
    recorded = json.loads(MANIFEST.read_text())["files"]
    path = DATA / rel
    if rel not in recorded or not path.exists():
        raise InputError(f"benchmark input {rel} is missing")
    if sha256(path) != recorded[rel]:
        raise InputError(f"benchmark input {rel} does not match its recorded hash")
    return path


# ------------------------------------------------------------ 118-bus inputs

@dataclass
class Inputs118:
    da: dayahead.DaCommitments
    awards: dict[str, fmm.FmmAwards]
    factors: learner.RampResponseFactors
    da_objective: float


def load_118(system: PowerSystem) -> Inputs118:
    data = np.load(verified(INPUTS_118))
    ids = [int(g) for g in data["gen_ids"]]
    if ids != [g.id for g in system.generators]:
        raise InputError("stored inputs do not match the system's generators")
    da = dayahead.DaCommitments(
        u_hourly={g: data["da_u"][i] for i, g in enumerate(ids)},
        dispatch_hourly={g: data["da_p"][i] for i, g in enumerate(ids)},
        objective=float(data["da_objective"]),
    )
    awards = {}
    for policy in ("proxy", "datadriven"):
        arrays = {k: data[f"awards_{policy}_{k}"] for k in ("p", "u", "ur", "dr")}
        awards[policy] = fmm.FmmAwards(
            gen_ids=ids, **{k: {g: a[i] for i, g in enumerate(ids)}
                            for k, a in arrays.items()})
    factors = learner.RampResponseFactors(values={
        int(g): data["factors"][i] for i, g in enumerate(data["factor_gen_ids"])})
    return Inputs118(da=da, awards=awards, factors=factors,
                     da_objective=float(data["da_objective"]))


def _generate_118(log) -> dict:
    cfg = config_118()
    options = cfg.solve_options
    system = network.load_system(cfg.system_file)
    ptdf = network.compute_ptdf(system)
    profile = scenarios.load_profiles(cfg.profile_dir, system.solar_units)
    envelope = scenarios.proxy_envelopes(profile, cfg.uncertainty, system.solar_units)
    deployment = scenarios.select_deployment_scenarios(
        system, profile, cfg.uncertainty, cfg.n_deployment)
    ids = [g.id for g in system.generators]

    t0 = time.perf_counter()
    da, _, _ = dayahead.run_da(system, ptdf, profile, options=options, voll=cfg.voll)
    log(f"day-ahead solved in {time.perf_counter() - t0:.1f} s")

    # the models train on scenario streams the workloads never sample
    model_unc = scenarios.UncertaintyConfig(
        sigma_hourly_frac=cfg.sigma_hourly_frac, confidence_z=cfg.confidence_z,
        truncation_sigmas=cfg.truncation_sigmas, seed=10_000 + DEFAULT_SEED)
    days = scenarios.sample_scenarios(system, profile, model_unc, MODEL_DAYS,
                                      scenarios.TRAINING)
    pairs = []
    for i, scn in enumerate(days):
        t0 = time.perf_counter()
        pairs.append((scn, fmm.run_training_day(system, ptdf, scn, da, cfg.fmm, options)))
        log(f"training day {i} rolled in {time.perf_counter() - t0:.1f} s")
    dataset = learner.build_targets(pairs, system, seed=DEFAULT_SEED)
    models = learner.train(dataset, learner.TrainConfig(
        hidden=cfg.nn_hidden, epochs=cfg.nn_epochs, batch_size=cfg.nn_batch_size,
        learning_rate=cfg.nn_learning_rate, seed=DEFAULT_SEED))
    factors = learner.predict_factors(models, deployment)
    log(f"trained {len(models)} models on {len(dataset)} rows")

    runs = {}
    for policy in ("proxy", "datadriven"):
        t0 = time.perf_counter()
        runs[policy] = fmm.run_fmm_day(
            system, ptdf, profile, envelope, da, policy, cfg.fmm,
            factors=factors if policy == "datadriven" else None,
            deployment=deployment if policy == "datadriven" else None,
            options=options)
        log(f"{policy} day cleared in {time.perf_counter() - t0:.1f} s")

    arrays = {
        "gen_ids": np.array(ids),
        "da_u": np.array([da.u_hourly[g] for g in ids]),
        "da_p": np.array([da.dispatch_hourly[g] for g in ids]),
        "da_objective": np.array(da.objective),
        "factor_gen_ids": np.array(factors.gen_ids()),
        "factors": np.array([factors.values[g] for g in factors.gen_ids()]),
    }
    for policy, run in runs.items():
        for k in ("p", "u", "ur", "dr"):
            arrays[f"awards_{policy}_{k}"] = np.array(
                [getattr(run.awards, k)[g] for g in ids])
    np.savez_compressed(DATA / INPUTS_118, **arrays)
    return {"model_days": MODEL_DAYS, "model_rows": len(dataset),
            "models": len(models), "da_objective": da.objective,
            "fmm_day_cost": {p: r.cost for p, r in runs.items()},
            "fmm_day_cuts": len(runs["datadriven"].cuts)}


# ---------------------------------------------------- 5-bus bottleneck case
# The case study of the acceptance gate: a cheap fast-ramping unit stranded
# behind a tight line.  The builders mirror the test suite's fixtures so the
# benchmark owns its copy of the data.

def _gen(gid, bus, p_min, p_max, slope, ramp, startup, min_up=1, min_down=1,
         frp_up=0.5, frp_down=0.5, fast_start=False) -> GenerationResource:
    return GenerationResource(
        id=gid, bus=bus, p_min=p_min, p_max=p_max,
        cost_blocks=((p_max - p_min, slope),),
        no_load_cost=5.0 + p_min * slope * 0.25, startup_cost=startup,
        shutdown_cost=20.0, ramp_15=ramp, ramp_su=max(p_min, p_min + 0.5 * ramp),
        ramp_sd=max(p_min, p_min + 0.5 * ramp), min_up=min_up,
        min_down=min_down, frp_up_cost=frp_up, frp_down_cost=frp_down,
        is_fast_start=fast_start,
    )


def bottleneck_system() -> PowerSystem:
    big = 5000.0
    lines = (
        TransmissionLine(0, 0, 1, 0.10, 300.0),   # the bottleneck
        TransmissionLine(1, 0, 2, 0.08, big),
        TransmissionLine(2, 0, 4, 0.09, big),
        TransmissionLine(3, 2, 3, 0.08, big),
        TransmissionLine(4, 2, 4, 0.11, big),
    )
    gens = (
        _gen(0, 1, 40.0, 400.0, 18.0, 150.0, 800.0, 4, 4, frp_up=0.1, frp_down=0.6),
        _gen(1, 0, 50.0, 450.0, 30.0, 80.0, 900.0, 4, 4),
        _gen(2, 4, 50.0, 500.0, 34.0, 120.0, 900.0, 4, 4, frp_up=0.5, frp_down=0.2),
        _gen(3, 3, 5.0, 50.0, 85.0, 50.0, 150.0, fast_start=True),
    )
    return PowerSystem(tuple(Bus(i) for i in range(5)), lines, gens,
                       (SolarUnit(0, 4, 40.0, 1.0),),
                       np.array([0.0, 0.0, 0.5, 0.3, 0.2]), slack_bus=0)


def bottleneck_profile() -> ForecastProfile:
    """Duck-shaped load with a midday solar hump on the one solar unit."""
    t = np.arange(96) / 4.0
    base, swing, solar_peak = 950.0, 150.0, 40.0
    load = (base
            + swing * np.exp(-((t - 19.5) / 2.8) ** 2)
            + 0.4 * swing * np.exp(-((t - 9.0) / 3.0) ** 2)
            - 0.6 * swing * np.exp(-((t - 3.5) / 3.0) ** 2))
    sun = np.clip(np.cos((t - 12.8) / 6.4 * np.pi), 0.0, None)
    solar = solar_peak * sun ** 1.3
    solar[(t < 6.5) | (t > 19.0)] = 0.0
    load, solar = np.round(load, 3), np.round(solar, 3)[None, :]
    return ForecastProfile(label="case5", hourly_load=load.reshape(24, 4).mean(axis=1),
                           load15=load, solar_hourly=solar.reshape(1, 24, 4).mean(axis=2),
                           solar15=solar)


def _write_case5() -> None:
    system = bottleneck_system()
    doc = {
        "name": "case5-bottleneck",
        "slack_bus": system.slack_bus,
        "buses": [{"id": b.id, "name": f"bus{b.id}"} for b in system.buses],
        "lines": [{"id": ln.id, "from_bus": ln.from_bus, "to_bus": ln.to_bus,
                   "reactance": ln.reactance, "rating": ln.rating}
                  for ln in system.lines],
        "generators": [
            {"id": g.id, "bus": g.bus, "p_min": g.p_min, "p_max": g.p_max,
             "cost_blocks": [list(b) for b in g.cost_blocks],
             "no_load_cost": g.no_load_cost, "startup_cost": g.startup_cost,
             "shutdown_cost": g.shutdown_cost, "ramp_15": g.ramp_15,
             "ramp_su": g.ramp_su, "ramp_sd": g.ramp_sd, "min_up": g.min_up,
             "min_down": g.min_down, "frp_up_cost": g.frp_up_cost,
             "frp_down_cost": g.frp_down_cost, "is_fast_start": g.is_fast_start}
            for g in system.generators],
        "solar": [{"id": s.id, "bus": s.bus, "capacity": s.capacity,
                   "share_of_total": s.share_of_total} for s in system.solar_units],
        "participation": {str(i): float(w)
                          for i, w in enumerate(system.load_participation) if w > 0},
    }
    path = DATA / CASE5_SYSTEM
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    profile = bottleneck_profile()
    day = DATA / CASE5_DAY
    day.mkdir(parents=True, exist_ok=True)
    for name, load, solar in (("fifteen_min.csv", profile.load15, profile.solar15[0]),
                              ("hourly.csv", profile.hourly_load, profile.solar_hourly[0])):
        with open(day / name, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["interval_index", "load_mw", "solar_total_mw"])
            for i, (lv, sv) in enumerate(zip(load, solar)):
                writer.writerow([i, repr(float(lv)), repr(float(sv))])


def case5_paths() -> tuple[Path, Path]:
    """Verified system file and profile directory of the 5-bus case."""
    system = verified(CASE5_SYSTEM)
    for name in ("fifteen_min.csv", "hourly.csv"):
        verified(f"{CASE5_DAY}/{name}")
    return system, DATA / CASE5_DAY


def _write_manifest(meta: dict) -> None:
    """Record the hash of every data file present, and how the inputs were made."""
    files = [INPUTS_118, CASE5_SYSTEM, REFERENCE_FILE] + [
        f"{CASE5_DAY}/{n}" for n in ("fifteen_min.csv", "hourly.csv")]
    MANIFEST.write_text(json.dumps({
        "files": {rel: sha256(DATA / rel) for rel in files if (DATA / rel).exists()},
        "seed": DEFAULT_SEED,
        "config": str(CONFIG_118.relative_to(ROOT)),
        "generation": meta,
    }, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    import argparse

    import workloads

    ap = argparse.ArgumentParser(description="Generate the benchmark's fixed inputs.")
    ap.add_argument("--reference-only", action="store_true",
                    help="keep the inputs; re-record the reference values only")
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if args.reference_only:
        meta = json.loads(MANIFEST.read_text())["generation"]
    else:
        DATA.mkdir(parents=True, exist_ok=True)
        (DATA / REFERENCE_FILE).unlink(missing_ok=True)
        _write_case5()
        meta = _generate_118(log)
        _write_manifest(meta)
        log("inputs written; recording reference values")
    workloads.record_reference(log)
    _write_manifest(meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
