"""Print a SHA-256 digest of every 118-bus market model the program builds.

Builds, on the bundled 118-bus system with the fixed benchmark inputs in
``perfbench/data/ieee118_inputs.npz`` (day-ahead schedule, data-driven
awards, response factors) at seed 7:

* the day-ahead model;
* the proxy, training, data-driven and validation hour models at trading
  hours 0, 10, 18 and 23, as built (no line rows yet).  Hour 23 is the
  only trading hour whose windows run past the last interval of the day,
  so it pins the edge padding of day series;
* one data-driven hour after its cut loop, with the line rows and
  post-deployment cuts the loop added.

Each digest covers the CSR constraint matrix (indptr, indices, data), the
row bounds, the objective, the column bounds, the integrality and the row
and column names.  Two trees that build the same models print the same
digests, so a refactor of the model layer can be checked with

    PYTHONPATH=src python scripts/model_digest.py > after.txt

run once on each tree and compared with ``diff``.  The models are read
through ``MilpModel``'s public accessors, except for the constraint matrix,
whose build refuses a row that lists a column twice.  Each model's build
time goes to stderr.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from frpsim import milp
from frpsim.dayahead import DaCommitments, build_da_model, initial_state_from_da
from frpsim.fmm import (FmmAwards, FmmConfig, FmmHorizon, build_fmm_datadriven,
                        build_fmm_proxy, build_fmm_training, solve_with_cuts)
from frpsim.learner import RampResponseFactors
from frpsim.milp import SolveOptions
from frpsim.network import compute_ptdf, load_system
from frpsim.scenarios import (OUT_OF_SAMPLE, TRAINING, UncertaintyConfig, load_profiles,
                              proxy_envelopes, sample_scenarios,
                              select_deployment_scenarios)
from frpsim.validation import build_rtuc_hour

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "frpsim" / "data"
INPUTS = ROOT / "perfbench" / "data" / "ieee118_inputs.npz"
SEED = 7
HOURS = (0, 10, 18, 23)
CUT_HOUR = 10           # the data-driven hour whose cut loop is run
OPTIONS = SolveOptions(mip_rel_gap=1e-3)


def digest(model: milp.MilpModel) -> str:
    """SHA-256 over everything that defines the model."""
    h = hashlib.sha256()
    if model.n_constrs:
        a, lo, hi = model._matrix()
        arrays = [a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data, lo, hi]
    else:
        arrays = []
    lb, ub = model.col_bounds
    arrays += [model.objective_vector(), lb, ub, model.integrality.astype(np.int8)]
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"|")
    h.update("\n".join(model.var_names).encode())
    h.update(b"|")
    h.update("\n".join(model.constr_names).encode())
    return h.hexdigest()


def load_inputs(system):
    data = np.load(INPUTS)
    ids = [int(g) for g in data["gen_ids"]]
    if ids != [g.id for g in system.generators]:
        raise SystemExit("stored inputs do not match the system's generators")
    da = DaCommitments(u_hourly={g: data["da_u"][i] for i, g in enumerate(ids)},
                       dispatch_hourly={g: data["da_p"][i] for i, g in enumerate(ids)},
                       objective=float(data["da_objective"]))
    awards = FmmAwards(gen_ids=ids, **{
        k: {g: data[f"awards_datadriven_{k}"][i] for i, g in enumerate(ids)}
        for k in ("p", "u", "ur", "dr")})
    factors = RampResponseFactors(values={
        int(g): data["factors"][i] for i, g in enumerate(data["factor_gen_ids"])})
    return da, awards, factors


def main() -> int:
    system = load_system(DATA / "ieee118.json")
    ptdf = compute_ptdf(system)
    profile = load_profiles(DATA / "profiles" / "day1", system.solar_units)
    da, awards, factors = load_inputs(system)
    unc = UncertaintyConfig(seed=SEED)
    envelope = proxy_envelopes(profile, unc, system.solar_units)
    deployment = select_deployment_scenarios(system, profile, unc, 2)
    train = sample_scenarios(system, profile, unc, 1, TRAINING)[0]
    oos = sample_scenarios(system, profile, unc, 1, OUT_OF_SAMPLE)[0]
    init = initial_state_from_da(system, da)
    cfg = FmmConfig()

    def horizon(hour):
        return FmmHorizon(start=4 * hour, init=init)

    builds = {"dayahead": lambda: build_da_model(system, profile)}
    for hour in HOURS:
        builds[f"proxy@{hour}"] = lambda h=hour: build_fmm_proxy(
            system, ptdf, profile, envelope, da, horizon(h), cfg)
        builds[f"training@{hour}"] = lambda h=hour: build_fmm_training(
            system, ptdf, train, da, horizon(h), cfg)
        builds[f"datadriven@{hour}"] = lambda h=hour: build_fmm_datadriven(
            system, ptdf, profile, envelope, da, horizon(h), factors, deployment, cfg)
        builds[f"validation@{hour}"] = lambda h=hour: build_rtuc_hour(
            system, ptdf, awards, da, oos, horizon(h))

    for name, build in builds.items():
        t0 = time.perf_counter()
        model = build().model
        ms = 1e3 * (time.perf_counter() - t0)
        print(f"{name:24s} {digest(model)}", flush=True)
        print(f"# {name}: built in {ms:.1f} ms", file=sys.stderr)
    handle = build_fmm_datadriven(system, ptdf, profile, envelope, da,
                                  horizon(CUT_HOUR), factors, deployment, cfg)
    t0 = time.perf_counter()
    _, cuts = solve_with_cuts(handle, OPTIONS)
    name = f"datadriven@{CUT_HOUR}+cuts"
    print(f"{name:24s} {digest(handle.model)}", flush=True)
    print(f"# cut loop: {len(cuts)} cuts, {len(handle.builder.lines)} line(s), "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0

if __name__ == "__main__":
    sys.exit(main())
