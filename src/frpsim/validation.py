"""Out-of-sample rolling validation of one policy's awards.

One validation run re-dispatches a full day against a realized scenario,
hour by hour: must-run units keep their day-ahead commitment and may move
between intervals only within the ramping awards they were sold, fast-start
units may be committed ad hoc, and any residual imbalance is priced at VOLL.
Only the four binding intervals of each hour feed metrics and the chained
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dayahead import DaCommitments
from .fmm import DATADRIVEN, PROXY  # noqa: F401  (the policy names, also read from here)
from .fmm import FmmAwards, FmmConfig, FmmHandle, FmmHorizon, _base_builder, roll_day
from .milp import SolveOptions
from .network import PowerSystem, PtdfMatrix
from .scenarios import INTERVALS_PER_DAY, OUT_OF_SAMPLE, Scenario, window


@dataclass(frozen=True)
class ValidationConfig:
    voll: float = 10000.0          # $/MWh
    solve: SolveOptions = field(default_factory=SolveOptions)


@dataclass
class ScenarioResult:
    """Metrics of one policy on one out-of-sample scenario day."""

    scenario_id: int
    policy: str
    rt_cost_excl_violation: float
    total_violation_mwh: float
    fs_commitment_count: int
    total_cost: float
    interval_cost: np.ndarray          # (96,) $, excluding violation
    interval_violation_mwh: np.ndarray  # (96,)


def build_rtuc_hour(system: PowerSystem, ptdf: PtdfMatrix, awards: FmmAwards,
                    da: DaCommitments, scenario: Scenario, horizon: FmmHorizon,
                    voll: float = 10000.0) -> FmmHandle:
    """One validation hour against the realized scenario.

    Must-run moves are capped by the awards sold at each boundary, and
    scheduled shutdowns beyond the window must stay reachable within the
    downward awards held along the way.
    """
    start, length = horizon.start, horizon.length
    ur, dr = (np.array([held[g.id] for g in system.generators], dtype=float)
              for held in (awards.ur, awards.dr))
    # entry t caps the move into interval t by the award held from t-1;
    # fast-start units keep their ramp rate
    fast = np.array([[g.is_fast_start] for g in system.generators])
    rate = np.array([[g.ramp_15] for g in system.generators])
    cfg = FmmConfig(voll=voll)
    builder = _base_builder(system, scenario.system_load, scenario.solar, da, horizon, cfg,
                            up=np.where(fast, rate, window(ur, start - 1, length)),
                            dn=np.where(fast, rate, window(dr, start - 1, length)),
                            budget=window(dr, 0, INTERVALS_PER_DAY))
    return FmmHandle(builder=builder, ptdf=ptdf, horizon=horizon, cfg=cfg)


def run_rtuc_validation(system: PowerSystem, ptdf: PtdfMatrix, awards: FmmAwards,
                        da: DaCommitments, scenario: Scenario, scenario_id: int,
                        policy: str, cfg: ValidationConfig | None = None) -> ScenarioResult:
    """Roll the 7-interval RTUC over the day against one realized scenario."""
    cfg = cfg or ValidationConfig()
    if scenario.kind != OUT_OF_SAMPLE:
        raise ValueError("validation expects an out-of-sample scenario")
    traj = roll_day(system, da,
                    lambda horizon: build_rtuc_hour(system, ptdf, awards, da, scenario,
                                                    horizon, cfg.voll),
                    policy, scenario=scenario_id, options=cfg.solve)
    excl, viol = float(traj.cost.sum()), float(traj.violation_mwh.sum())
    return ScenarioResult(
        scenario_id=scenario_id,
        policy=policy,
        rt_cost_excl_violation=excl,
        total_violation_mwh=viol,
        fs_commitment_count=int(traj.u[[g.is_fast_start for g in system.generators]].sum()),
        total_cost=excl + cfg.voll * viol,
        interval_cost=traj.cost,
        interval_violation_mwh=traj.violation_mwh,
    )
