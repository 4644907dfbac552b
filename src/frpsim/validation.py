"""Out-of-sample rolling validation and policy comparison metrics.

One validation run re-dispatches a full day against a realized scenario,
hour by hour: must-run units keep their day-ahead commitment and may move
between intervals only within the ramping awards they were sold, fast-start
units may be committed ad hoc, and any residual imbalance is priced at VOLL.
Only the four binding intervals of each hour feed metrics and the chained
state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .dayahead import DaCommitments
from .fmm import FmmAwards, FmmConfig, FmmHandle, FmmHorizon, _base_builder, roll_day
from .milp import SolveOptions
from .network import PowerSystem, PtdfMatrix
from .scenarios import INTERVALS_PER_DAY, OUT_OF_SAMPLE, Scenario, window

PROXY = "proxy"
DATADRIVEN = "datadriven"


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


# ------------------------------------------------------------------ metrics

@dataclass
class MetricsReport:
    """Paired per-scenario results plus the aggregate comparison statistics."""

    proxy: list[ScenarioResult]
    datadriven: list[ScenarioResult]
    improvements: dict[str, int] = field(default_factory=dict)
    aggregates: dict[str, dict[str, float]] = field(default_factory=dict)
    interval_improvement_q1: np.ndarray | None = None
    interval_improvement_median: np.ndarray | None = None
    interval_improvement_q3: np.ndarray | None = None
    fmm_cost: dict[str, float] = field(default_factory=dict)

    @property
    def n_scenarios(self) -> int:
        return len(self.proxy)


_METRICS = {
    "rt_cost_excl_violation": lambda r: r.rt_cost_excl_violation,
    "total_violation_mwh": lambda r: r.total_violation_mwh,
    "fs_commitments": lambda r: float(r.fs_commitment_count),
    "total_cost": lambda r: r.total_cost,
}


def policy_aggregates(results: list[ScenarioResult]) -> dict[str, dict[str, float]]:
    """avg/sum/max over scenarios of each per-scenario metric of one policy."""
    out = {}
    for name, getter in _METRICS.items():
        vals = np.array([getter(r) for r in results])
        out[name] = {"avg": float(vals.mean()), "sum": float(vals.sum()),
                     "max": float(vals.max())}
    return out


def aggregate_metrics(proxy: list[ScenarioResult], datadriven: list[ScenarioResult],
                      fmm_cost: dict[str, float] | None = None) -> MetricsReport:
    """Pairwise comparison of the two policies on identical scenario sets."""
    if len(proxy) != len(datadriven):
        raise ValueError("policies were evaluated on different scenario counts")
    if not proxy:
        raise ValueError("empty scenario set")
    for a, b in zip(proxy, datadriven):
        if a.scenario_id != b.scenario_id:
            raise ValueError("scenario pairing mismatch between policies")
    report = MetricsReport(proxy=proxy, datadriven=datadriven,
                           fmm_cost=dict(fmm_cost or {}))
    # scenarios where the data-driven policy is strictly lower; total cost
    # is compared through the aggregates only
    report.improvements = {
        name: sum(getter(b) < getter(a) for a, b in zip(proxy, datadriven))
        for name, getter in list(_METRICS.items())[:3]
    }
    for policy, results in ((PROXY, proxy), (DATADRIVEN, datadriven)):
        for name, stats in policy_aggregates(results).items():
            report.aggregates[f"{policy}.{name}"] = stats
    gains = np.stack([
        a.interval_cost - b.interval_cost for a, b in zip(proxy, datadriven)
    ])  # positive: data-driven cheaper at that interval
    report.interval_improvement_q1 = np.quantile(gains, 0.25, axis=0)
    report.interval_improvement_median = np.quantile(gains, 0.5, axis=0)
    report.interval_improvement_q3 = np.quantile(gains, 0.75, axis=0)
    return report


@dataclass(frozen=True)
class ComparisonRow:
    table: str
    metric: str
    proxy: float
    datadriven: float


def compare_policies(report: MetricsReport) -> list[ComparisonRow]:
    """Flatten the report into the comparison-table families."""
    if not report.proxy:
        raise ValueError("report is empty")
    rows: list[ComparisonRow] = []
    n = float(report.n_scenarios)
    for metric, count in report.improvements.items():
        rows.append(ComparisonRow("improvements", f"scenarios_improved.{metric}",
                                  n, float(count)))
    for stat in ("avg", "sum", "max"):
        rows.append(ComparisonRow(
            "violations", f"total_violation_mwh.{stat}",
            report.aggregates[f"{PROXY}.total_violation_mwh"][stat],
            report.aggregates[f"{DATADRIVEN}.total_violation_mwh"][stat],
        ))
    if report.fmm_cost:
        rows.append(ComparisonRow(
            "costs", "fmm_operating_cost",
            report.fmm_cost.get(PROXY, float("nan")),
            report.fmm_cost.get(DATADRIVEN, float("nan")),
        ))
    for stat in ("avg", "max"):
        rows.append(ComparisonRow(
            "costs", f"rt_cost_excl_violation.{stat}",
            report.aggregates[f"{PROXY}.rt_cost_excl_violation"][stat],
            report.aggregates[f"{DATADRIVEN}.rt_cost_excl_violation"][stat],
        ))
        rows.append(ComparisonRow(
            "costs", f"total_cost.{stat}",
            report.aggregates[f"{PROXY}.total_cost"][stat],
            report.aggregates[f"{DATADRIVEN}.total_cost"][stat],
        ))
    for stat in ("sum", "avg", "max"):
        rows.append(ComparisonRow(
            "fs_commitments", f"fs_commitments.{stat}",
            report.aggregates[f"{PROXY}.fs_commitments"][stat],
            report.aggregates[f"{DATADRIVEN}.fs_commitments"][stat],
        ))
    return rows


# ------------------------------------------------------------------ persist

def write_results_csv(results: list[ScenarioResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "scenario_id", "policy", "rt_cost_excl_violation",
            "total_violation_mwh", "fs_commitments", "total_cost",
        ])
        for r in results:
            writer.writerow([
                r.scenario_id, r.policy, f"{r.rt_cost_excl_violation:.6f}",
                f"{r.total_violation_mwh:.6f}", r.fs_commitment_count,
                f"{r.total_cost:.6f}",
            ])


def write_interval_csv(results: list[ScenarioResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "policy", "interval", "cost",
                         "violation_mwh"])
        for r in results:
            for t in range(len(r.interval_cost)):
                writer.writerow([
                    r.scenario_id, r.policy, t,
                    f"{r.interval_cost[t]:.6f}",
                    f"{r.interval_violation_mwh[t]:.6f}",
                ])
