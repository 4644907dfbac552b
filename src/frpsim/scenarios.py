"""Forecast profiles, Monte Carlo scenario sampling, and forecast envelopes.

Errors are independent truncated Gaussians per interval and per quantity with
standard deviation proportional to the forecast value.  Each error is the
truncated Gaussian's inverse CDF at one uniform draw: a scenario's generator
gives its 96 load errors, then its solar errors unit by unit.  The hourly
fraction is twice the 15-min fraction, so the sum of four independent 15-min
errors has the hourly spread.  Nodal loads are a fixed participation split of
the system load, so load errors are perfectly correlated across buses.

Every per-interval series of the day is a plain ``(..., 96)`` array; the
markets read a stretch of one through ``window``, which holds the rule for
indices before the first interval or past the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import log1p, log_ndtr, ndtr, ndtri, ndtri_exp

from .network import PowerSystem, SolarUnit, read_csv

HOURS_PER_DAY = 24
INTERVALS_PER_DAY = 96

TRAINING = "training"
DEPLOYMENT = "deployment"
OUT_OF_SAMPLE = "out_of_sample"
_KINDS = {TRAINING: 1, DEPLOYMENT: 2, OUT_OF_SAMPLE: 3}


class ProfileError(ValueError):
    """Malformed profile file."""


def window(day: np.ndarray, first: int, n: int) -> np.ndarray:
    """Entries ``first .. first+n-1`` along the last axis of a day series.

    The one edge-padding rule of the 15-min grid: an index before the first
    interval reads the first interval, one past the last reads the last.
    """
    return day[..., np.clip(np.arange(first, first + n), 0, day.shape[-1] - 1)]


def netload(load: np.ndarray, solar: np.ndarray) -> np.ndarray:
    """System load (T,) less the summed output of the solar units (n_units, T)."""
    return load - solar.sum(axis=0)


@dataclass(frozen=True)
class ForecastProfile:
    """One day of hourly and 15-min system load and per-solar-unit output."""

    label: str
    hourly_load: np.ndarray          # (24,)
    load15: np.ndarray               # (96,)
    solar_hourly: np.ndarray         # (n_units, 24)
    solar15: np.ndarray              # (n_units, 96)

    @property
    def n_solar(self) -> int:
        return self.solar15.shape[0]


@dataclass(frozen=True)
class UncertaintyConfig:
    """Forecast-error model: ~5% hourly spread, 95% envelopes, +-3 sigma truncation."""

    sigma_hourly_frac: float = 0.05
    confidence_z: float = 1.96
    truncation_sigmas: float = 3.0
    seed: int = 0

    @property
    def sigma_15min_frac(self) -> float:
        # hourly sigma is exactly twice the 15-min sigma
        return self.sigma_hourly_frac / 2.0

    def __post_init__(self):
        if self.confidence_z <= 0:
            raise ValueError("confidence_z must be positive")
        if self.sigma_hourly_frac < 0:
            raise ValueError("sigma_hourly_frac must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """One sampled (or quantile-placed) realization of the day.

    Nodal loads are not materialized: they are the fixed participation split
    of the system load (``network.nodal_injections``).
    """

    kind: str
    system_load: np.ndarray    # (96,)
    solar: np.ndarray          # (n_units, 96)
    seed_info: str
    quantile_z: float | None = None  # deployment scenarios only


@dataclass(frozen=True)
class ProxyEnvelope:
    """Confidence envelopes around the 15-min forecast used by the proxy policy."""

    load_min: np.ndarray   # (96,)
    load_max: np.ndarray
    solar_min: np.ndarray  # (n_units, 96)
    solar_max: np.ndarray


# ---------------------------------------------------------------------- load

def _read_profile_csv(path: Path, rows_expected: int) -> tuple[np.ndarray, np.ndarray]:
    load, solar = read_csv(path, ("interval_index",), [(i,) for i in range(rows_expected)],
                           ("load_mw", "solar_total_mw"), error=ProfileError).values()
    if (load < 0).any():
        raise ProfileError(f"{path}: negative load")
    if (solar < 0).any():
        raise ProfileError(f"{path}: negative solar output")
    return load, solar


def load_profiles(path, solar_units: tuple[SolarUnit, ...]) -> ForecastProfile:
    """Load a profile directory containing ``hourly.csv`` and ``fifteen_min.csv``.

    Total solar output is disaggregated to units by their share of total;
    per-unit output must respect unit capacity in both files.
    """
    path = Path(path)
    hourly_load, hourly_solar = _read_profile_csv(path / "hourly.csv", HOURS_PER_DAY)
    load15, solar15_total = _read_profile_csv(path / "fifteen_min.csv", INTERVALS_PER_DAY)
    shares = np.array([u.share_of_total for u in solar_units])
    caps = np.array([u.capacity for u in solar_units])
    solar_hourly = np.outer(shares, hourly_solar)
    solar15 = np.outer(shares, solar15_total)
    for solar, step in ((solar_hourly, "hour"), (solar15, "interval")):
        over = solar - caps[:, None]
        if over.max(initial=-np.inf) > 1e-6:
            u, t = np.unravel_index(np.argmax(over), over.shape)
            raise ProfileError(
                f"solar unit {solar_units[u].id} forecast {solar[u, t]:.3f} MW "
                f"exceeds capacity {caps[u]:.3f} MW at {step} {t}"
            )
    return ForecastProfile(
        label=path.name,
        hourly_load=hourly_load,
        load15=load15,
        solar_hourly=solar_hourly,
        solar15=solar15,
    )


# -------------------------------------------------------------------- sample

def _truncated_normal(rng: np.random.Generator, shape, cutoff: float) -> np.ndarray:
    """Standard normals truncated to [-cutoff, cutoff]: one uniform ``q`` per
    entry through the inverse CDF, in log space in the left tail.

    The arithmetic is scipy 1.17's ``truncnorm.rvs(-cutoff, cutoff)`` step for
    step, so the draws and the generator's state after them match it bit for
    bit without importing ``scipy.stats`` (0.3 s and ~20 MB per process).
    """
    if cutoff <= 0:
        return np.zeros(shape)
    tail = log_ndtr(-cutoff)                            # log P(Z < -cutoff)
    # log(q * P(|Z| <= cutoff)), one per entry; the mass takes scipy.special's
    # log1p, as truncnorm does, and the sum below numpy's, as logsumexp does
    log_q_mass = np.log(rng.uniform(size=shape)) + log1p(-ndtr(-cutoff) - ndtr(-cutoff))
    # log P(Z < z) = log(P(Z < -cutoff) + q P(|Z| <= cutoff))
    hi, lo = np.maximum(tail, log_q_mass), np.minimum(tail, log_q_mass)
    return ndtri_exp(np.log1p(np.exp(lo - hi)) + hi) + 0.0   # + loc: -0.0 reads 0.0


def _scenario_seed(cfg: UncertaintyConfig, kind: str, index: int) -> np.random.Generator:
    # one independent, reproducible stream per scenario
    return np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(_KINDS[kind], index))
    )


def sample_scenarios(system: PowerSystem, profile: ForecastProfile,
                     cfg: UncertaintyConfig, count: int, kind: str
                     ) -> tuple[Scenario, ...]:
    """Monte Carlo scenarios around the 15-min forecast.

    Each interval and quantity gets an independent truncated Gaussian error
    with sigma equal to ``sigma_15min_frac`` times the forecast value.  Solar
    is clamped to [0, capacity]; loads to nonnegative.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if kind not in _KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    frac = cfg.sigma_15min_frac
    caps = np.array([u.capacity for u in system.solar_units])
    scenarios = []
    for j in range(count):
        rng = _scenario_seed(cfg, kind, j)
        z_load = _truncated_normal(rng, INTERVALS_PER_DAY, cfg.truncation_sigmas)
        z_solar = _truncated_normal(
            rng, (profile.n_solar, INTERVALS_PER_DAY), cfg.truncation_sigmas
        )
        load = np.maximum(profile.load15 * (1.0 + frac * z_load), 0.0)
        solar = np.clip(profile.solar15 * (1.0 + frac * z_solar), 0.0, caps[:, None])
        scenarios.append(Scenario(
            kind=kind,
            system_load=load,
            solar=solar,
            seed_info=f"seed={cfg.seed} kind={kind} index={j}",
        ))
    return tuple(scenarios)


def select_deployment_scenarios(system: PowerSystem, profile: ForecastProfile,
                                cfg: UncertaintyConfig, count: int
                                ) -> tuple[Scenario, ...]:
    """Deployment scenarios placed at symmetric Gaussian quantiles.

    Probability levels are equally spaced from (1-c)/2 to (1+c)/2 where c is
    the confidence level implied by ``confidence_z``, so count=2 yields the
    +-1.96 sigma envelope pair.  A positive quantile shifts load up and solar
    down (an upward netload scenario); a negative quantile mirrors it.
    """
    if count < 2:
        raise ValueError("need at least 2 deployment scenarios")
    frac = cfg.sigma_15min_frac
    caps = np.array([u.capacity for u in system.solar_units])
    p_outer = float(ndtr(cfg.confidence_z))
    levels = np.linspace(1.0 - p_outer, p_outer, count)
    zs = ndtri(levels)
    scenarios = []
    for j, z in enumerate(zs):
        load = np.maximum(profile.load15 * (1.0 + frac * z), 0.0)
        solar = np.clip(profile.solar15 * (1.0 - frac * z), 0.0, caps[:, None])
        scenarios.append(Scenario(
            kind=DEPLOYMENT,
            system_load=load,
            solar=solar,
            seed_info=f"quantile z={z:+.6f}",
            quantile_z=float(z),
        ))
    return tuple(scenarios)


def proxy_envelopes(profile: ForecastProfile, cfg: UncertaintyConfig,
                    solar_units: tuple[SolarUnit, ...]) -> ProxyEnvelope:
    """Confidence envelopes: forecast +- z * sigma, solar clamped to [0, capacity]."""
    z = cfg.confidence_z
    frac = cfg.sigma_15min_frac
    load_sigma = frac * profile.load15
    solar_sigma = frac * profile.solar15
    caps = np.array([u.capacity for u in solar_units])
    return ProxyEnvelope(
        load_min=np.maximum(profile.load15 - z * load_sigma, 0.0),
        load_max=profile.load15 + z * load_sigma,
        solar_min=np.maximum(profile.solar15 - z * solar_sigma, 0.0),
        solar_max=np.minimum(profile.solar15 + z * solar_sigma, caps[:, None]),
    )
