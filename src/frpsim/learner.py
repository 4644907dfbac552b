"""Ramping-response regression: features, targets, per-generator MLPs.

Targets are dispatch moves between consecutive intervals normalized by the
unit's 15-min ramp rate and clamped to [-1, 1]; rows exist only where the
unit is committed on both sides of the move.  Each must-run generator gets
its own feed-forward regression model; the 7-interval feature window already
carries the temporal context, so one model per generator serves every
interval.  The network and its training loop are implemented here directly so
the analytic gradients can be verified against finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .network import PowerSystem
from .scenarios import Scenario, netload, window

WINDOW_OFFSETS = range(-3, 4)          # previous/next three intervals plus t
DEFAULT_HIDDEN = (100, 100, 25)
TEST_FRACTION = 0.25                   # rows held out of each fit
MIN_ROWS = 100                         # committed moves a generator needs to get a model
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999    # Adam moment decay rates


# ----------------------------------------------------------------- features

def feature_matrix(scenario) -> np.ndarray:
    """Feature rows for every interval of a scenario-like object.

    Accepts anything with ``system_load`` (T,) and ``solar`` (n_units, T)
    arrays.  Change features are first differences with zero at the first
    interval; the window is padded by edge replication.
    """
    load = np.asarray(scenario.system_load, dtype=float)
    solar = np.asarray(scenario.solar, dtype=float)
    net = netload(load, solar)

    def diff(x):
        d = np.zeros_like(x)
        d[..., 1:] = x[..., 1:] - x[..., :-1]
        return d

    # (quantities, T): one row per feature of a window slot
    base = np.vstack([net, load, diff(net), diff(load), solar, diff(solar)])
    n = load.shape[0]
    return np.concatenate([window(base, off, n).T for off in WINDOW_OFFSETS], axis=1)


# ------------------------------------------------------------------ targets

@dataclass(frozen=True)
class DispatchTrajectory:
    """Executed day-long dispatch/commitment from a rolling market run."""

    dispatch: dict[int, np.ndarray]    # gen id -> (n_intervals,) MW
    commitment: dict[int, np.ndarray]  # gen id -> (n_intervals,) 0/1


@dataclass
class TrainingDataset:
    """Per-(generator, interval) regression rows with a frozen 75/25 split."""

    gen_ids: np.ndarray      # (rows,)
    intervals: np.ndarray    # (rows,)
    features: np.ndarray     # (rows, dim)
    targets: np.ndarray      # (rows,) in [-1, 1]
    is_test: np.ndarray      # (rows,) bool

    def __len__(self) -> int:
        return len(self.targets)

    def rows_for(self, gen_id: int) -> np.ndarray:
        return np.where(self.gen_ids == gen_id)[0]


def build_targets(pairs: list[tuple[Scenario, DispatchTrajectory]],
                  system: PowerSystem, seed: int = 0) -> TrainingDataset:
    """Assemble the regression dataset from rolling training-market runs.

    Fast-start units are excluded, as is any unit with a zero ramp rate.
    The train/test split is drawn once over rows, disjoint and exhaustive.
    """
    mr = [g for g in system.must_run_generators() if g.ramp_15 > 0]
    skipped = [g.id for g in system.must_run_generators() if g.ramp_15 <= 0]
    if skipped:
        warnings.warn(f"generators {skipped} excluded from training: zero ramp rate")
    ids = np.array([g.id for g in mr])
    ramp = np.array([g.ramp_15 for g in mr])
    gen_ids, intervals, features, targets = [], [], [], []
    for scenario, traj in pairs if mr else ():
        p = np.array([traj.dispatch[g.id] for g in mr])             # (units, T)
        on = np.array([traj.commitment[g.id] for g in mr]) >= 0.5
        unit, t = np.nonzero(on[:, :-1] & on[:, 1:])     # committed on both sides
        gen_ids.append(ids[unit])
        intervals.append(t)
        features.append(feature_matrix(scenario)[t])
        targets.append(np.clip((p[unit, t + 1] - p[unit, t]) / ramp[unit], -1.0, 1.0))
    n = sum(map(len, targets))
    if not n:
        raise ValueError("no training rows: no must-run unit is ever committed")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(77,)))
    test = np.zeros(n, dtype=bool)
    test[rng.permutation(n)[: int(round(TEST_FRACTION * n))]] = True
    return TrainingDataset(
        gen_ids=np.concatenate(gen_ids),
        intervals=np.concatenate(intervals),
        features=np.concatenate(features),
        targets=np.concatenate(targets),
        is_test=test,
    )


# ---------------------------------------------------------------------- mlp

class Mlp:
    """Feed-forward regression net: tanh hidden layers, linear scalar output."""

    def __init__(self, n_inputs: int, hidden: tuple[int, ...] = DEFAULT_HIDDEN,
                 seed: int = 0):
        sizes = [n_inputs, *hidden, 1]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(11,)))
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = math.sqrt(1.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    def _forward(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """The input and every hidden layer's activation, and the (n,) output."""
        acts = [np.atleast_2d(np.asarray(x, dtype=float))]
        for wgt, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.tanh(acts[-1] @ wgt + b))
        return acts, (acts[-1] @ self.weights[-1] + self.biases[-1])[:, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[1]

    def mse(self, x: np.ndarray, y: np.ndarray) -> float:
        err = self.predict(x) - np.asarray(y, dtype=float)
        return float(np.mean(err * err))

    def mse_gradients(self, x: np.ndarray, y: np.ndarray
                      ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Mean squared error and its analytic gradient for every parameter."""
        acts, pred = self._forward(x)
        err = pred - np.asarray(y, dtype=float)
        loss = float(np.mean(err * err))
        grad_ws: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grad_bs: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        delta = (2.0 * err / len(err))[:, None]
        grad_ws[-1] = acts[-1].T @ delta
        grad_bs[-1] = delta.sum(axis=0)
        back = delta @ self.weights[-1].T
        for layer in range(len(self.weights) - 2, -1, -1):
            back = back * (1.0 - acts[layer + 1] ** 2)
            grad_ws[layer] = acts[layer].T @ back
            grad_bs[layer] = back.sum(axis=0)
            if layer:
                back = back @ self.weights[layer].T
        return loss, grad_ws, grad_bs

    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]


@dataclass
class TrainConfig:
    hidden: tuple[int, ...] = DEFAULT_HIDDEN
    epochs: int = 150
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0


@dataclass
class RegressionModel:
    """Trained per-generator model with frozen normalization statistics."""

    mlp: Mlp
    mean: np.ndarray
    std: np.ndarray
    train_mse: float
    test_mse: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = (np.atleast_2d(features) - self.mean) / self.std
        return self.mlp.predict(x)


def _train_one(x_train, y_train, x_test, y_test, cfg: TrainConfig,
               gen_id: int) -> RegressionModel:
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std[std < 1e-8] = 1.0
    xn = (x_train - mean) / std
    xt = (x_test - mean) / std if len(x_test) else x_test
    mlp = Mlp(xn.shape[1], cfg.hidden, seed=cfg.seed + gen_id)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(23, gen_id))
    )
    moments1 = [np.zeros_like(p) for p in mlp.parameters()]
    moments2 = [np.zeros_like(p) for p in mlp.parameters()]
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(xn))
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo: lo + cfg.batch_size]
            loss, grad_ws, grad_bs = mlp.mse_gradients(xn[batch], y_train[batch])
            if not math.isfinite(loss):
                raise RuntimeError(
                    f"training diverged for generator {gen_id} at step {step}: "
                    f"loss={loss}"
                )
            step += 1
            grads = [*grad_ws, *grad_bs]
            for p, g, m1, m2 in zip(mlp.parameters(), grads, moments1, moments2):
                m1 += (1 - ADAM_BETA1) * (g - m1)
                m2 += (1 - ADAM_BETA2) * (g * g - m2)
                hat1 = m1 / (1 - ADAM_BETA1 ** step)
                hat2 = m2 / (1 - ADAM_BETA2 ** step)
                p -= cfg.learning_rate * hat1 / (np.sqrt(hat2) + 1e-8)
    return RegressionModel(
        mlp=mlp,
        mean=mean,
        std=std,
        train_mse=mlp.mse(xn, y_train),
        test_mse=mlp.mse(xt, y_test) if len(x_test) else float("nan"),
    )


def train(dataset: TrainingDataset, cfg: TrainConfig | None = None
          ) -> dict[int, RegressionModel]:
    """Train one regression model per generator present in the dataset.

    Generators with fewer than ``MIN_ROWS`` committed moves are skipped with
    a warning: an unpredicted generator simply contributes no forced-award
    floor downstream.  Raises only if no generator has enough data.
    """
    cfg = cfg or TrainConfig()
    models: dict[int, RegressionModel] = {}
    skipped = []
    for gen_id in sorted(set(dataset.gen_ids.tolist())):
        rows = dataset.rows_for(gen_id)
        if len(rows) < MIN_ROWS:
            skipped.append((gen_id, len(rows)))
            continue
        test_mask = dataset.is_test[rows]
        x = dataset.features[rows]
        y = dataset.targets[rows]
        models[gen_id] = _train_one(
            x[~test_mask], y[~test_mask], x[test_mask], y[test_mask], cfg, gen_id
        )
    if skipped:
        detail = ", ".join(f"{g} ({n} rows)" for g, n in skipped)
        warnings.warn(f"too little data to train generators: {detail}")
    if not models:
        raise ValueError(
            f"no generator has the required {MIN_ROWS} rows of training data"
        )
    return models


# -------------------------------------------------------------- predictions

@dataclass(frozen=True)
class RampResponseFactors:
    """Predicted normalized ramping responses per (generator, move, scenario)."""

    values: dict[int, np.ndarray]   # gen id -> (n_moves, n_scenarios) in [-1, 1]

    def gen_ids(self) -> list[int]:
        return sorted(self.values)


def predict_factors(models: dict[int, RegressionModel],
                    deployment: tuple[Scenario, ...]) -> RampResponseFactors:
    """Clamped model predictions for every deployment scenario and interval."""
    values: dict[int, np.ndarray] = {}
    feats = [feature_matrix(scn) for scn in deployment]
    for gen_id, model in models.items():
        cols = [np.clip(model.predict(f), -1.0, 1.0) for f in feats]
        values[gen_id] = np.column_stack(cols)
    return RampResponseFactors(values=values)

