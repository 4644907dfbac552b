from __future__ import annotations

import numpy as np
import pytest

from frpsim.learner import (DispatchTrajectory, Mlp, RegressionModel, TrainConfig,
                            TrainingDataset, build_targets, feature_matrix, predict_factors,
                            train)
from frpsim.pipeline import _read_models, _write_models
from frpsim.scenarios import DEPLOYMENT, Scenario
from oracles import build_targets_loop, gradient_check
from util import bottleneck_system, make_gen, single_bus_system


def scenario_from(load, solar, kind="training"):
    return Scenario(kind=kind, system_load=np.asarray(load, dtype=float),
                    solar=np.asarray(solar, dtype=float), seed_info="fixed")


class TestFeatures:
    def test_dimension_three_solar_units(self):
        rng = np.random.default_rng(0)
        scn = scenario_from(rng.uniform(500, 700, 96), rng.uniform(0, 50, (3, 96)))
        assert feature_matrix(scn).shape == (96, 70)
        assert feature_matrix(scn)[10].shape == (70,)

    def test_dimension_one_solar_unit(self):
        scn = scenario_from(np.full(96, 500.0), np.zeros((1, 96)))
        assert feature_matrix(scn).shape == (96, 42)

    def test_constant_scenario_levels_equal_changes_zero(self):
        scn = scenario_from(np.full(96, 500.0), np.full((1, 96), 30.0))
        feats = feature_matrix(scn)
        # identical across intervals
        assert np.ptp(feats, axis=0).max() == 0.0
        row = feats[50]
        # per window slot: [netload, load, d_netload, d_load, solar, d_solar]
        for w in range(7):
            base = w * 6
            assert row[base + 0] == pytest.approx(470.0)
            assert row[base + 1] == pytest.approx(500.0)
            assert row[base + 2] == 0.0 and row[base + 3] == 0.0
            assert row[base + 4] == pytest.approx(30.0)
            assert row[base + 5] == 0.0

    def test_first_interval_edge_padding(self):
        load = np.arange(96, dtype=float) + 100.0
        scn = scenario_from(load, np.zeros((1, 96)))
        row = feature_matrix(scn)[0]
        # left window slots replicate interval 0's level values
        for w in range(4):  # offsets -3..0
            assert row[w * 6 + 1] == pytest.approx(100.0)
            assert row[w * 6 + 3] == 0.0  # replicated change of interval 0
        # right side sees the rising levels and unit changes
        assert row[4 * 6 + 1] == pytest.approx(101.0)
        assert row[4 * 6 + 3] == pytest.approx(1.0)


class TestTargets:
    def _system(self):
        return bottleneck_system()

    def test_target_normalization_and_clamp(self):
        system = single_bus_system([
            make_gen(0, 0, 0.0, 100.0, 20.0, ramp=10.0),
            make_gen(1, 0, 0.0, 100.0, 25.0, ramp=10.0),
        ])
        n = 96
        p0 = np.zeros(n); p0[1] = 5.0                     # move +5 then -5
        p1 = np.full(n, 50.0); p1[1] = 30.0               # move -20 then +20
        traj = DispatchTrajectory(
            dispatch={0: p0, 1: p1},
            commitment={0: np.ones(n), 1: np.ones(n)},
        )
        scn = scenario_from(np.full(n, 100.0), np.zeros((1, n)))
        ds = build_targets([(scn, traj)], system=_two_mr_system(), seed=0)
        rows0 = ds.rows_for(0)
        assert ds.targets[rows0][0] == pytest.approx(0.5)    # +5 / 10
        rows1 = ds.rows_for(1)
        assert ds.targets[rows1][0] == pytest.approx(-1.0)   # clamped -20 / 10
        assert np.all(np.abs(ds.targets) <= 1.0)

    def test_offline_intervals_excluded(self):
        system = _two_mr_system()
        n = 96
        u = np.ones(n); u[10] = 0.0
        traj = DispatchTrajectory(
            dispatch={0: np.full(n, 20.0), 1: np.full(n, 20.0)},
            commitment={0: u, 1: np.ones(n)},
        )
        scn = scenario_from(np.full(n, 100.0), np.zeros((1, n)))
        ds = build_targets([(scn, traj)], system=system, seed=0)
        ts0 = set(ds.intervals[ds.rows_for(0)].tolist())
        assert 9 not in ts0 and 10 not in ts0  # moves touching the off interval
        assert 8 in ts0

    def test_flat_forecast_scenario_all_zero_targets(self):
        system = _two_mr_system()
        n = 96
        traj = DispatchTrajectory(
            dispatch={0: np.full(n, 30.0), 1: np.full(n, 10.0)},
            commitment={0: np.ones(n), 1: np.ones(n)},
        )
        scn = scenario_from(np.full(n, 40.0), np.zeros((1, n)))
        ds = build_targets([(scn, traj)], system=system, seed=0)
        assert np.all(ds.targets == 0.0)

    def test_fast_start_units_excluded(self):
        system = bottleneck_system()
        n = 96
        traj = DispatchTrajectory(
            dispatch={g.id: np.full(n, max(g.p_min, 1.0)) for g in system.generators},
            commitment={g.id: np.ones(n) for g in system.generators},
        )
        scn = scenario_from(np.full(n, 100.0), np.zeros((1, n)))
        ds = build_targets([(scn, traj)], system=system, seed=0)
        fs_ids = {g.id for g in system.generators if g.is_fast_start}
        assert not (set(ds.gen_ids.tolist()) & fs_ids)

    def test_split_disjoint_exhaustive_75_25(self):
        system = _two_mr_system()
        n = 96
        rng = np.random.default_rng(1)
        pairs = []
        for _ in range(4):
            traj = DispatchTrajectory(
                dispatch={0: rng.uniform(0, 50, n), 1: rng.uniform(0, 50, n)},
                commitment={0: np.ones(n), 1: np.ones(n)},
            )
            pairs.append((scenario_from(rng.uniform(90, 110, n),
                                        np.zeros((1, n))), traj))
        ds = build_targets(pairs, system=system, seed=3)
        frac = ds.is_test.mean()
        assert abs(frac - 0.25) < 0.01

    def test_same_rows_as_the_loop(self, system118):
        """Every array equals, dtype and bits, the one the row-by-row loop
        builds, on synthetic 118-bus days with units switching on and off."""
        n = 96
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(3):
            traj = DispatchTrajectory(
                dispatch={g.id: rng.uniform(-1.5, 1.5, n) * g.ramp_15 + g.p_min
                          for g in system118.generators},
                commitment={g.id: (rng.random(n) < 0.9).astype(float)
                            for g in system118.generators},
            )
            solar = rng.uniform(0, 50, (len(system118.solar_units), n))
            pairs.append((scenario_from(rng.uniform(3000, 4000, n), solar), traj))
        got = build_targets(pairs, system=system118, seed=4)
        ref = build_targets_loop(pairs, system118, seed=4)
        assert len(got) > 1000
        for name in ("gen_ids", "intervals", "features", "targets", "is_test"):
            a, b = getattr(got, name), getattr(ref, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


def _two_mr_system():
    return single_bus_system([
        make_gen(0, 0, 0.0, 100.0, 20.0, ramp=10.0),
        make_gen(1, 0, 0.0, 100.0, 25.0, ramp=10.0),
    ])


class TestMlp:
    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_check_random_configurations(self, seed):
        rng = np.random.default_rng(seed)
        n_in = int(rng.integers(2, 9))
        hidden = tuple(int(rng.integers(2, 9))
                       for _ in range(int(rng.integers(1, 4))))
        mlp = Mlp(n_in, hidden, seed=seed)
        x = rng.normal(size=(int(rng.integers(2, 12)), n_in))
        y = rng.normal(size=x.shape[0])
        assert gradient_check(mlp, x, y, eps=1e-5) <= 1e-4

    def test_zero_network_output_bias_gradient(self):
        mlp = Mlp(3, (4,), seed=0)
        for w in mlp.weights:
            w[:] = 0.0
        x = np.zeros((5, 3))
        y = np.zeros(5)
        loss, grad_ws, grad_bs = mlp.mse_gradients(x, y)
        assert loss == 0.0
        assert np.allclose(grad_bs[-1], 0.0)
        assert gradient_check(mlp, x, y) <= 1e-8

    def test_prediction_finite_for_large_inputs(self):
        mlp = Mlp(4, (8, 8), seed=1)
        out = mlp.predict(np.full((3, 4), 1e6))
        assert np.isfinite(out).all()


def make_linear_dataset(n_rows=600, n_feat=12, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, n_feat))
    w = rng.normal(size=n_feat) / np.sqrt(n_feat)
    y = np.clip(x @ w * 0.4 + noise * rng.normal(size=n_rows), -1, 1)
    test = np.zeros(n_rows, dtype=bool)
    test[rng.permutation(n_rows)[: n_rows // 4]] = True
    return TrainingDataset(
        gen_ids=np.zeros(n_rows, dtype=int),
        intervals=np.zeros(n_rows, dtype=int),
        features=x, targets=y, is_test=test,
    )


class TestTraining:
    def test_linear_target_high_r2(self):
        ds = make_linear_dataset()
        models = train(ds, TrainConfig(hidden=(32, 16), epochs=120, seed=0))
        model = models[0]
        test = ds.is_test
        pred = model.predict(ds.features[test])
        resid = pred - ds.targets[test]
        r2 = 1.0 - resid.var() / ds.targets[test].var()
        assert r2 >= 0.95
        assert model.test_mse < 0.01

    def test_constant_target_learned(self):
        ds = make_linear_dataset()
        ds = TrainingDataset(ds.gen_ids, ds.intervals, ds.features,
                             np.full(len(ds), 0.37), ds.is_test)
        models = train(ds, TrainConfig(hidden=(16,), epochs=400,
                                       learning_rate=3e-3, seed=1))
        pred = models[0].predict(ds.features)
        assert np.abs(pred - 0.37).max() <= 0.05

    def test_determinism_same_seed_identical_weights(self):
        ds = make_linear_dataset()
        cfg = TrainConfig(hidden=(16, 8), epochs=10, seed=42)
        m1 = train(ds, cfg)[0]
        m2 = train(ds, cfg)[0]
        for w1, w2 in zip(m1.mlp.weights, m2.mlp.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_loss_strictly_decreases_first_epochs(self):
        # every epoch draws its order from one seeded stream, so a k-epoch
        # fit is the first k epochs of any longer fit
        ds = make_linear_dataset()
        h = [train(ds, TrainConfig(hidden=(16, 8), epochs=k, seed=3))[0].train_mse
             for k in range(1, 11)]
        assert all(h[i + 1] < h[i] for i in range(9))

    def test_too_few_rows_refused(self):
        ds = make_linear_dataset(n_rows=50)
        with pytest.raises(ValueError, match="100 rows"):
            train(ds, TrainConfig(epochs=1))

    def test_thin_generator_skipped_with_warning(self):
        ds = make_linear_dataset(n_rows=400)
        ds.gen_ids[:30] = 1  # generator 1 keeps only 30 rows
        with pytest.warns(UserWarning, match="generators: 1"):
            models = train(ds, TrainConfig(hidden=(8,), epochs=2, seed=0))
        assert 0 in models and 1 not in models

    def test_no_gross_overfit_on_noisy_data(self):
        ds = make_linear_dataset(n_rows=2000, noise=0.1, seed=5)
        models = train(ds, TrainConfig(hidden=(32, 16), epochs=60, seed=5))
        m = models[0]
        assert m.test_mse <= 3.0 * m.train_mse

    def test_divergence_detected(self):
        ds = make_linear_dataset()
        ds.features[:, 0] = np.inf  # poisons the loss on the first batch
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError,
                                                          match="diverged"):
            train(ds, TrainConfig(hidden=(8,), epochs=2, seed=0))


class TestPrediction:
    def _deployment_set(self):
        rng = np.random.default_rng(9)
        return tuple(
            scenario_from(rng.uniform(90, 110, 96), rng.uniform(0, 5, (1, 96)),
                          kind=DEPLOYMENT)
            for _ in range(2)
        )

    def test_raw_output_clamped_to_unit_interval(self):
        mlp = Mlp(42, (4,), seed=0)
        mlp.biases[-1][:] = 1.7  # force large raw outputs
        model = RegressionModel(mlp=mlp, mean=np.zeros(42),
                                std=np.ones(42), train_mse=0.0, test_mse=0.0)
        factors = predict_factors({0: model}, self._deployment_set())
        assert factors.values[0].max() <= 1.0
        assert factors.values[0][10, 0] <= 1.0

    def test_save_load_round_trip(self, tmp_path):
        ds = make_linear_dataset()
        models = train(ds, TrainConfig(hidden=(8, 4), epochs=5, seed=2))
        _write_models(models, tmp_path)
        back = _read_models(tmp_path)
        assert list(back) == list(models)
        x = ds.features[:10]
        np.testing.assert_array_equal(models[0].predict(x), back[0].predict(x))
        assert (back[0].train_mse, back[0].test_mse) == (models[0].train_mse,
                                                         models[0].test_mse)

    def test_memorization_of_training_rows(self):
        # predictions on rows the model trained on stay within a band implied
        # by the measured test error
        ds = make_linear_dataset(n_rows=1200, noise=0.0, seed=11)
        models = train(ds, TrainConfig(hidden=(32, 16), epochs=150, seed=11))
        model = models[0]
        train_rows = ~ds.is_test
        pred = model.predict(ds.features[train_rows])
        band = max(4.0 * np.sqrt(model.test_mse), 0.02)
        within = np.mean(np.abs(pred - ds.targets[train_rows]) <= band)
        assert within >= 0.95
