from __future__ import annotations

import csv
import os
import re
import subprocess
import sys

import numpy as np
import pytest
# oracles only: frpsim itself computes both from scipy.special
from scipy.stats import norm, truncnorm

from frpsim.network import SolarUnit, nodal_injections
from frpsim.pipeline import _write_scenarios_csv
from frpsim.scenarios import (DEPLOYMENT, OUT_OF_SAMPLE, TRAINING, ProfileError,
                              UncertaintyConfig, _scenario_seed, _truncated_normal,
                              load_profiles, proxy_envelopes, netload, sample_scenarios,
                              select_deployment_scenarios, window)
from util import bottleneck_system, make_profile


def write_profile_dir(tmp_path, load15, solar15, n_hourly=24, n_15=96):
    d = tmp_path / "prof"
    d.mkdir()
    hourly_load = np.asarray(load15).reshape(-1, 4).mean(axis=1)[:n_hourly]
    hourly_solar = np.asarray(solar15).reshape(-1, 4).mean(axis=1)[:n_hourly]
    with open(d / "hourly.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["interval_index", "load_mw", "solar_total_mw"])
        for h in range(n_hourly):
            w.writerow([h, hourly_load[h], hourly_solar[h]])
    with open(d / "fifteen_min.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["interval_index", "load_mw", "solar_total_mw"])
        for t in range(n_15):
            w.writerow([t, load15[t], solar15[t]])
    return d


class TestUncertaintyConfig:
    def test_sigma_scaling_identity(self):
        cfg = UncertaintyConfig(sigma_hourly_frac=0.05)
        assert cfg.sigma_15min_frac == 0.025
        assert cfg.sigma_hourly_frac == 2 * cfg.sigma_15min_frac

    def test_rejects_nonpositive_confidence(self):
        with pytest.raises(ValueError):
            UncertaintyConfig(confidence_z=0.0)


class TestLoadProfiles:
    def test_bundled_day1(self, data_dir, system118):
        prof = load_profiles(data_dir / "profiles" / "day1", system118.solar_units)
        assert prof.load15.shape == (96,)
        assert prof.hourly_load.shape == (24,)
        assert prof.solar15.shape == (3, 96)
        assert (prof.load15 > 0).all() and (prof.solar15 >= 0).all()
        # evening netload ramp-up is the defining shape feature
        netload = prof.load15 - prof.solar15.sum(axis=0)
        evening = slice(64, 80)  # 16:00 - 20:00
        assert np.diff(netload[evening]).mean() > 0

    def test_constant_load_zero_variability(self, tmp_path):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96))
        prof = load_profiles(d, ())
        assert np.ptp(prof.load15) == 0.0

    def test_wrong_length_errors(self, tmp_path):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96), n_15=95)
        with pytest.raises(ProfileError, match=r"fifteen_min\.csv has no row for "
                                               r"interval_index 95$"):
            load_profiles(d, ())

    def test_negative_load_errors(self, tmp_path):
        load = np.full(96, 10.0)
        load[5] = -1.0
        d = write_profile_dir(tmp_path, load, np.zeros(96))
        with pytest.raises(ProfileError, match="negative load"):
            load_profiles(d, ())

    @pytest.mark.parametrize("column, value", [(1, "nan"), (1, "inf"), (2, "nan")])
    def test_non_finite_value_names_file_and_row(self, tmp_path, column, value):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96))
        rows = (d / "fifteen_min.csv").read_text().splitlines()
        fields = rows[6].split(",")          # interval 5, after the header
        fields[column] = value
        rows[6] = ",".join(fields)
        (d / "fifteen_min.csv").write_text("\n".join(rows) + "\n")
        name = ("interval_index", "load_mw", "solar_total_mw")[column]
        with pytest.raises(ProfileError, match=rf"fifteen_min\.csv line 7, column {name}: "
                                               rf"'{value}' is not finite$"):
            load_profiles(d, ())

    @pytest.mark.parametrize("line, message", [
        ("5,1000.0", "row length 2"), ("5", "row length 1"), ("", "row length 0"),
        # "1,000.0" read as two cells would otherwise load 1 MW
        ("5,1,000.0,0.0", "row length 4")], ids=["short", "one-cell", "blank", "long"])
    def test_short_or_long_row_names_file_and_row(self, tmp_path, line, message):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96))
        rows = (d / "fifteen_min.csv").read_text().splitlines()
        rows[6] = line                       # interval 5, after the header
        (d / "fifteen_min.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match=rf"fifteen_min\.csv line 7: {message}, "
                                               r"header length 3$"):
            load_profiles(d, ())

    def test_out_of_place_interval_index_refused(self, tmp_path):
        # rows 4 and 5 swapped: each would load into the other's interval
        d = write_profile_dir(tmp_path, np.arange(96.0), np.zeros(96))
        rows = (d / "fifteen_min.csv").read_text().splitlines()
        rows[5], rows[6] = rows[6], rows[5]
        (d / "fifteen_min.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match=r"fifteen_min\.csv line 6 holds interval_index "
                                               r"5 where interval_index 4 belongs$"):
            load_profiles(d, ())

    @pytest.mark.parametrize("value", ["", "1.0", "x"])
    def test_unreadable_interval_index_refused(self, tmp_path, value):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96))
        rows = (d / "hourly.csv").read_text().splitlines()
        rows[2] = value + rows[2][1:]        # hour 1, after the header
        (d / "hourly.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(ProfileError, match=rf"hourly\.csv line 3, column interval_index: "
                                               rf"cannot read '{value}'$"):
            load_profiles(d, ())

    @pytest.mark.parametrize("name", ["hourly.csv", "fifteen_min.csv"])
    def test_missing_file_named(self, tmp_path, name):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96))
        (d / name).unlink()
        with pytest.raises(ProfileError, match=f"^{re.escape(str(d / name))}: "):
            load_profiles(d, ())

    def test_missing_column_named(self, tmp_path):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.zeros(96))
        text = (d / "hourly.csv").read_text()
        (d / "hourly.csv").write_text(text.replace("solar_total_mw", "solar_mw", 1))
        with pytest.raises(ProfileError, match=r"hourly\.csv line 1 has no solar_total_mw "
                                               r"column$"):
            load_profiles(d, ())

    def test_solar_capacity_violation(self, tmp_path):
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.full(96, 100.0))
        units = (SolarUnit(0, 0, 50.0, 1.0),)
        with pytest.raises(ProfileError, match="exceeds capacity"):
            load_profiles(d, units)

    def test_hourly_solar_capacity_violation(self, tmp_path):
        # the day-ahead reads hourly.csv: its solar must fit the units too
        d = write_profile_dir(tmp_path, np.full(96, 1000.0), np.full(96, 20.0))
        rows = (d / "hourly.csv").read_text().splitlines()
        rows[3] = "2,1000.0,100.0"                 # hour 2, after the header
        (d / "hourly.csv").write_text("\n".join(rows) + "\n")
        units = (SolarUnit(7, 0, 50.0, 1.0),)
        with pytest.raises(ProfileError, match=r"solar unit 7 .* exceeds capacity "
                                               r"50\.000 MW at hour 2$"):
            load_profiles(d, units)


class TestTruncatedNormal:
    def test_same_bits_and_generator_state_as_scipy_truncnorm(self):
        # 20 seeds x 20 cutoffs x 3 shapes: 1,200 cases, deep tails included
        for seed in range(20):
            for cutoff in np.geomspace(0.1, 30.0, 20):
                for shape in (1, 96, (3, 96)):
                    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                    z = _truncated_normal(ours, shape, float(cutoff))
                    ref = truncnorm.rvs(-cutoff, cutoff, size=shape, random_state=theirs)
                    case = (seed, cutoff, shape)
                    assert z.shape == ref.shape and z.tobytes() == ref.tobytes(), case
                    assert ours.bit_generator.state == theirs.bit_generator.state, case

    @pytest.mark.parametrize("cutoff, expected", [
        (3.0, ["0x1.cfb88bdb056a4p-3", "0x1.0ae8eb39878a4p-6", "0x1.73f036597d1a5p-1",
               "-0x1.c65c381110feep-1"]),
        (0.25, ["0x1.6c2cde564cde3p-5", "0x1.a6a7798d06ce5p-9"]),
        (30.0, ["0x1.d0ff7c4807b9bp-3", "0x1.0ba1e8a810709p-6"])])
    def test_seed_7_draws_pinned(self, cutoff, expected):
        # training scenario 0's stream: its first load errors at cutoff 3
        rng = _scenario_seed(UncertaintyConfig(seed=7), TRAINING, 0)
        z = _truncated_normal(rng, len(expected), cutoff)
        assert [float(x).hex() for x in z] == expected

    def test_zero_cutoff_draws_nothing(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        assert _truncated_normal(rng, (2, 3), 0.0).tolist() == [[0.0] * 3] * 2
        assert rng.bit_generator.state == state

    def test_cli_import_loads_no_scipy_stats(self):
        # scipy.stats costs a fresh process ~0.3 s and ~20 MB to import
        script = ("import sys, frpsim.cli; "
                  "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


class TestSampleScenarios:
    def setup_method(self):
        self.system = bottleneck_system()
        self.profile = make_profile(np.full(96, 1000.0), np.full(96, 20.0))
        self.cfg = UncertaintyConfig(seed=11)

    def test_count_and_kind(self):
        out = sample_scenarios(self.system, self.profile, self.cfg, 7, TRAINING)
        assert len(out) == 7
        assert all(s.kind == TRAINING for s in out)

    def test_determinism_bitwise(self):
        a = sample_scenarios(self.system, self.profile, self.cfg, 4, OUT_OF_SAMPLE)
        b = sample_scenarios(self.system, self.profile, self.cfg, 4, OUT_OF_SAMPLE)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.system_load, sb.system_load)
            np.testing.assert_array_equal(sa.solar, sb.solar)

    def test_zero_sigma_equals_forecast(self):
        cfg = UncertaintyConfig(sigma_hourly_frac=0.0, seed=3)
        out = sample_scenarios(self.system, self.profile, cfg, 3, TRAINING)
        for s in out:
            np.testing.assert_array_equal(s.system_load, self.profile.load15)
            np.testing.assert_array_equal(s.solar, self.profile.solar15)

    def test_sampled_std_matches_configured_sigma(self):
        # 10000 draws of one interval with forecast 1000 MW and 2.5% 15-min sigma;
        # +-3 sigma truncation shrinks the std to ~0.973 of nominal, within band
        out = sample_scenarios(self.system, self.profile, self.cfg, 10_000, TRAINING)
        vals = np.array([s.system_load[50] for s in out])
        assert abs(vals.std() - 25.0) <= 0.05 * 25.0
        assert abs(vals.mean() - 1000.0) <= 1.0

    def test_truncation_bounds_hold(self):
        out = sample_scenarios(self.system, self.profile, self.cfg, 500, TRAINING)
        vals = np.stack([s.system_load for s in out])
        assert np.abs(vals - 1000.0).max() <= 3.0 * 25.0 + 1e-9

    def test_solar_clamped_to_capacity(self):
        profile = make_profile(np.full(96, 1000.0), np.full(96, 39.9))
        out = sample_scenarios(self.system, profile, self.cfg, 200, TRAINING)
        cap = self.system.solar_units[0].capacity
        for s in out:
            assert s.solar.max() <= cap + 1e-12
            assert s.solar.min() >= 0.0

    def test_nodal_loads_sum_to_system_load(self):
        out = sample_scenarios(self.system, self.profile, self.cfg, 3, TRAINING)
        scn = out[0]
        ts = np.arange(96)
        nodal, _ = nodal_injections(self.system, scn.system_load[ts], scn.solar[:, ts])
        np.testing.assert_allclose(nodal.sum(axis=0), scn.system_load, atol=1e-6)

    def test_aggregation_identity(self):
        # sum of four independent 15-min errors ~ the hourly (2x) spread
        out = sample_scenarios(self.system, self.profile, self.cfg, 10_000, TRAINING)
        hourly_err = np.array([
            (s.system_load[40:44] - 1000.0).sum() for s in out
        ])
        expected = 2.0 * 25.0
        assert abs(hourly_err.std() - expected) <= 0.05 * expected


class TestDeploymentScenarios:
    def setup_method(self):
        self.system = bottleneck_system()
        self.profile = make_profile(np.full(96, 1000.0), np.full(96, 20.0))
        self.cfg = UncertaintyConfig(seed=0)

    def test_two_scenarios_at_95_envelope(self):
        out = select_deployment_scenarios(self.system, self.profile, self.cfg, 2)
        assert len(out) == 2 and all(s.kind == DEPLOYMENT for s in out)
        zs = sorted(s.quantile_z for s in out)
        assert zs[0] == pytest.approx(-1.96, abs=5e-3)
        assert zs[1] == pytest.approx(+1.96, abs=5e-3)
        up = out[int(np.argmax([s.quantile_z for s in out]))]
        np.testing.assert_allclose(
            up.system_load, self.profile.load15 * (1 + 0.025 * up.quantile_z)
        )
        # upward netload scenario: solar shifted down
        assert (up.solar <= self.profile.solar15 + 1e-12).all()

    def test_zero_sigma_scenarios_equal_forecast(self):
        cfg = UncertaintyConfig(sigma_hourly_frac=0.0)
        out = select_deployment_scenarios(self.system, self.profile, cfg, 2)
        for s in out:
            np.testing.assert_array_equal(s.system_load, self.profile.load15)

    def test_four_scenarios_equally_spaced_percentiles(self):
        out = select_deployment_scenarios(self.system, self.profile, self.cfg, 4)
        zs = np.array(sorted(s.quantile_z for s in out))
        p_outer = norm.cdf(1.96)
        expected = norm.ppf(np.linspace(1 - p_outer, p_outer, 4))
        np.testing.assert_allclose(zs, expected, atol=1e-9)
        assert zs[0] == pytest.approx(-1.96, abs=5e-3)
        assert np.allclose(zs, -zs[::-1], atol=1e-12)  # symmetric pairs

    @pytest.mark.parametrize("count", range(2, 10))
    def test_quantiles_equal_scipy_norm(self, count):
        out = select_deployment_scenarios(self.system, self.profile, self.cfg, count)
        p_outer = norm.cdf(self.cfg.confidence_z)
        levels = np.linspace(1 - p_outer, p_outer, count)
        expected = norm.ppf(levels)
        assert [s.quantile_z for s in out] == expected.tolist()
        if count % 2:   # the middle level is 0.5 itself, and its z a plain 0.0
            assert levels[count // 2] == 0.5
            assert out[count // 2].seed_info == "quantile z=+0.000000"

    def test_needs_at_least_two(self):
        with pytest.raises(ValueError):
            select_deployment_scenarios(self.system, self.profile, self.cfg, 1)


class TestDaySeries:
    def test_window_clips_indices_past_either_end(self):
        day = np.arange(96.0)
        assert window(day, 0, 3).tolist() == [0.0, 1.0, 2.0]
        assert window(day, -5, 3).tolist() == [0.0, 0.0, 0.0]
        assert window(day, 1000, 2).tolist() == [95.0, 95.0]
        assert window(day, 93, 5).tolist() == [93.0, 94.0, 95.0, 95.0, 95.0]
        # leading axes are kept; the rule applies along the last one
        per_unit = np.stack([day, 2.0 * day])
        assert window(per_unit, -1, 3).tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]

    def test_netload_subtracts_every_solar_unit(self):
        load = np.array([100.0, 90.0])
        solar = np.array([[10.0, 0.0], [5.0, 30.0]])
        assert netload(load, solar).tolist() == [85.0, 60.0]
        assert netload(load, np.zeros((0, 2))).tolist() == [100.0, 90.0]


class TestProxyEnvelopes:
    def test_hand_computed_envelope(self):
        profile = make_profile(np.full(96, 1000.0), np.zeros(96))
        cfg = UncertaintyConfig(sigma_hourly_frac=0.05)
        env = proxy_envelopes(profile, cfg, ())
        assert env.load_max[0] == pytest.approx(1049.0, abs=1e-9)
        assert env.load_min[0] == pytest.approx(951.0, abs=1e-9)

    def test_zero_sigma_collapses(self):
        profile = make_profile(np.full(96, 1000.0), np.full(96, 10.0))
        cfg = UncertaintyConfig(sigma_hourly_frac=0.0)
        env = proxy_envelopes(profile, cfg, bottleneck_system().solar_units)
        np.testing.assert_array_equal(env.load_min, env.load_max)
        np.testing.assert_array_equal(env.solar_min, env.solar_max)

    def test_solar_lower_envelope_clamped_at_zero(self):
        profile = make_profile(np.full(96, 1000.0), np.full(96, 1.0))
        cfg = UncertaintyConfig(sigma_hourly_frac=4.0)  # huge sigma
        env = proxy_envelopes(profile, cfg, bottleneck_system().solar_units)
        assert (env.solar_min >= 0.0).all()
        assert (env.solar_min <= profile.solar15).all()

    def test_envelope_coverage_95pct(self):
        system = bottleneck_system()
        profile = make_profile(np.full(96, 1000.0), np.zeros(96))
        cfg = UncertaintyConfig(seed=5)
        env = proxy_envelopes(profile, cfg, system.solar_units)
        out = sample_scenarios(system, profile, cfg, 10_000, TRAINING)
        vals = np.array([s.system_load[10] for s in out])
        inside = np.mean((vals >= env.load_min[10]) & (vals <= env.load_max[10]))
        assert 0.93 <= inside <= 0.97


def test_write_scenarios_csv(tmp_path):
    system = bottleneck_system()
    profile = make_profile(np.full(96, 100.0), np.full(96, 5.0))
    out = sample_scenarios(system, profile, UncertaintyConfig(seed=1), 2, TRAINING)
    path = tmp_path / "scn.csv"
    _write_scenarios_csv(out, path, system.solar_units)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == 2 * 96 * 2  # (load + 1 solar unit) x intervals x scenarios
    assert {r["quantity"] for r in rows} == {"load", "solar_0"}
