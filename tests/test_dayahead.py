from __future__ import annotations

import numpy as np
import pytest

from frpsim.dayahead import DaCommitments, run_da
from frpsim.milp import SolveOptions, check_solution
from frpsim.network import compute_ptdf
from frpsim.pipeline import _read_da_csv, _write_da_csv
from frpsim.scenarios import window
from util import duck_profile, make_gen, make_profile, single_bus_system


@pytest.fixture()
def flat_profile():
    return make_profile(np.full(96, 80.0), np.zeros(96))


class TestBuildAndRun:
    def test_single_generator_flat_load_committed_all_day(self, flat_profile):
        system = single_bus_system([make_gen(0, 0, 10.0, 120.0, 20.0, ramp=120.0)])
        ptdf = compute_ptdf(system)
        da, sol, builder = run_da(system, ptdf, flat_profile)
        assert (da.u_hourly[0] == 1).all()
        assert check_solution(builder.model, sol).ok

    def test_capacity_shortage_priced_at_voll(self):
        system = single_bus_system([make_gen(0, 0, 0.0, 50.0, 20.0, ramp=100.0)])
        ptdf = compute_ptdf(system)
        load = np.full(96, 40.0)
        load[72:76] = 90.0  # hour 18 exceeds capacity by 40 MW
        profile = make_profile(load, np.zeros(96))
        da, sol, builder = run_da(system, ptdf, profile)
        slack = sol.value(builder.short[18])
        assert slack == pytest.approx(40.0, abs=1e-4)
        # the shortage hour contributes VOLL x MW x 1 h
        assert sol.objective > 10000.0 * 39.0

    def test_expensive_unit_never_committed(self, flat_profile):
        system = single_bus_system([
            make_gen(0, 0, 10.0, 120.0, 20.0, ramp=120.0, startup=100.0),
            make_gen(1, 0, 5.0, 60.0, 70.0, ramp=60.0, startup=100.0),
        ])
        ptdf = compute_ptdf(system)
        da, sol, _ = run_da(system, ptdf, flat_profile)
        assert (da.u_hourly[0] == 1).all()
        assert (da.u_hourly[1] == 0).all()
        # lower bound: serving the whole day with the cheap unit alone
        floor = 24 * (80.0 - 10.0) * 20.0  # block energy above p_min
        assert sol.objective >= floor

    def test_zero_load_all_off(self):
        system = single_bus_system([make_gen(0, 0, 10.0, 120.0, 20.0)])
        ptdf = compute_ptdf(system)
        da, sol, _ = run_da(system, ptdf, make_profile(np.zeros(96), np.zeros(96)))
        assert (da.u_hourly[0] == 0).all()
        assert sol.objective == pytest.approx(0.0, abs=1e-6)

    def test_halving_load_never_commits_more(self):
        gens = [
            make_gen(0, 0, 20.0, 150.0, 22.0, ramp=150.0, startup=500.0),
            make_gen(1, 0, 10.0, 100.0, 35.0, ramp=100.0, startup=300.0),
            make_gen(2, 0, 5.0, 60.0, 55.0, ramp=60.0, startup=100.0),
        ]
        system = single_bus_system(gens)
        ptdf = compute_ptdf(system)
        profile = duck_profile(base=180.0, swing=60.0, solar_peak=0.0)
        da_full, _, _ = run_da(system, ptdf, profile)
        half = make_profile(profile.load15 * 0.5, np.zeros(96))
        da_half, _, _ = run_da(system, ptdf, half)
        full_hours = sum(int(da_full.u_hourly[g.id].sum()) for g in gens)
        half_hours = sum(int(da_half.u_hourly[g.id].sum()) for g in gens)
        assert half_hours <= full_hours


class TestCommitmentMapping:
    def test_fifteen_minute_intervals_inherit_hour(self):
        u = np.zeros(24)
        u[7] = 1
        da = DaCommitments(u_hourly={0: u}, dispatch_hourly={0: np.zeros(24)},
                           objective=0.0)
        assert [da.commitment_at(0, t) for t in (27, 28, 31, 32)] == [0, 1, 1, 0]
        schedule = da.interval_schedule(single_bus_system([make_gen(0, 0, 10.0, 100.0, 20.0)]))
        assert schedule[0, [27, 28, 31, 32]].tolist() == [0, 1, 1, 0]

    def test_edge_padding_beyond_day(self):
        u = np.zeros(24)
        u[23] = 1
        da = DaCommitments(u_hourly={0: u}, dispatch_hourly={0: np.zeros(24)},
                           objective=0.0)
        assert da.commitment_at(0, 98) == 1
        schedule = da.interval_schedule(single_bus_system([make_gen(0, 0, 10.0, 100.0, 20.0)]))
        assert window(schedule, 92, 7).tolist() == [[1] * 7]
        assert window(schedule, 88, 7).tolist() == [[0] * 4 + [1] * 3]

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        u = {0: (rng.random(24) > 0.5).astype(float), 1: np.ones(24)}
        p = {0: rng.uniform(0, 50, 24).round(4), 1: np.full(24, 7.5)}
        da = DaCommitments(u_hourly=u, dispatch_hourly=p, objective=1.0)
        path = tmp_path / "da.csv"
        system = single_bus_system([make_gen(g, 0, 0.0, 50.0, 20.0) for g in (0, 1)])
        _write_da_csv(da, path, system)
        back = _read_da_csv(path, system)
        for g in (0, 1):
            np.testing.assert_array_equal(back.u_hourly[g], u[g])
            np.testing.assert_array_equal(back.dispatch_hourly[g], p[g])


@pytest.mark.slow
def test_bundled_118_bus_da_evening_peak(system118, data_dir):
    from frpsim.scenarios import load_profiles

    ptdf = compute_ptdf(system118)
    profile = load_profiles(data_dir / "profiles" / "day1", system118.solar_units)
    da, sol, builder = run_da(system118, ptdf, profile,
                              options=SolveOptions(mip_rel_gap=1e-3))
    assert check_solution(builder.model, sol).ok
    on_at = lambda h: sum(int(da.u_hourly[g.id][h]) for g in system118.generators)
    # evening netload peak needs additional units beyond the night trough
    assert on_at(19) > on_at(3)
    assert sol.value(builder.short[19]) == pytest.approx(0.0, abs=1e-6)
