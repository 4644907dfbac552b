"""Unit-state chaining and commitment bounds of the shared UC core."""

from __future__ import annotations

import numpy as np
import pytest

from frpsim.ucbase import UcModelBuilder, UnitState, advance_state
from util import make_gen, single_bus_system

# (case, committed, up_time, down_time, executed u,
#  expected committed, up_time, down_time)
STATE_CASES = [
    ("switch on", False, 0, 5, [0, 1, 1], True, 2, 0),
    ("switch off", True, 3, 0, [1, 0, 0], False, 0, 2),
    ("stay on", True, 3, 0, [1, 1, 1], True, 6, 0),
    ("stay off", False, 0, 2, [0, 0, 0], False, 0, 5),
    ("on, off, on again", False, 0, 7, [1, 0, 1], True, 1, 0),
    ("cold start stays off", False, 10_000, 10_000, [0, 0, 0], False, 0, 10_003),
]


def test_advance_state_table():
    u_exec = np.array([case[4] for case in STATE_CASES], dtype=float)
    p_exec = u_exec * np.array([[12.5, 40.0, 77.25]])
    state = UnitState(committed=np.array([c[1] for c in STATE_CASES]),
                      power=np.full(len(STATE_CASES), 3.0),
                      up_time=np.array([c[2] for c in STATE_CASES]),
                      down_time=np.array([c[3] for c in STATE_CASES]))
    out = advance_state(state, u_exec, p_exec)
    for i, (case, *_, committed, up, down) in enumerate(STATE_CASES):
        got = (bool(out.committed[i]), int(out.up_time[i]), int(out.down_time[i]))
        assert got == (committed, up, down), case
        assert out.power[i] == p_exec[i, -1], case


def _builder(gen, committed, up_time, down_time, n_intervals):
    system = single_bus_system([gen])
    init = UnitState(committed=np.array([committed]), power=np.zeros(1),
                     up_time=np.array([up_time]), down_time=np.array([down_time]))
    return UcModelBuilder(system, n_intervals, 0.25, init)


def test_commitment_pattern_conflicting_with_min_down_raises():
    # off for 1 of its 4 minimum down intervals, but pinned on at interval 0
    gen = make_gen(7, 0, 10.0, 100.0, 20.0, min_down=4)
    builder = _builder(gen, False, 0, 1, 3)
    with pytest.raises(ValueError, match="generator 7: .* at interval 0"):
        builder.add_commitment(np.ones((1, 3)), np.ones((1, 3)), min_updown=np.array([True]))


def test_commitment_pattern_conflicting_with_min_up_raises():
    # on for 1 of its 3 minimum up intervals, but pinned off from interval 1
    gen = make_gen(4, 0, 10.0, 100.0, 20.0, min_up=3)
    builder = _builder(gen, True, 1, 0, 3)
    pattern = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="generator 4: .* at interval 1"):
        builder.add_commitment(pattern, pattern, min_updown=np.array([True]))


def test_rows_and_columns_keep_their_interleaved_order():
    # unit 0 is free and keeps 2-interval minimum up/down times; unit 1 is
    # pinned on and scheduled off at interval 4, which its 40 MW ramp and
    # 30 MW shutdown allowance reach only from interval 2 (70 MW < 100 MW)
    gens = [make_gen(0, 0, 10.0, 100.0, 20.0, min_up=2, min_down=2,
                     blocks=((30.0, 20.0), (60.0, 25.0))),
            make_gen(1, 0, 10.0, 100.0, 30.0, ramp=40.0)]
    system = single_bus_system(gens)
    init = UnitState(committed=np.array([False, True]), power=np.array([0.0, 50.0]),
                     up_time=np.array([0, 10_000]), down_time=np.array([10_000, 0]))
    builder = UcModelBuilder(system, 3, 0.25, init)
    builder.add_commitment(np.array([[0.0] * 3, [1.0] * 3]), np.ones((2, 3)),
                           min_updown=np.array([True, False]))
    builder.add_dispatch()
    builder.add_ramps()
    builder.add_shutdown_glidepath(0, np.array([[1] * 6, [1, 1, 1, 1, 0, 0]]))
    builder.add_network(np.array([[60.0, 70.0, 80.0]]), np.zeros((1, 3)))
    m = builder.model

    def per_interval(names, gens=(0, 1)):
        return [f"{n}[g{g},t{t}]" for g in gens for t in range(3) for n in names]

    commitment = ["su_sd_link", "su_from_off", "sd_from_on", "su_on", "su_sd_excl"]
    assert m.constr_names == (
        per_interval(commitment, (0,))
        + [f"min_up[g0,t{t}]" for t in range(3)] + [f"min_dn[g0,t{t}]" for t in range(3)]
        + per_interval(commitment, (1,))
        + [n for t in range(3)
           for n in (f"blk_ub[g0,t{t},e0]", f"blk_ub[g0,t{t},e1]", f"pwr_def[g0,t{t}]")]
        + [n for t in range(3) for n in (f"blk_ub[g1,t{t},e0]", f"pwr_def[g1,t{t}]")]
        + per_interval(["ramp_up", "ramp_dn"])
        + ["sd_glide[g1,t2]"]
        + [n for t in range(3) for n in (f"inj_def[n0,t{t}]", f"sys_bal[t{t}]")])
    assert m.var_names == (
        per_interval(["u", "v", "w"])
        + [n for t in range(3) for n in (f"p[g0,t{t}]", f"pe[g0,t{t},e0]", f"pe[g0,t{t},e1]")]
        + [n for t in range(3) for n in (f"p[g1,t{t}]", f"pe[g1,t{t},e0]")]
        + [n for t in range(3) for n in (f"inj[n0,t{t}]", f"sl_short[t{t}]", f"sl_surp[t{t}]")])

    col = {name: i for i, name in enumerate(m.var_names)}
    row = {name: i for i, name in enumerate(m.constr_names)}
    a, lo, hi = m._matrix()
    lb, ub = m.col_bounds
    assert m.integrality.tolist() == ([1, 0, 0] * 6 + [0] * 24)
    assert (lb[builder.u[1]] == 1.0).all() and (lb[builder.u[0]] == 0.0).all()
    assert (ub[builder.pe[0, :, 1]] == 60.0).all() and ub[builder.p[1, 0]] == 100.0
    assert lb[col["inj[n0,t1]"]] == -np.inf

    def coefs(name):
        entries = a[row[name]]
        return {m.var_names[c]: v for c, v in zip(entries.indices, entries.data)}

    assert coefs("min_up[g0,t1]") == {"v[g0,t0]": 1.0, "v[g0,t1]": 1.0, "u[g0,t1]": -1.0}
    assert coefs("sd_glide[g1,t2]") == {"p[g1,t2]": 1.0}
    assert (lo[row["sd_glide[g1,t2]"]], hi[row["sd_glide[g1,t2]"]]) == (-np.inf, 70.0)
    # the move into interval 0 starts from 50 MW with the unit on
    assert coefs("ramp_up[g1,t0]") == {"p[g1,t0]": 1.0, "v[g1,t0]": -30.0}
    assert hi[row["ramp_up[g1,t0]"]] == 90.0
    assert (lo[row["su_sd_link[g1,t0]"]], hi[row["su_sd_link[g1,t0]"]]) == (-1.0, -1.0)
    assert coefs("pwr_def[g0,t2]") == {"u[g0,t2]": -10.0, "p[g0,t2]": 1.0,
                                       "pe[g0,t2,e0]": -1.0, "pe[g0,t2,e1]": -1.0}
    assert (lo[row["inj_def[n0,t2]"]], hi[row["inj_def[n0,t2]"]]) == (-80.0, -80.0)
