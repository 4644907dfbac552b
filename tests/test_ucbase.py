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
