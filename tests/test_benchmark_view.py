"""The benchmark's view of the program stays resolvable.

``perfbench/tracing.py`` wraps frpsim functions and methods by name, and
``perfbench/workloads.py`` builds its inputs through frpsim's constructors.
A rename in ``src/`` would otherwise surface only in a benchmark run; here
it fails the test suite instead.  The benchmark's modules are imported,
never modified.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench(name):
    saved_env, saved_path = dict(os.environ), list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        # perfbench's env module pins BLAS threads for its own processes
        os.environ.clear()
        os.environ.update(saved_env)
        sys.path[:] = saved_path


@pytest.fixture(scope="module")
def tracing():
    return _import_perfbench("tracing")


def test_traced_functions_resolve(tracing):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.FUNCTIONS
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced functions gone: {missing}"


def test_traced_methods_are_class_attributes(tracing):
    missing = [f"{cls.__name__}.{attr}" for cls, attr, _ in tracing.METHODS
               if attr not in cls.__dict__]
    assert not missing, f"traced methods gone: {missing}"


def test_rolling_solves_go_through_wrapped_solve(tracing):
    # the wrapper replaces milp.solve wherever a module imported it by name;
    # the cut-loop round count relies on the rolls calling it that way
    from frpsim import fmm, milp

    assert fmm.solve is milp.solve


def test_workloads_set_up_against_the_program():
    # setup and units only: no unit runs, so nothing is solved or written
    workloads = _import_perfbench("workloads")
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.setup(7)
        try:
            assert workload.units(), name
        finally:
            workload.teardown()


def test_highs_result_carries_an_int_node_count(tracing):
    # the tracer adds each _highs_milp result's mip_node_count, read by name
    # with a default of 0, to milp.mip_nodes: a renamed field would zero it
    import numpy as np

    from frpsim import milp
    from frpsim.milp import Cols, MilpModel, Rows, SolveOptions

    rng, n = np.random.default_rng(1), 12
    model = MilpModel()
    x, = model.add_vars([Cols("x_{}", (np.arange(n),), (np.arange(n),), binary=True,
                              cost=-rng.integers(10, 100, n).astype(float))])
    weights = rng.integers(10, 50, (2, n)).astype(float)
    model.add_rows([Rows("cap_{}", (np.arange(2),), (np.arange(2),),
                         terms=[(np.broadcast_to(x, (2, n)), weights)],
                         hi=weights.sum(axis=1) / 3)])
    sol = milp._highs_milp(model, model.integrality, *model.col_bounds, SolveOptions())
    assert sol.status == "optimal"
    assert type(sol.mip_node_count) is int
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = milp.solve(model, SolveOptions())
    assert tracer.counts["milp.mip_nodes"] == traced.mip_node_count
