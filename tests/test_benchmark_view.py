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
