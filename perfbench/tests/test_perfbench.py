"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import runner  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, covered, instrument, self_times  # noqa: E402


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert covered([(2.0, 3.0), (0.0, 5.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 3.5, 6.0, 0),       # overlaps a: the union is subtracted
        Span("other", 20.0, 21.0, None),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0, 2.0, 1.0, 2.5, 1.0])


def test_tracer_nests_spans_and_divides_by_phase():
    t = Tracer()
    t.phase = "setup"
    with t.span("load"):
        pass
    t.phase = "cycle"
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert [s.parent for s in t.spans] == [None, None, 1]
    own, incl = t.totals({"cycle": 2})
    outer = t.spans[1]
    assert incl["outer"] == pytest.approx((outer.end - outer.start) / 2)
    assert own["outer"] + own["inner"] == pytest.approx(incl["outer"])


def test_nothing_is_recorded_inside_benchmark_hooks():
    t = Tracer()
    with t.span("layer"):
        with t.hooks():
            with t.span("inner"):
                pass
    assert [s.name for s in t.spans] == ["layer", "bench.hooks"]
    assert not t.paused


@pytest.mark.parametrize("n, tail", [
    (1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_needs_ten_samples_beyond(n, tail):
    assert stats.tail_percentile(n) == tail
    if tail is not None:
        assert stats.samples_beyond(n, tail) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile([3.0], 99) == 3.0


def test_overload_check_flags_flows_beyond_rating(monkeypatch):
    from frpsim import fmm

    handle = NS(system=NS(lines=[NS(rating=100.0), NS(rating=50.0)]),
                deployment=[0, 1], horizon=NS(start=8), cfg=NS(cut_tol_mw=1e-4))
    flows = np.array([[99.0, np.nan], [-50.5, 10.0]])   # line 1 is 0.5 MW over
    monkeypatch.setattr(fmm, "post_deployment_flows", lambda *a: flows)
    checks = workloads.Checks()
    checks.cut_loop(handle, None)
    problems = checks.take()
    assert len(problems) == 4 and "0.5 MW" in problems[0]
    assert checks.take() == []
    flows[1, 0] = -50.0 - 1e-5                           # within tolerance
    checks.cut_loop(handle, None)
    assert checks.take() == []


def test_reference_comparison_uses_relative_tolerance():
    assert runner._compare({"cost": 100.4}, {"cost": 100.0}, 5e-3, "u") == []
    assert len(runner._compare({"cost": 100.6}, {"cost": 100.0}, 5e-3, "u")) == 1
    assert len(runner._compare({}, {"cost": 100.0}, 5e-3, "u")) == 1


def test_missing_reference_entry_fails_the_unit():
    assert runner._compare({"cost": 100.0}, None, 5e-3, "u") == ["u: no value recorded"]
    assert len(runner._compare({"cost": 1.0, "energy": 2.0}, {"cost": 1.0}, 5e-3, "u")) == 1


def test_missing_or_altered_reference_file_is_refused(tmp_path, monkeypatch):
    import inputs

    monkeypatch.setattr(inputs, "DATA", tmp_path)
    monkeypatch.setattr(inputs, "MANIFEST", tmp_path / "manifest.json")
    ref = tmp_path / inputs.REFERENCE_FILE
    ref.write_text('{"seed": 7, "values": {}}')
    inputs.MANIFEST.write_text('{"files": {}}')
    with pytest.raises(inputs.InputError):       # not in the manifest
        runner.load_reference()
    inputs.MANIFEST.write_text(f'{{"files": {{"{inputs.REFERENCE_FILE}": "{inputs.sha256(ref)}"}}}}')
    assert runner.load_reference() == {"seed": 7, "values": {}}
    ref.write_text('{"seed": 7, "values": {"x": {}}}')
    with pytest.raises(inputs.InputError):       # altered
        runner.load_reference()
    ref.unlink()
    with pytest.raises(inputs.InputError):       # missing
        runner.load_reference()


def test_reference_covers_every_unit():
    reference = runner.load_reference()
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        wl.setup(reference["seed"])
        keys = {u.key for u in wl.units()}
        wl.teardown()
        assert keys == set(reference["values"][name]), name


def test_instrument_restores_the_program():
    from frpsim import fmm, milp, ucbase

    before = (fmm.solve, milp.solve, ucbase.UcModelBuilder.add_line_limits)
    with instrument(Tracer(), traced=True):
        assert fmm.solve is not before[0]
        assert ucbase.UcModelBuilder.add_line_limits is not before[2]
    assert (fmm.solve, milp.solve, ucbase.UcModelBuilder.add_line_limits) == before


def test_tracing_changes_no_result():
    """One pipeline cycle, untraced then traced: identical values, no failures."""
    plain = runner.run("case5-pipeline", 7, seconds=0.0, traced=False, reference=None)
    traced = runner.run("case5-pipeline", 7, seconds=0.0, traced=True, reference=None)
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert plain.first_values == traced.first_values
    counts = traced.tracer.counts
    assert counts["milp.solves"] > 0 and counts["learner.steps"] > 0
