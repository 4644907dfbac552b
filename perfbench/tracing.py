"""Spans and counts recorded around frpsim's public calls, from outside src/.

``instrument`` swaps each traced frpsim function (and the few builder and
model methods named in ``METHODS``) for a wrapper that records a span, and
puts the originals back on exit.  Spans stay in memory; ``layer_metrics``
turns them into the per-layer self times and counts the traced run reports.
A span's self time is its duration minus the part of it that child spans
cover.  Work the benchmark adds to take a measurement (line-flow and cut
checks) runs inside a ``bench.hooks`` span, and output checks made during
a unit inside a ``bench.checks`` span, with nothing recorded inside either,
so neither is charged to a layer.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import env  # noqa: F401
from frpsim import dayahead, fmm, learner, milp, network, pipeline, scenarios, ucbase, validation

BIND_TOL_MW = 1e-4   # a flow within this of its rating counts as at rating
HOOKS = "bench.hooks"    # measurement work the benchmark adds in a traced run
CHECKS = "bench.checks"  # output checks made inside a timed unit
_MATRIX = milp.MilpModel._matrix   # unwrapped, for nnz counts


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level
    phase: str = "cycle"


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children[i]]
        out.append((s.end - s.start) - covered([c for c in clipped if c[1] > c[0]]))
    return out


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    maxima: dict[str, float] = field(default_factory=dict)
    phase: str = "cycle"   # "setup" while the workload is being set up
    paused: bool = False   # set while the benchmark checks a unit's output
    # (top-level span index, rows, cols, nonzeros) of every solve
    solve_sizes: list[tuple[int | None, int, int, int]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               self._stack[-1] if self._stack else None, self.phase))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name] += n

    def record_max(self, name: str, value: float) -> None:
        if value == value:  # NaN carries no gap information
            self.maxima[name] = max(self.maxima.get(name, -np.inf), value)

    @contextlib.contextmanager
    def hooks(self, name: str = HOOKS):
        """Benchmark-only work: one span, nothing recorded inside it."""
        with self.span(name):
            was, self.paused = self.paused, True
            try:
                yield
            finally:
                self.paused = was

    def by_unit(self) -> list[tuple[Span, dict[str, float]]]:
        """Each top-level cycle span with the self time of every span under it."""
        own = self_times(self.spans)
        out: list[tuple[Span, dict[str, float]]] = []
        root_of: dict[int, int] = {}
        for i, s in enumerate(self.spans):
            if s.phase != "cycle":
                continue
            if s.parent is None:
                root_of[i] = len(out)
                out.append((s, defaultdict(float)))
            else:
                root_of[i] = root_of[s.parent]
            out[root_of[i]][1][s.name] += own[i]
        return out

    def totals(self, per: dict[str, float] | None = None
               ) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, inclusive time) per span name, each span's time
        divided by ``per[its phase]`` (1 for a phase not listed)."""
        per = per or {}
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self_times(self.spans)):
            d = per.get(s.phase, 1.0)
            own[s.name] += t / d
            incl[s.name] += (s.end - s.start) / d
        return own, incl


# --------------------------------------------------------------- wrapping
# Module functions: (module, attribute, span name).  Each is replaced in
# every frpsim module that imported it by name.
FUNCTIONS = [
    (network, "load_system", "network.load_system"),
    (network, "compute_ptdf", "network.ptdf"),
    (scenarios, "load_profiles", "scenarios"),
    (scenarios, "sample_scenarios", "scenarios"),
    (scenarios, "select_deployment_scenarios", "scenarios"),
    (scenarios, "proxy_envelopes", "scenarios"),
    (milp, "solve", "milp.solve"),
    (milp, "_highs_milp", "milp.highs"),
    (dayahead, "build_da_model", "dayahead.build"),
    (dayahead, "run_da", "dayahead.run_da"),
    (fmm, "build_fmm_proxy", "fmm.build"),
    (fmm, "build_fmm_training", "fmm.build"),
    (fmm, "build_fmm_datadriven", "fmm.build"),
    (fmm, "solve_with_cuts", "fmm.cut_loop"),
    (fmm, "run_fmm_day", "fmm.run_fmm_day"),
    (fmm, "run_training_day", "fmm.run_training_day"),
    (learner, "build_targets", "learner.targets"),
    (learner, "train", "learner.train"),
    (learner, "predict_factors", "learner.predict"),
    (validation, "run_rtuc_validation", "validation.run_rtuc_validation"),
    (pipeline, "run_pipeline", "pipeline.run"),
] + [(pipeline, f"stage_{s}", f"pipeline.stage.{s}") for s in pipeline.STAGES]

METHODS = [
    (milp.MilpModel, "validate", "milp.validate"),
    (milp.MilpModel, "_matrix", "milp.matrix"),
    (ucbase.UcModelBuilder, "add_commitment", "ucbase.build"),
    (ucbase.UcModelBuilder, "add_dispatch", "ucbase.build"),
    (ucbase.UcModelBuilder, "add_ramps", "ucbase.build"),
    (ucbase.UcModelBuilder, "add_shutdown_glidepath", "ucbase.build"),
    (ucbase.UcModelBuilder, "add_network", "ucbase.build"),
    (ucbase.UcModelBuilder, "add_line_limits", "ucbase.line_limits"),
    (ucbase.UcModelBuilder, "commitment_values", "ucbase.extract"),
    (ucbase.UcModelBuilder, "dispatch_values", "ucbase.extract"),
    (ucbase.UcModelBuilder, "base_flows", "ucbase.extract"),
    (ucbase.UcModelBuilder, "interval_costs", "ucbase.extract"),
]

# an untraced run wraps only these: the cut loop, so its results can be
# checked after the timed call, and the learner fit
UNTRACED = {"fmm.cut_loop", "learner.train"}


def _frpsim_modules():
    return [m for name, m in sys.modules.items()
            if name == "frpsim" or name.startswith("frpsim.")]


class _Hooks:
    """Counts taken at the wrapped boundaries; extra work runs in bench.hooks."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        # model -> (injection columns (buses, T), PTDF rows, ratings) of its line rows
        self.line_models: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def after(self, name, args, result):
        t = self.t
        if name == "milp.solve":
            self._solved(args[0], result)
        elif name == "milp.highs":
            t.count("milp.mip_nodes", float(getattr(result, "mip_node_count", 0) or 0))
        elif name == "fmm.cut_loop":
            self._cut_loop(args[0], result)
        elif name == "learner.targets":
            t.count("learner.rows", len(result))

    def _solved(self, model, sol):
        t = self.t
        nnz = _MATRIX(model)[0].nnz if model.n_constrs else 0
        t.count("milp.solves")
        t.count("milp.rows", model.n_constrs)
        t.count("milp.cols", model.n_vars)
        t.count("milp.nnz", nnz)
        t.solve_sizes.append((t._stack[0] if t._stack else None,
                              model.n_constrs, model.n_vars, nnz))
        if sol.status != "optimal":
            t.count("milp.nonoptimal")
        t.record_max("milp.mip_gap_max", sol.mip_gap)
        lines = self.line_models.get(model)
        if lines is None or sol.status != "optimal":
            return
        with t.hooks():
            inj_cols, rows, ratings, n_rows = lines
            flows = rows @ sol.values[inj_cols]          # (lines, T)
            t.count("ucbase.line_rows_solved", n_rows)
            t.count("ucbase.line_rows_binding",
                    int((np.abs(flows) >= ratings[:, None] - BIND_TOL_MW).sum()))

    def line_limits(self, builder, ptdf, before):
        added = builder.model.n_constrs - before
        self.t.count("ucbase.line_rows", added)
        with self.t.hooks():
            keep = [k for k in range(len(builder.system.lines))
                    if (np.abs(ptdf.values[k]) > ucbase.LINE_COEF_EPS).any()]
            inj = np.array([[builder.inj(b.id, s) for s in range(builder.n_intervals)]
                            for b in builder.system.buses])
            ratings = np.array([builder.system.lines[k].rating for k in keep])
            self.line_models[builder.model] = (inj, ptdf.values[keep], ratings, added)

    def _cut_loop(self, handle, result):
        t = self.t
        sol, cuts = result
        t.count("fmm.cuts", len(cuts))
        with t.hooks():
            index = {ln.id: k for k, ln in enumerate(handle.system.lines)}
            binding = 0
            for c in cuts:
                k = index[c.line_id]
                flow = fmm.post_deployment_flows(handle, sol, c.scenario, c.direction)[k, c.t]
                binding += abs(flow) >= handle.system.lines[k].rating - BIND_TOL_MW
            t.count("fmm.cuts_binding", binding)


@contextlib.contextmanager
def instrument(tracer: Tracer, traced: bool = True, on_cut_loop=None):
    """Wrap frpsim's public calls for the duration of the block.

    With ``traced`` false only the names in ``UNTRACED`` are wrapped, at the
    cost of one span per call.  ``on_cut_loop(handle, solution)`` runs as
    each cut loop returns, inside a ``bench.checks`` span.
    """
    hooks = _Hooks(tracer)
    restore: list[tuple[object, str, object]] = []

    def wrap(fn, name):
        if name == "ucbase.line_limits":
            @functools.wraps(fn)
            def wrapper(self, ptdf, *a, **kw):
                before = self.model.n_constrs
                with tracer.span(name):
                    out = fn(self, ptdf, *a, **kw)
                hooks.line_limits(self, ptdf, before)
                return out
        elif name == "fmm.cut_loop":
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                solves = tracer.counts["milp.solves"]
                with tracer.span(name):
                    out = fn(*a, **kw)
                if on_cut_loop is not None:
                    with tracer.hooks(CHECKS):
                        on_cut_loop(a[0], out[0])
                if traced:
                    tracer.count("fmm.cut_rounds",
                                 tracer.counts["milp.solves"] - solves - 1)
                    hooks.after(name, a, out)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                with tracer.span(name):
                    out = fn(*a, **kw)
                hooks.after(name, a, out)
                return out
        return wrapper

    try:
        for owner, attr, name in FUNCTIONS:
            if not traced and name not in UNTRACED:
                continue
            orig = getattr(owner, attr)
            wrapper = wrap(orig, name)
            for mod in _frpsim_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        if traced:
            for cls, attr, name in METHODS:
                orig = cls.__dict__[attr]
                restore.append((cls, attr, orig))
                setattr(cls, attr, wrap(orig, name))

            orig_steps = learner.Mlp.mse_gradients

            def counted(self, *a, **kw):
                tracer.count("learner.steps")
                return orig_steps(self, *a, **kw)

            restore.append((learner.Mlp, "mse_gradients", orig_steps))
            learner.Mlp.mse_gradients = counted
        yield tracer
    finally:
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)


# --------------------------------------------------------------- metrics

def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer self times (s) and counts per cycle; set-up spans as recorded."""
    own, incl = tracer.totals({"cycle": cycles})
    c = {k: v / cycles for k, v in tracer.counts.items()}
    c = defaultdict(float, c)
    out = {
        "milp.highs_s": own["milp.highs"],
        "milp.overhead_s": incl["milp.solve"] - incl["milp.highs"],
        "ucbase.line_limits_s": own["ucbase.line_limits"],
        "ucbase.build_s": own["ucbase.build"],
        "ucbase.extract_s": own["ucbase.extract"],
        "fmm.build_s": own["fmm.build"],
        "network.ptdf_s": own["network.ptdf"],
        "scenarios.sample_s": own["scenarios"],
        "dayahead.build_s": own["dayahead.build"],
        "validation.self_s": own["validation.run_rtuc_validation"],
        "fmm.cut_loop_s": own["fmm.cut_loop"],
        "learner.targets_s": own["learner.targets"],
        "learner.train_s": own["learner.train"],
        "learner.predict_s": own["learner.predict"],
        "milp.solves": c["milp.solves"],
        "milp.rows": c["milp.rows"],
        "milp.cols": c["milp.cols"],
        "milp.nnz": c["milp.nnz"],
        "milp.mip_nodes": c["milp.mip_nodes"],
        "milp.nonoptimal": c["milp.nonoptimal"],
        "ucbase.line_rows": c["ucbase.line_rows"],
        "fmm.cut_rounds": c["fmm.cut_rounds"],
        "fmm.cuts": c["fmm.cuts"],
        "learner.rows": c["learner.rows"],
        "learner.steps": c["learner.steps"],
    }
    for stage in pipeline.STAGES:   # stages are thin: report inclusive time
        out[f"pipeline.stage_s.{stage}"] = incl[f"pipeline.stage.{stage}"]
    # ratios and maxima are not per-cycle quantities
    out["milp.mip_gap_max"] = tracer.maxima.get("milp.mip_gap_max", 0.0)
    out["ucbase.line_rows_binding_frac"] = _ratio(c["ucbase.line_rows_binding"],
                                                  c["ucbase.line_rows_solved"])
    out["fmm.cuts_binding_frac"] = _ratio(c["fmm.cuts_binding"], c["fmm.cuts"])
    out["learner.steps_per_s"] = _ratio(c["learner.steps"], own["learner.train"])
    out["bench.hooks_s"] = own[HOOKS]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
