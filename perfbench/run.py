"""frpsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ieee118-rolls --seed 7 --seconds 30 --trace 0

Human-readable lines (run record, timings with sample counts, the traced
per-layer breakdown, every failed check) come first; the last line of
standard output is the JSON result.  With ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  The full record
of the run is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import env  # first: pins BLAS threads; exits non-zero without frpsim sources

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import runner
import stats
import tracing
from workloads import OUT, WORKLOADS

E2E_METRICS = (("setup_s", "s"), ("cycle_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics in the result line; times only for layers every workload calls
PER_LAYER = (
    ("milp.highs_s", "s"), ("milp.overhead_s", "s"), ("ucbase.line_limits_s", "s"),
    ("ucbase.build_s", "s"), ("ucbase.extract_s", "s"), ("fmm.build_s", "s"),
    ("network.ptdf_s", "s"), ("scenarios.sample_s", "s"),
    ("milp.solves", "count"), ("milp.rows", "count"), ("milp.cols", "count"),
    ("milp.nnz", "count"), ("milp.mip_nodes", "count"), ("milp.mip_gap_max", "ratio"),
    ("milp.nonoptimal", "count"), ("ucbase.line_rows", "count"),
    ("ucbase.line_rows_binding_frac", "ratio"), ("fmm.cut_rounds", "count"),
    ("fmm.cuts", "count"), ("fmm.cuts_binding_frac", "ratio"),
    ("learner.rows", "count"), ("learner.steps", "count"),
)


def calibrate() -> float:
    """Seconds for a fixed loop of Python and small BLAS: a machine-speed
    probe printed beside the result, not a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    a = np.random.default_rng(0).random((200, 200))
    for _ in range(80):
        a = a @ a
        a /= a.max()
    return time.perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((env.SRC / "frpsim").rglob("*.py")):
        h.update(path.relative_to(env.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args) -> dict:
    commit = ""
    if (env.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit or "unknown (not a git checkout)",
        "frpsim_source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in env.BLAS_THREAD_VARS},
    }


def breakdown(res: runner.Result) -> list[str]:
    """Per span name: calls, inclusive and self seconds per cycle (set-up once)."""
    own, incl = res.tracer.totals({"cycle": res.cycles})
    calls: dict[str, int] = {}
    for s in res.tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    lines = [f"{'span':34s} {'calls':>7s} {'incl_s':>10s} {'self_s':>10s}"]
    for name in sorted(own, key=lambda n: -own[n]):
        lines.append(f"{name:34s} {calls[name]:7d} {incl[name]:10.4f} {own[name]:10.4f}")
    lines.append("per unit: wall s, solves, largest model, then the largest self times")
    index = {id(s): i for i, s in enumerate(res.tracer.spans)}
    for root, parts in res.tracer.by_unit():
        sizes = [z[1:] for z in res.tracer.solve_sizes if z[0] == index[id(root)]]
        rows, cols, nnz = max(sizes) if sizes else (0, 0, 0)
        top = sorted(parts.items(), key=lambda kv: -kv[1])[:6]
        lines.append(f"  {root.name} {root.end - root.start:.3f} s, {len(sizes)} solves, "
                     f"{cols} cols x {rows} rows ({nnz} nnz): "
                     + ", ".join(f"{n} {v:.3f}" for n, v in top))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record = run_record(args)
    print("run record:", json.dumps(record, sort_keys=True), flush=True)
    record["calibration_s_before"] = calibrate()
    res = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                     runner.load_reference())
    record["calibration_s_after"] = calibrate()
    print(f"calibration loop (diagnostic, not a metric): "
          f"{record['calibration_s_before']:.4f} s before, "
          f"{record['calibration_s_after']:.4f} s after")

    print(f"setup_s: {stats.describe(res.setup_times)}")
    print(f"cycle_s: {stats.describe(res.cycle_times)} (cycles={res.cycles})")
    for metric, values in sorted(res.samples.items()):
        print(f"{metric}: {stats.describe(values)}")
    fits = [s.end - s.start for s in res.tracer.spans if s.name == "learner.train"]
    if fits:
        print(f"mlp_fit_s: {stats.describe(fits)}")
    failed_frac = res.failed / res.attempted if res.attempted else 1.0
    print(f"units attempted={res.attempted} failed={res.failed} failed_frac={failed_frac:g}")
    for p in res.problems:
        print("CHECK FAILED:", p)

    detail = {"record": record, "setup_times": res.setup_times,
              "cycle_times": res.cycle_times, "samples": dict(res.samples),
              "problems": res.problems, "values": res.first_values}
    if args.trace:
        layers = tracing.layer_metrics(res.tracer, res.cycles)
        for line in breakdown(res):
            print(line)
        for name, value in sorted(layers.items()):
            print(f"layer {name} = {value:.6g}")
        detail["layers"] = layers
        detail["spans"] = [vars(s) for s in res.tracer.spans]
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        e2e = {"setup_s": statistics.median(res.setup_times),
               "cycle_s": statistics.median(res.cycle_times),
               "peak_rss_mb": res.peak_rss_mb}
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in E2E_METRICS}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=float))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
