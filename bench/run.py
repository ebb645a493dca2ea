#!/usr/bin/env python3
"""gridcoord benchmark: one workload, one process, one op in flight.

Usage (from the repository root):
    python3 bench/run.py --workload small_cases|large_feeder|award_sweep \\
        --seed N --seconds S --trace 0|1

Imports gridcoord from ``src/`` beside this directory and installs nothing.
Set-up (import, inputs, one untimed warm-up op) is repeated SETUP_REPS
times. Then the workload's fixed batch of ops runs in a closed loop until
the next batch would end after ``--seconds``. Every op is checked against
``reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` batches alternate untraced and traced, and it carries the
per-layer metrics from the traced batches plus the tracing overhead. Lines
before it are a readable report. A result file (environment, all metrics,
sample counts, per-function roll-up) and, when tracing, the span file are
written under ``bench/out/``. Exit code 2, with no result line, when the
program sources or the references are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
MIN_P90_SAMPLES = 100  # op_p90_s needs at least ten samples beyond it


def _get(r: dict, name: str, field: str) -> float:
    return r.get(name, {}).get(field, 0)


# Per-layer metrics, from the roll-up of one traced batch. Counts repeat
# exactly; times are the median over the run's traced batches. These are
# on the path of every workload, so none is structurally zero.
PER_LAYER = {
    "lp.solve.calls": ("count", lambda r: _get(r, "lp.solve", "calls")),
    "lp.solve.failed": ("count", lambda r: _get(r, "lp.solve", "note")
                        + _get(r, "lp.solve", "raised")),
    "lp.solve.self_s": ("s", lambda r: _get(r, "lp.solve", "self_s")),
    "lp.linprog.busy_s": ("s", lambda r: _get(r, "lp.linprog", "busy_s")),
    "lp.linprog.iterations": ("count", lambda r: _get(r, "lp.linprog", "note")),
    "dso.build_bid_curve.solves": ("count", lambda r: _get(r, "dso.build_bid_curve", "solves")),
    "dso.curve.segments": ("count", lambda r: _get(r, "dso.build_bid_curve", "note")),
    "dso.solves_per_segment": ("ratio", lambda r: _get(r, "dso.build_bid_curve", "solves")
                               / max(1, _get(r, "dso.build_bid_curve", "note"))),
    "dso.value_at.calls": ("count", lambda r: _get(r, "dso.value_at", "calls")),
    "dso.value_at.busy_s": ("s", lambda r: _get(r, "dso.value_at", "busy_s")),
    "dso.value_at.solves": ("count", lambda r: _get(r, "dso.value_at", "solves")),
    "distflow.build_constraints.calls":
        ("count", lambda r: _get(r, "distflow.build_constraints", "calls")),
    "distflow.build_constraints.self_s":
        ("s", lambda r: _get(r, "distflow.build_constraints", "self_s")),
    "model.derived_incidence.calls":
        ("count", lambda r: _get(r, "model.derived_incidence", "calls")),
    "model.derived_incidence.busy_s":
        ("s", lambda r: _get(r, "model.derived_incidence", "busy_s")),
    "model.require_valid.calls": ("count", lambda r: _get(r, "model.require_valid", "calls")),
    "model.require_valid.busy_s": ("s", lambda r: _get(r, "model.require_valid", "busy_s")),
    "iso.clear.busy_s": ("s", lambda r: _get(r, "iso.clear", "busy_s")),
    "iso.clear.self_s": ("s", lambda r: _get(r, "iso.clear", "self_s")),
}
# Layers that only some workloads reach: reported in the readable output and
# the result file, but left out of the result line, where a time that is
# zero on every run of a workload would read as not measured.
PARTIAL_LAYER = {
    "coordination.run_ideal.busy_s": ("s", lambda r: _get(r, "coordination.run_ideal", "busy_s")),
    "coordination.check_equivalence.self_s":
        ("s", lambda r: _get(r, "coordination.check_equivalence", "self_s")),
    "caseio.parse_case.busy_s": ("s", lambda r: _get(r, "caseio.parse_case", "busy_s")),
    "cli.main.self_s": ("s", lambda r: _get(r, "cli.main", "self_s")),
}


def layer_metrics(rollups: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced batches, and any count that varied."""
    out, varied = {}, []
    for name, (unit, get) in {**PER_LAYER, **PARTIAL_LAYER}.items():
        values = [get(r) for r in rollups]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
        else:
            out[name] = (values[0], unit)
            if len(set(values)) > 1:
                varied.append(name)
    return out, varied


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def src_digest() -> str:
    """sha256 over the program sources, standing in for the commit id."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gridcoord").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        cpu = platform.processor() or cpu
    return {"commit": src_digest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small_cases", "large_feeder", "award_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridcoord" / "__init__.py").is_file():
        fail(f"program sources not found at {SRC / 'gridcoord'}")
    if not (HERE / "reference.json").is_file():
        fail("reference.json not found beside the benchmark")

    # One thread: the workloads measure a single closed-loop client.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("GRIDCOORD_TOL", None)  # the case files' tolerances apply

    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import gridcoord
    import gridcoord.cli  # noqa: F401  (imported by the CLI workload's ops)
    import_s = time.perf_counter() - t0
    if Path(gridcoord.__file__).resolve().parent != SRC / "gridcoord":
        fail(f"imported gridcoord from {gridcoord.__file__}, not from {SRC}")

    import tracing
    import workloads

    reference = workloads.load_reference()
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        prepared = workloads.PREPARE[args.workload](args.seed)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    tracer = tracing.Tracer() if args.trace else None
    steps = ([prepared.first] if prepared.first else []) + prepared.ops
    batch_times, traced_times, op_times, rollups = [], [], [], []
    first_fps = None
    attempted = failed = 0
    problems_seen: list[str] = []
    start = time.perf_counter()
    while True:
        # With tracing, batches alternate untraced / traced, untraced first.
        traced = tracer is not None and len(batch_times) > len(traced_times)
        if traced:
            tracer.install()
        fps, lat = [], []
        t_batch = time.perf_counter()
        for op in steps:
            t = time.perf_counter()
            fps.append(workloads.guard(op.run))
            lat.append(time.perf_counter() - t)
        batch_s = time.perf_counter() - t_batch
        if traced:
            tracer.uninstall()
            traced_times.append(batch_s)
            rollups.append(tracing.rollup(tracer.batches[-1]))
        else:
            batch_times.append(batch_s)
            op_times.extend(lat[1:] if prepared.first else lat)

        # Checks run outside the timed batch.
        first_problems = []
        for i, (op, fp) in enumerate(zip(steps, fps)):
            problems = workloads.check(fp, workloads.reference_for(reference, op.key),
                                       op.tolerance)
            if i == 0 and prepared.first:
                first_problems = problems
            elif first_problems:
                problems.append(f"batch step {steps[0].key} failed")
            if first_fps is not None and fp != first_fps[i]:
                problems.append("result differs from the run's first (untraced) batch")
            attempted += 1
            if problems:
                failed += 1
                if len(problems_seen) < 10:
                    problems_seen.append(f"{op.key}: {'; '.join(problems)}")
        if first_fps is None:
            first_fps = fps

        elapsed = time.perf_counter() - start
        if (not tracer or traced_times) and elapsed + batch_s > args.seconds:
            break

    env = environment()
    n_ops = len(op_times)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(batch_times), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = statistics.quantiles(op_times, n=10)[8] if n_ops >= MIN_P90_SAMPLES else None
    report = {
        "op_p90_s": None if p90 is None else (p90, "s"),
        "fail_rate": (failed / attempted, "ratio"),
    }
    samples = {"setup_s": SETUP_REPS, "wall_s": len(batch_times), "op_p50_s": n_ops,
               "op_p90_s": n_ops, "peak_rss_mb": 1, "fail_rate": attempted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, value in {**e2e, **report}.items():
        if value is None:
            print(f"  {name:<40} n/a (only {n_ops} ops; needs {MIN_P90_SAMPLES})")
        else:
            print(f"  {name:<40} {value[0]:.6g} {value[1]}  (n={samples[name]})")
    for line in problems_seen:
        print(f"  FAILED {line}")

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": attempted,
              "failed": failed, "samples": samples,
              "end_to_end": {k: v[0] for k, v in {**e2e, **report}.items() if v},
              "batch_times_s": batch_times}
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}

    if tracer is not None:
        per_layer, varied = layer_metrics(rollups)
        per_layer["trace.overhead_s"] = (
            statistics.median(traced_times) - statistics.median(batch_times), "s")
        modules = tracing.module_self_time(rollups[0])
        print(f"per-layer metrics (n={len(traced_times)} traced batches, "
              f"{sum(len(b) for b in tracer.batches)} spans):")
        for name, (value, unit) in per_layer.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        for name in varied:
            print(f"  WARNING count {name} differs between traced batches")
        print("self time by layer, first traced batch:")
        for layer, value in modules.items():
            print(f"  {layer:<40} {value:.6g} s")
        result.update(per_layer={k: v[0] for k, v in per_layer.items()},
                      per_function=rollups, module_self_s=modules,
                      traced_batch_times_s=traced_times)
        metrics = {name: {"value": per_layer[name][0], "unit": per_layer[name][1]}
                   for name in (*PER_LAYER, "trace.overhead_s")}
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")

    workloads.OUT_DIR.mkdir(exist_ok=True)
    out = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
