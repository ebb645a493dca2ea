#!/usr/bin/env python3
"""Regenerate bench/reference.json: the results every benchmark op is checked against.

Usage (from the repository root):
    python3 bench/make_reference.py

Runs every op any seed can select (the bundled cases, the small-scenario
pool, the feeder pool, the award-sweep curve and all its ladders) once and
stores the numbers it produced. An op that raises or fails its own checks
at this commit is stored as an error and counts as failed in every run.
Only regenerate when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def record(op: wl.Op) -> dict:
    fp = wl.guard(op.run)
    if "error" in fp:
        return fp
    problems = wl.check(fp, {}, op.tolerance)
    if problems:
        return {"error": "; ".join(problems)}
    return {k: v for k, v in fp.items() if k not in ("curve_cost", "passed")}


def main() -> int:
    ref: dict = {"program": run.src_digest(), "cases": {}, "small": {}, "feeder": {},
                 "sweep": {"phases": {}}}
    small = wl.prepare_small_cases(0)
    for op in small.ops[:len(wl.caseio.BUNDLED_CASES)]:
        ref["cases"][op.key.partition(":")[2]] = record(op)
    for s in range(wl.SMALL_POOL + wl.SMALL_BATCH - 1):
        ref["small"][str(s)] = record(wl.small_op(s))
    for k in range(wl.FEEDER_POOL):
        ref["feeder"][str(k)] = record(wl.prepare_large_feeder(k).ops[0])
        print(f"feeder {k} done", file=sys.stderr)
    for phase in range(gen.SWEEP_PHASES):
        sweep = wl.prepare_award_sweep(phase)
        ref["sweep"]["curve"] = record(sweep.first)
        ref["sweep"]["phases"][str(phase)] = [
            fp if "error" in fp else [fp[f] for f in wl.SWEEP_FIELDS]
            for fp in map(record, sweep.ops)]
    errors = [f"{group}:{key}" for group in ("cases", "small", "feeder")
              for key, fp in ref[group].items() if "error" in fp]
    errors += [f"sweep:{phase}:{i}" for phase, rows in ref["sweep"]["phases"].items()
               for i, row in enumerate(rows) if isinstance(row, dict)]
    print(f"{len(errors)} ops failed: {errors}", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
