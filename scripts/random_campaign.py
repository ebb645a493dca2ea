#!/usr/bin/env python3
"""Randomized equivalence campaign: certificates score each outcome against the joint LP.

Usage:
    python scripts/random_campaign.py [--cases 200] [--seed 0] [--tol 1e-6]

Generates seeded random scenarios with the benchmark's ``small_scenario``
(radial trees up to 12 nodes, convex stacks, non-binding voltages), runs
the coordinated pipeline on each, and reports how its certificate scores
the outcome as a point of the joint LP: the distribution of the primal
residuals and of the magnitudes of the duality gaps to the re-dispatch's
dual bound (the check holds |gap|, so a gap below the bound fails too). A seed
whose scenario is infeasible (its firm load cannot clear, say) is reported
with the solver's message and counted apart; it enters neither the pass
count nor the statistics. Exit code 0 when every feasible case passes.
"""

import argparse
import importlib.util
import sys
import time
from pathlib import Path

from gridcoord import InfeasibleError, check_equivalence

_GEN = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
_gen = importlib.util.module_from_spec(_GEN)
_GEN.loader.exec_module(_gen)
small_scenario = _gen.small_scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0, help="first seed of the batch")
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args(argv)

    start = time.time()
    residuals, gaps, failures, infeasible = [], [], [], []
    for seed in range(args.seed, args.seed + args.cases):
        try:
            report = check_equivalence(small_scenario(seed), tolerance=args.tol).equivalence
        except InfeasibleError as exc:
            infeasible.append(seed)
            print(f"seed {seed}: infeasible ({exc})")
            continue
        residuals.append(report.primal_residual)
        gaps.append(abs(report.duality_gap))
        if not report.passed:
            failures.append(seed)
            print(f"seed {seed}: FAIL (primal residual {report.primal_residual:.3g}, "
                  f"duality gap {report.duality_gap:.3g})")

    n = len(residuals)
    print(f"\n{n - len(failures)}/{n} cases equivalent at tolerance {args.tol:g}")
    if infeasible:
        print(f"  infeasible seeds left out: {', '.join(map(str, infeasible))}")
    for label, values in (("primal residual", residuals), ("|duality gap|", gaps)):
        if values:
            values.sort()
            print(f"  {label} median {values[n // 2]:.3g}, "
                  f"p95 {values[int(0.95 * (n - 1))]:.3g}, max {values[-1]:.3g}")
    print(f"  elapsed {time.time() - start:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
