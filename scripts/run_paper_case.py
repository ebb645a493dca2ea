#!/usr/bin/env python3
"""Reproduce the bundled reference case end to end and print every table.

Usage:
    python scripts/run_paper_case.py [--case paper_reference] [--out results/]

Prints the bid curve (breakpoints and marginal steps), the wholesale
clearing, the aggregator re-dispatch, the joint-dispatch benchmark (one
solve of the joint LP, by ``run_ideal``), and the equivalence report, which
certifies the coordinated outcome without that solve. With --out, also
writes the files of ``gridcoord coordinate`` and ``gridcoord verify`` (CSV),
from the same result and with the CLI's own writers, so the numbers can be
plotted. Exits 0 on PASS, 2 on FAIL, and 1 when the case cannot be loaded
or the files cannot be written.
"""

import argparse
import sys
from pathlib import Path

from gridcoord import CaseFileError, ValidationError, check_equivalence, parse_case, run_ideal
from gridcoord.cli import write_coordination, write_equivalence_report


def table(title, rows, headers):
    print(f"\n{title}")
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
              for i, h in enumerate(headers)]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + "  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", default="paper_reference")
    parser.add_argument("--out", type=Path, help="also write CSV artifacts here")
    args = parser.parse_args(argv)

    try:
        scenario = parse_case(args.case)
    except (CaseFileError, ValidationError, OSError) as exc:
        print(f"run_paper_case: error: {exc}", file=sys.stderr)
        return 1
    result = check_equivalence(scenario)
    curve = result.bid_curve

    table(
        "Bid curve (total operating cost vs net export)",
        [(f"{q:.4f}", f"{c:.4f}") for q, c in curve.breakpoints],
        ["q_mw", "total_cost"],
    )
    table(
        "Marginal offer submitted to the wholesale market",
        [(f"{seg.q_lo:.4f}", f"{seg.q_hi:.4f}", f"{seg.price:.2f}")
         for seg in curve.segments],
        ["from_mw", "to_mw", "price"],
    )
    table(
        "Wholesale outcome (coordinated)",
        [(wp.id, f"{result.iso.cleared[wp.id]:.4f}") for wp in scenario.wholesale]
        + [("DSO", f"{result.iso.dso_awards[0]:.4f}")],
        ["participant", "share_mw"],
    )
    print(f"\n  clearing price: {result.iso.clearing_price:.4f} $/MWh")
    table(
        "Aggregator re-dispatch at the award",
        [(agg.id, f"{result.dso_dispatch.aggregator_dispatch[agg.id]:.4f}")
         for agg in scenario.aggregators],
        ["aggregator", "share_mw"],
    )
    ideal = run_ideal(scenario)
    table(
        "Joint dispatch (direct participation benchmark)",
        [(wp.id, f"{ideal.cleared[wp.id]:.4f}") for wp in scenario.wholesale]
        + [(agg.id, f"{ideal.aggregator_dispatch[agg.id]:.4f}")
           for agg in scenario.aggregators],
        ["participant", "share_mw"],
    )
    print(f"\n  clearing price: {ideal.clearing_price:.4f} $/MWh")

    report = result.equivalence
    print(
        f"\nEquivalence: {'PASS' if report.passed else 'FAIL'} "
        f"(max deviation {report.max_deviation:.3g}, tolerance {report.tolerance:g})"
    )
    print(f"  objective coordinated: {report.objective_coordinated:.6f} $/h")
    print(f"  dual bound:            {report.dual_objective:.6f} $/h")
    print(f"  duality gap:           {report.duality_gap:.3g} $/h")
    print(f"  primal residual:       {report.primal_residual:.3g}")
    print(f"  joint LP optimum:      {ideal.objective:.6f} $/h")

    if args.out:
        try:
            write_coordination(scenario, result, args.out)
            write_equivalence_report(report, args.out)
        except OSError as exc:
            print(f"run_paper_case: error: {exc}", file=sys.stderr)
            return 1
        print(f"\nartifacts written to {args.out}")
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
