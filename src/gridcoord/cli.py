"""Command-line front end: case ingestion, subcommands, deterministic emission.

Exit codes: 0 success, 1 usage/parse/validation problem, 2 verification
failure, 3 infeasible problem, 4 solver failure.

Tabular outputs are CSV by default (header row, '.' decimal, LF endings,
6 decimal places) or JSON record lists with ``--format json``; repeated runs
on the same input produce byte-identical files. The two curve files,
``bid_curve`` and ``breakpoints``, hold round-trip floats (``repr``)
instead, so ``iso-clear --curve`` clears the very curve ``coordinate``
clears.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .caseio import CaseFileError, CaseSyntaxError, _get, parse_case
from .coordination import (CoordinationResult, EquivalenceReport, check_equivalence,
                           run_coordinated, run_ideal)
from .dso import BidCurve, build_bid_curve
from .iso import IsoOutcome, clear
from .lp import InfeasibleError, SolverError
from .model import Scenario, ValidationError


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"  # + 0.0 normalizes -0.0


def _exact(value: float) -> str:
    return repr(float(value) + 0.0)  # + 0.0 normalizes -0.0


def _write_table(path: Path, header: list[str], rows: list[tuple], fmt: str,
                 number=_fmt) -> None:
    """Write ``rows`` under ``header``; ``number`` spells each float."""
    if fmt == "json":
        path = path.with_suffix(".json")
        records = []
        for row in rows:
            rec = {}
            for key, value in zip(header, row):
                rec[key] = float(number(value)) if isinstance(value, float) else value
            records.append(rec)
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(v if isinstance(v, str) else number(v) for v in row))
        text = "\n".join(lines) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)  # only once there is a result to write
    path.write_text(text, encoding="utf-8", newline="\n")


def _curve_rows(curve: BidCurve) -> list[tuple]:
    rows = []
    for i, (q, cost) in enumerate(curve.breakpoints):
        if curve.prices:
            price = curve.prices[min(i, len(curve.prices) - 1)]  # right segment; last repeats
        else:
            price = 0.0
        rows.append((q, cost, price))
    return rows


def _write_curve(curve: BidCurve, out: Path, fmt: str) -> None:
    """The curve files, in round-trip floats: ``read_curve`` gives back ``curve`` itself."""
    _write_table(out / "bid_curve.csv", ["q_mw", "total_cost", "marginal_price"],
                 _curve_rows(curve), fmt, _exact)
    _write_table(out / "breakpoints.csv", ["q_mw", "total_cost"],
                 [(q, c) for q, c in curve.breakpoints], fmt, _exact)


def read_curve(path: str | Path) -> BidCurve:
    """Reload a written curve (CSV or JSON): each row's price but the last is its exact slope."""
    path = Path(path)
    if not path.exists():
        raise CaseFileError(f"curve file not found: {path}")
    rows = {}  # where a row is, for messages: its (q_mw, total_cost, marginal_price)
    try:
        if path.suffix == ".json":
            records = json.loads(path.read_text(encoding="utf-8-sig"))
            if not isinstance(records, list):
                raise CaseFileError(f"{path}: expected a list of records")
            for i, r in enumerate(records):
                rows[f"{path}[{i}]"] = tuple(_get(r, key, float, f"{path}[{i}]")
                                             for key in ("q_mw", "total_cost", "marginal_price"))
        else:
            lines = path.read_text(encoding="utf-8-sig").splitlines()
            if not lines or lines[0].split(",") != ["q_mw", "total_cost", "marginal_price"]:
                raise CaseFileError(f"{path}: expected header q_mw,total_cost,marginal_price")
            for ln, line in enumerate(lines[1:], start=2):
                if not line.strip():
                    continue
                cells = line.split(",")
                if len(cells) != 3:
                    raise CaseFileError(f"{path}:{ln}: expected 3 columns")
                rows[f"{path}:{ln}"] = tuple(float(c) for c in cells)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        if isinstance(exc, CaseFileError):
            raise
        raise CaseSyntaxError(f"{path}: malformed curve file ({exc})") from exc
    curve = BidCurve(breakpoints=tuple((q, c) for q, c, _ in rows.values()))
    problems = curve.violations()
    if problems:
        raise CaseFileError(f"{path}: " + "; ".join(problems))
    for (where, (_, _, price)), slope in zip(rows.items(), curve.prices):
        if price != slope:
            raise CaseFileError(f"{where}: marginal_price {price!r} is not the slope {slope!r}")
    return curve


def _iso_rows(scenario: Scenario, outcome: IsoOutcome) -> list[tuple]:
    rows: list[tuple] = [(wp.id, outcome.cleared[wp.id]) for wp in scenario.wholesale]
    rows.append(("DSO", outcome.dso_awards[0]))
    return rows


def write_coordination(scenario: Scenario, result: CoordinationResult, out: Path,
                       fmt: str = "csv") -> None:
    """The files of ``coordinate``: curve, clearing, re-dispatch and retail prices."""
    _write_curve(result.bid_curve, out, fmt)
    _write_table(out / "iso_outcome.csv", ["participant", "cleared_mw"],
                 _iso_rows(scenario, result.iso), fmt)
    _write_table(
        out / "dso_dispatch.csv",
        ["aggregator", "mw"],
        [(agg.id, result.dso_dispatch.aggregator_dispatch[agg.id]) for agg in scenario.aggregators],
        fmt,
    )
    _write_table(
        out / "retail_prices.csv",
        ["node", "price"],
        [(str(i), result.dso_dispatch.retail_prices[i])
         for i in range(scenario.network.n_nodes)],
        fmt,
    )


def write_equivalence_report(report: EquivalenceReport, out: Path) -> None:
    """The file of ``verify``: equivalence_report.json.

    A failed check can carry an infinite bound or gap (or NaN, for a point
    missing a column); JSON has no such numbers, so they are written as null.
    """
    numbers = {
        "tolerance": report.tolerance,
        "objective_coordinated": report.objective_coordinated,
        "dual_objective": report.dual_objective,
        "duality_gap": report.duality_gap,
        "max_deviation": report.max_deviation,
        "primal_residual": report.primal_residual,
    }
    doc = {"passed": report.passed,
           **{k: v if math.isfinite(v) else None for k, v in numbers.items()}}
    out.mkdir(parents=True, exist_ok=True)
    (out / "equivalence_report.json").write_text(
        json.dumps(doc, indent=2, allow_nan=False) + "\n", encoding="utf-8", newline="\n")


def _cmd_dso_bid(args) -> int:
    scenario = parse_case(args.case)
    curve = build_bid_curve(scenario)
    _write_curve(curve, args.out, args.format)
    print(f"bid curve: {len(curve.prices)} segments on "
          f"[{_fmt(curve.q_min)}, {_fmt(curve.q_max)}] MW")
    return 0


def _cmd_iso_clear(args) -> int:
    scenario = parse_case(args.case)
    curve = read_curve(args.curve)
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    _write_table(args.out / "iso_outcome.csv", ["participant", "cleared_mw"],
                 _iso_rows(scenario, outcome), args.format)
    print(f"clearing price: {_fmt(outcome.clearing_price)} $/MWh")
    return 0


def _cmd_coordinate(args) -> int:
    scenario = parse_case(args.case)
    result = run_coordinated(scenario)
    write_coordination(scenario, result, args.out, args.format)
    print(f"clearing price: {_fmt(result.iso.clearing_price)} $/MWh")
    print(f"dso award: {_fmt(result.iso.dso_awards[0])} MW")
    return 0


def _cmd_ideal(args) -> int:
    scenario = parse_case(args.case)
    outcome = run_ideal(scenario)
    rows: list[tuple] = [(wp.id, outcome.cleared[wp.id]) for wp in scenario.wholesale]
    rows += [(agg.id, outcome.aggregator_dispatch[agg.id]) for agg in scenario.aggregators]
    _write_table(args.out / "ideal_outcome.csv", ["participant", "cleared_mw"], rows, args.format)
    print(f"clearing price: {_fmt(outcome.clearing_price)} $/MWh")
    print(f"dso exchange: {_fmt(outcome.net_export)} MW")
    return 0


def _cmd_verify(args) -> int:
    scenario = parse_case(args.case)
    report = check_equivalence(scenario, tolerance=args.tol).equivalence
    write_equivalence_report(report, args.out)
    status = "PASS" if report.passed else "FAIL"
    print(f"equivalence: {status} (max deviation {report.max_deviation:.3g}, "
          f"tolerance {report.tolerance:g})")
    return 0 if report.passed else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gridcoord", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--case", required=True, help="case file path or bundled case name")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("dso-bid", help="build and export the bid curve")
    common(p)
    p.set_defaults(func=_cmd_dso_bid)

    p = sub.add_parser("iso-clear", help="clear the wholesale market against a saved curve")
    common(p)
    p.add_argument("--curve", required=True, help="bid_curve file from dso-bid")
    p.set_defaults(func=_cmd_iso_clear)

    p = sub.add_parser("coordinate", help="full pipeline: curve, clearing, re-dispatch")
    common(p)
    p.set_defaults(func=_cmd_coordinate)

    p = sub.add_parser("ideal", help="joint dispatch with aggregators bidding directly")
    common(p)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("verify", help="certify the coordinated outcome as a joint optimum")
    common(p)
    p.add_argument("--tol", type=float, help="deviation tolerance (default: case tolerance)")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CaseFileError, ValidationError, ValueError, OSError) as exc:
        print(f"gridcoord: error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"gridcoord: infeasible: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"gridcoord: solver failure: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
