"""Command-line front end: case ingestion, subcommands, deterministic emission.

Exit codes: 0 success, 1 usage/parse/validation problem, 2 verification
failure, 3 infeasible problem, 4 solver failure. The environment variable
GRIDCOORD_TOL overrides a case file's default tolerance.

Tabular outputs are CSV by default (header row, '.' decimal, LF endings,
6 decimal places) or JSON record lists with ``--format json``; repeated runs
on the same input produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .caseio import CaseFileError, parse_case
from .coordination import (CoordinationResult, EquivalenceReport, check_equivalence,
                           run_coordinated, run_ideal)
from .dso import BidCurve, build_bid_curve
from .iso import IsoOutcome, clear
from .lp import InfeasibleError, SolverError
from .model import Scenario, ValidationError, require_valid


def _fmt(value: float) -> str:
    return f"{value + 0.0:.6f}"  # + 0.0 normalizes -0.0


def _write_table(path: Path, header: list[str], rows: list[tuple], fmt: str) -> Path:
    if fmt == "json":
        path = path.with_suffix(".json")
        records = []
        for row in rows:
            rec = {}
            for key, value in zip(header, row):
                rec[key] = float(_fmt(value)) if isinstance(value, float) else value
            records.append(rec)
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


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
    _write_table(out / "bid_curve.csv", ["q_mw", "total_cost", "marginal_price"],
                 _curve_rows(curve), fmt)
    _write_table(out / "breakpoints.csv", ["q_mw", "total_cost"],
                 [(q, c) for q, c in curve.breakpoints], fmt)


def read_curve(path: str | Path) -> BidCurve:
    """Reload a curve written by ``dso-bid``/``coordinate`` (CSV or JSON)."""
    path = Path(path)
    if not path.exists():
        raise CaseFileError(f"curve file not found: {path}")
    try:
        if path.suffix == ".json":
            records = json.loads(path.read_text())
            rows = [(float(r["q_mw"]), float(r["total_cost"]), float(r["marginal_price"]))
                    for r in records]
        else:
            lines = path.read_text().splitlines()
            if not lines or lines[0].split(",") != ["q_mw", "total_cost", "marginal_price"]:
                raise CaseFileError(f"{path}: expected header q_mw,total_cost,marginal_price")
            rows = []
            for ln, line in enumerate(lines[1:], start=2):
                cells = line.split(",")
                if len(cells) != 3:
                    raise CaseFileError(f"{path}:{ln}: expected 3 columns")
                rows.append(tuple(float(c) for c in cells))
    except (ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, CaseFileError):
            raise
        raise CaseFileError(f"{path}: malformed curve file ({exc})") from exc
    if not rows:
        raise CaseFileError(f"{path}: curve file has no data rows")
    curve = BidCurve(
        breakpoints=tuple((q, c) for q, c, _ in rows),
        prices=tuple(p for _, _, p in rows[:-1]),
    )
    problems = curve.violations()
    if problems:
        raise CaseFileError(f"{path}: " + "; ".join(problems))
    return curve


def load_scenario(case: str) -> Scenario:
    """Parse a case file or bundled case; GRIDCOORD_TOL, when set, overrides its tolerance."""
    scenario = parse_case(case)
    tol_env = os.environ.get("GRIDCOORD_TOL")
    if tol_env is not None:
        try:
            scenario = replace(scenario, tolerance=float(tol_env))
        except ValueError:
            raise CaseFileError(f"GRIDCOORD_TOL is not a number: {tol_env!r}")
        require_valid(scenario)  # iso-clear never reaches the DSO model's validation
    return scenario


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
        [(agg.id, result.dso_dispatch.by_aggregator[agg.id]) for agg in scenario.aggregators],
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
    """The file of ``verify``: equivalence_report.json."""
    doc = {
        "passed": report.passed,
        "tolerance": report.tolerance,
        "objective_ideal": report.objective_ideal,
        "objective_coordinated": report.objective_coordinated,
        "max_deviation": report.max_deviation,
        "primal_residual": report.primal_residual,
        "participants": [
            {
                "name": row.name,
                "ideal_mw": row.ideal,
                "coordinated_mw": row.coordinated,
                "deviation": row.deviation,
            }
            for row in report.rows
        ],
    }
    with open(out / "equivalence_report.json", "w", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _cmd_dso_bid(args) -> int:
    scenario = load_scenario(args.case)
    curve = build_bid_curve(scenario)
    _write_curve(curve, args.out, args.format)
    print(f"bid curve: {len(curve.prices)} segments on "
          f"[{_fmt(curve.q_min)}, {_fmt(curve.q_max)}] MW")
    return 0


def _cmd_iso_clear(args) -> int:
    scenario = load_scenario(args.case)
    curve = read_curve(args.curve)
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    _write_table(args.out / "iso_outcome.csv", ["participant", "cleared_mw"],
                 _iso_rows(scenario, outcome), args.format)
    print(f"clearing price: {_fmt(outcome.clearing_price)} $/MWh")
    return 0


def _cmd_coordinate(args) -> int:
    scenario = load_scenario(args.case)
    result = run_coordinated(scenario)
    write_coordination(scenario, result, args.out, args.format)
    print(f"clearing price: {_fmt(result.iso.clearing_price)} $/MWh")
    print(f"dso award: {_fmt(result.iso.dso_awards[0])} MW")
    return 0


def _cmd_ideal(args) -> int:
    scenario = load_scenario(args.case)
    outcome = run_ideal(scenario)
    rows: list[tuple] = [(wp.id, outcome.cleared[wp.id]) for wp in scenario.wholesale]
    rows += [(agg.id, outcome.aggregator_dispatch[agg.id]) for agg in scenario.aggregators]
    _write_table(args.out / "ideal_outcome.csv", ["participant", "cleared_mw"], rows, args.format)
    print(f"clearing price: {_fmt(outcome.clearing_price)} $/MWh")
    print(f"dso exchange: {_fmt(outcome.net_export)} MW")
    return 0


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.case)
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

    p = sub.add_parser("verify", help="check coordinated vs ideal equivalence")
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
        args.out.mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except (CaseFileError, ValidationError, ValueError) as exc:
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
