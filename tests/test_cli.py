import json
import math
import os
import subprocess
import sys

import pytest

import gridcoord.cli as cli
from gridcoord.caseio import resolve_case_path
from gridcoord.cli import main, read_curve, write_equivalence_report
from gridcoord.coordination import EquivalenceReport
from gridcoord.dso import build_bid_curve
from gridcoord.caseio import parse_case

from support import force_equivalence_failure, random_scenario, scale_prices, unreadable_case

EXPECTED_BREAKPOINTS = [-1.5, -0.5, 0.7, 1.2, 3.2, 5.7]


def run(argv, capsys=None):
    code = main(argv)
    return code


def read(path):
    return path.read_bytes()


def test_dso_bid_writes_breakpoints(tmp_path):
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "breakpoints.csv").read_text().splitlines()
    assert lines[0] == "q_mw,total_cost"
    qs = [float(line.split(",")[0]) for line in lines[1:]]
    assert qs == pytest.approx(EXPECTED_BREAKPOINTS, abs=1e-3)
    curve_lines = (tmp_path / "bid_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "q_mw,total_cost,marginal_price"
    assert len(curve_lines) == 7  # header + 6 breakpoints


def test_iso_clear_against_saved_curve(tmp_path, capsys):
    run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path)])
    code = run([
        "iso-clear", "--case", "paper_reference",
        "--curve", str(tmp_path / "bid_curve.csv"), "--out", str(tmp_path),
    ])
    assert code == 0
    assert "clearing price: 22.000000" in capsys.readouterr().out
    rows = dict(
        line.split(",") for line in
        (tmp_path / "iso_outcome.csv").read_text().splitlines()[1:]
    )
    assert rows["DSO"] == "1.200000"
    assert rows["Gen3"] == "13.800000"


def test_saved_curve_round_trips(tmp_path):
    run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path)])
    curve = read_curve(tmp_path / "bid_curve.csv")
    reference = build_bid_curve(parse_case("paper_reference"))
    assert list(curve.prices) == pytest.approx(list(reference.prices), abs=1e-6)
    assert [q for q, _ in curve.breakpoints] == pytest.approx(
        [q for q, _ in reference.breakpoints], abs=1e-6
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_saved_curve_clears_like_coordinate(tmp_path, capsys, monkeypatch, fmt):
    # At $/kWh, seed 398's wholesale offer sits 1e-7 below a segment's price,
    # so a curve file rounded to 6 decimals moved its award by 20 %.
    scenario = scale_prices(random_scenario(398), 1e-3)
    monkeypatch.setattr(cli, "parse_case", lambda case: scenario)
    common = ["--case", "seed398", "--format", fmt]
    assert run(["dso-bid", *common, "--out", str(tmp_path / "bid")]) == 0
    curve = tmp_path / "bid" / f"bid_curve.{fmt}"
    assert read_curve(curve) == build_bid_curve(scenario)
    capsys.readouterr()
    assert run(["iso-clear", *common, "--curve", str(curve), "--out", str(tmp_path / "split")]) == 0
    split = capsys.readouterr().out
    assert run(["coordinate", *common, "--out", str(tmp_path / "joint")]) == 0
    joint = capsys.readouterr().out
    assert split.splitlines()[0] == joint.splitlines()[0]  # the clearing price
    assert read(tmp_path / "split" / f"iso_outcome.{fmt}") == read(
        tmp_path / "joint" / f"iso_outcome.{fmt}")


def test_coordinate_outputs_match_aggregator_shares(tmp_path, capsys):
    assert run(["coordinate", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "clearing price: 22.000000" in out
    assert "dso award: 1.200000" in out
    dispatch = (tmp_path / "dso_dispatch.csv").read_text()
    assert "DDGAG1,0.500000" in dispatch
    assert "DRAG,2.500000" in dispatch
    for name in ("bid_curve", "breakpoints", "iso_outcome", "dso_dispatch", "retail_prices"):
        assert (tmp_path / f"{name}.csv").exists()


def test_coordinate_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["coordinate", "--case", "paper_reference", "--out", str(out1)])
    run(["coordinate", "--case", "paper_reference", "--out", str(out2)])
    for name in ("bid_curve", "breakpoints", "iso_outcome", "dso_dispatch", "retail_prices"):
        assert read(out1 / f"{name}.csv") == read(out2 / f"{name}.csv")


def test_ideal_subcommand(tmp_path):
    assert run(["ideal", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    rows = dict(
        line.split(",") for line in
        (tmp_path / "ideal_outcome.csv").read_text().splitlines()[1:]
    )
    assert rows["Gen3"] == "13.800000"
    assert rows["DDGAG3"] == "1.200000"
    assert rows["DRAG"] == "2.500000"


def test_json_format_outputs(tmp_path):
    assert run([
        "coordinate", "--case", "paper_reference", "--out", str(tmp_path),
        "--format", "json",
    ]) == 0
    records = json.loads((tmp_path / "iso_outcome.json").read_text())
    by_name = {r["participant"]: r["cleared_mw"] for r in records}
    assert by_name["DSO"] == pytest.approx(1.2)
    assert not (tmp_path / "iso_outcome.csv").exists()
    curve = read_curve(tmp_path / "bid_curve.json")
    assert len(curve.prices) == 5


def test_verify_pass_and_report(tmp_path, capsys):
    assert run(["verify", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads((tmp_path / "equivalence_report.json").read_text())
    assert report["passed"] is True
    assert report["max_deviation"] <= 1e-6
    assert report["dual_objective"] == pytest.approx(report["objective_coordinated"])
    assert report["duality_gap"] == report["objective_coordinated"] - report["dual_objective"]
    assert sorted(report) == ["dual_objective", "duality_gap", "max_deviation",
                              "objective_coordinated", "passed", "primal_residual",
                              "tolerance"]


def test_verify_fail_exit_code(tmp_path, monkeypatch):
    force_equivalence_failure(monkeypatch)
    code = run(["verify", "--case", "paper_reference", "--tol", "1e-18",
                "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "equivalence_report.json").read_text())
    assert report["passed"] is False
    assert report["tolerance"] == 1e-18


def test_an_infinite_bound_is_written_as_strict_json(tmp_path):
    report = EquivalenceReport(
        passed=False, max_deviation=math.inf, primal_residual=0.0, tolerance=1e-6,
        objective_coordinated=math.nan, dual_objective=-math.inf, duality_gap=math.inf)
    write_equivalence_report(report, tmp_path)

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    text = (tmp_path / "equivalence_report.json").read_text()
    doc = json.loads(text, parse_constant=refuse)
    assert doc == {"passed": False, "tolerance": 1e-6, "objective_coordinated": None,
                   "dual_objective": None, "duality_gap": None, "max_deviation": None,
                   "primal_residual": 0.0}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_verify_with_a_tolerance_not_finite_and_positive_exits_one(tmp_path, capsys, tol):
    code = run(["verify", "--case", "paper_reference", f"--tol={tol}", "--out", str(tmp_path)])
    assert code == 1
    assert "tolerance must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "equivalence_report.json").exists()


def test_parse_and_usage_errors_exit_one(tmp_path):
    assert run(["dso-bid", "--case", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["dso-bid", "--case", str(bad), "--out", str(tmp_path)]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["dso-bid"]) == 1  # --case required


@pytest.mark.parametrize("which", ["long-integer", "utf-16"])
def test_a_case_that_is_not_json_text_exits_one_naming_the_file(tmp_path, capsys, which):
    case = unreadable_case(tmp_path, which)
    assert run(["verify", "--case", str(case), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gridcoord: error: {case}: ")
    assert err.count("\n") == 1


def test_infeasible_case_exits_three(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["firm_load"] = 1000.0  # beyond every supply stack
    case = tmp_path / "hungry.json"
    case.write_text(json.dumps(doc))
    assert run(["coordinate", "--case", str(case), "--out", str(tmp_path)]) == 3


def test_a_case_with_a_negative_tolerance_exits_one(tmp_path, capsys):
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    curve = ["--curve", str(tmp_path / "bid_curve.csv")]
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["tolerance"] = -1
    case = tmp_path / "negative_tolerance.json"
    case.write_text(json.dumps(doc))
    for command, extra in (("dso-bid", []), ("iso-clear", curve), ("coordinate", []),
                           ("ideal", []), ("verify", [])):
        capsys.readouterr()
        argv = [command, "--case", str(case), "--out", str(tmp_path / command), *extra]
        assert run(argv) == 1, command
        assert "gridcoord: error: tolerance: must be > 0" in capsys.readouterr().err, command


@pytest.mark.parametrize("argv, message", [
    (["dso-bid", "--case", "{tmp}", "--out", "{tmp}/out"], "[Errno 21] Is a directory"),
    (["dso-bid", "--case", "paper_reference", "--out", "{tmp}/taken"], "[Errno 17] File exists"),
    (["iso-clear", "--case", "paper_reference", "--curve", "{tmp}", "--out", "{tmp}/out"],
     "[Errno 21] Is a directory"),
], ids=["case-is-a-directory", "out-is-a-file", "curve-is-a-directory"])
def test_an_os_error_exits_one(tmp_path, capsys, argv, message):
    (tmp_path / "taken").write_text("")
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert f"gridcoord: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dso-bid", "iso-clear", "coordinate", "ideal", "verify"])
def test_a_case_that_cannot_be_loaded_leaves_no_output_directory(tmp_path, capsys, command):
    out = tmp_path / "new"
    extra = ["--curve", "nope.csv"] if command == "iso-clear" else []
    assert run([command, "--case", "nope", "--out", str(out), *extra]) == 1
    assert "gridcoord: error: case file not found: nope" in capsys.readouterr().err
    assert not out.exists()


def test_verify_on_a_case_with_a_nan_load_exits_one(tmp_path, capsys):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["network"]["nodes"][1]["lp"] = float("nan")
    case = tmp_path / "nan.json"
    case.write_text(json.dumps(doc))  # written as NaN, which json reads back
    assert "NaN" in case.read_text()
    assert run(["verify", "--case", str(case), "--out", str(tmp_path)]) == 1
    assert "network.nodes[1].lp: must be finite, got nan" in capsys.readouterr().err


def test_verify_on_a_case_with_an_integer_beyond_float_range_exits_one(tmp_path, capsys):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["firm_load"] = 10**400
    case = tmp_path / "huge.json"
    case.write_text(json.dumps(doc))
    assert run(["verify", "--case", str(case), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "gridcoord: error: $.firm_load: number out of float range\n"


@pytest.mark.parametrize("column, message", [
    (2, "bid_curve.csv:4: marginal_price nan is not the slope "),
    (0, "breakpoint 2: export and cost must be finite, got (nan, "),
])
def test_iso_clear_against_a_curve_with_a_nan_exits_one(tmp_path, capsys, column, message):
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    path = tmp_path / "bid_curve.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")  # breakpoint 2, the start of segment 2
    cells[column] = "nan"
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(["iso-clear", "--case", "paper_reference", "--curve", str(path),
                "--out", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "iso_outcome.csv").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_iso_clear_against_a_curve_with_a_price_one_ulp_off_its_slope_exits_one(
        tmp_path, capsys, fmt):
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path),
                "--format", fmt]) == 0
    path = tmp_path / f"bid_curve.{fmt}"
    slope = read_curve(path).prices[1]
    off = repr(math.nextafter(slope, math.inf))
    path.write_text(path.read_text().replace(repr(slope), off, 1))
    capsys.readouterr()
    code = run(["iso-clear", "--case", "paper_reference", "--curve", str(path),
                "--out", str(tmp_path)])
    assert code == 1
    where = f"{path}:3" if fmt == "csv" else f"{path}[1]"
    assert capsys.readouterr().err == (
        f"gridcoord: error: {where}: marginal_price {off} is not the slope {slope!r}\n")
    assert not (tmp_path / "iso_outcome.csv").exists()


def test_verify_on_a_case_file_with_a_utf8_byte_order_mark(tmp_path, capsys):
    case = tmp_path / "bom.json"
    case.write_bytes(b"\xef\xbb\xbf" + resolve_case_path("paper_reference").read_bytes())
    assert run(["verify", "--case", "paper_reference", "--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr()
    assert run(["verify", "--case", str(case), "--out", str(tmp_path / "bom")]) == 0
    assert capsys.readouterr() == plain
    assert read(tmp_path / "bom" / "equivalence_report.json") == read(
        tmp_path / "plain" / "equivalence_report.json")


@pytest.mark.parametrize("edit", [
    lambda text: "\ufeff" + text,
    lambda text: text + "\n",
    lambda text: text.replace("\n", "\n\n  \n", 2),
], ids=["byte-order-mark", "trailing-blank-line", "blank-lines-inside"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_iso_clear_reads_a_curve_with_a_bom_or_blank_lines_as_without(tmp_path, capsys, fmt, edit):
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path),
                "--format", fmt]) == 0
    path = tmp_path / f"bid_curve.{fmt}"
    edited = tmp_path / "edited" / path.name
    edited.parent.mkdir()
    edited.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert read_curve(edited) == read_curve(path)
    capsys.readouterr()
    for curve, out in ((path, "plain"), (edited, "edited")):
        assert run(["iso-clear", "--case", "paper_reference", "--curve", str(curve),
                    "--out", str(tmp_path / out)]) == 0
    assert read(tmp_path / "edited" / "iso_outcome.csv") == read(
        tmp_path / "plain" / "iso_outcome.csv")


@pytest.mark.parametrize("which", ["case", "curve"])
def test_json_nested_too_deep_exits_one_naming_the_file(tmp_path, capsys, which):
    path = tmp_path / f"{which}.json"
    path.write_text("[" * 200000 + "]" * 200000)
    case, curve = (path, "nope.csv") if which == "case" else ("paper_reference", path)
    command = ["verify"] if which == "case" else ["iso-clear", "--curve", str(curve)]
    assert run([*command, "--case", str(case), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gridcoord: error: {path}: ") and err.count("\n") == 1
    assert "maximum recursion depth exceeded" in err


@pytest.mark.parametrize("key", ["r", "x"])
def test_a_branch_whose_voltage_drop_overflows_exits_one_naming_it(tmp_path, capsys, key):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["network"]["branches"][0][key] = 1e308
    case = tmp_path / "overflow.json"
    case.write_text(json.dumps(doc))
    for command in ("dso-bid", "coordinate", "ideal", "verify"):
        assert run([command, "--case", str(case), "--out", str(tmp_path / "out")]) == 1, command
        assert capsys.readouterr().err == (f"gridcoord: error: network.branches[0].{key}: must be "
                                           f"below 1e+20 in magnitude, got 1e+308\n"), command


@pytest.mark.parametrize("section", ["aggregators", "wholesale"])
def test_a_case_with_an_unknown_participant_kind_exits_one_naming_it(tmp_path, capsys, section):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc[section][0]["kind"] = "XX"
    case = tmp_path / "kind.json"
    case.write_text(json.dumps(doc))
    assert run(["verify", "--case", str(case), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"gridcoord: error: {section}[0].kind: expected one of ")
    assert err.endswith(", got 'XX'\n") and err.count("\n") == 1


def _string_q(records):
    records[1]["q_mw"] = "-0.5"
    return records, "bid_curve.json[1].q_mw: expected a number, got '-0.5'"


def _boolean_qs(_):
    records = [{"q_mw": False, "total_cost": 0.0, "marginal_price": 20.0},
               {"q_mw": True, "total_cost": 20.0, "marginal_price": 20.0}]
    return records, "bid_curve.json[0].q_mw: expected a number, got False"


def _huge_q(records):
    records[1]["q_mw"] = 10**400
    return records, "bid_curve.json[1].q_mw: number out of float range\n"


@pytest.mark.parametrize("edit", [_string_q, _boolean_qs, _huge_q])
def test_iso_clear_against_a_json_curve_with_a_non_number_exits_one(tmp_path, capsys, edit):
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path),
                "--format", "json"]) == 0
    path = tmp_path / "bid_curve.json"
    records, message = edit(json.loads(path.read_text()))
    path.write_text(json.dumps(records))
    capsys.readouterr()
    code = run(["iso-clear", "--case", "paper_reference", "--curve", str(path),
                "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("gridcoord: error: ") and message in err
    assert not (tmp_path / "iso_outcome.csv").exists()


@pytest.mark.parametrize("top", [{"q_mw": 1}, None, math.nan], ids=["object", "null", "NaN"])
def test_iso_clear_against_a_json_curve_that_is_not_a_list_exits_one(tmp_path, capsys, top):
    path = tmp_path / "bid_curve.json"
    path.write_text(json.dumps(top))
    code = run(["iso-clear", "--case", "paper_reference", "--curve", str(path),
                "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"gridcoord: error: {path}: expected a list of records\n"
    assert not (tmp_path / "iso_outcome.csv").exists()


def test_coordinate_and_iso_clear_write_and_read_utf8_under_an_ascii_locale(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text(encoding="utf-8"))
    doc["aggregators"][0]["id"] = "DDGAG-\u00e9"
    case = tmp_path / "accented.json"
    case.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}

    def gridcoord(*argv):
        return subprocess.run([sys.executable, "-m", "gridcoord.cli", *argv, "--case", str(case),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=60)

    done = gridcoord("coordinate")
    assert done.returncode == 0, done.stderr
    assert b"\nDDGAG-\xc3\xa9," in (tmp_path / "out" / "dso_dispatch.csv").read_bytes()
    done = gridcoord("iso-clear", "--curve", str(tmp_path / "out" / "bid_curve.csv"))
    assert done.returncode == 0, done.stderr
