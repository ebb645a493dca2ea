import json

import pytest

from gridcoord.caseio import resolve_case_path
from gridcoord.cli import main, read_curve
from gridcoord.dso import build_bid_curve
from gridcoord.caseio import parse_case

from support import force_equivalence_failure

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
    assert report["objective_ideal"] == pytest.approx(report["objective_coordinated"])
    names = {row["name"] for row in report["participants"]}
    assert {"dso_exchange", "Gen1", "DDGAG1"} <= names
    assert "objective" not in names  # a $/h figure, reported at the top level only


def test_verify_fail_exit_code(tmp_path, monkeypatch):
    force_equivalence_failure(monkeypatch)
    code = run(["verify", "--case", "paper_reference", "--tol", "1e-18",
                "--out", str(tmp_path)])
    assert code == 2
    report = json.loads((tmp_path / "equivalence_report.json").read_text())
    assert report["passed"] is False
    assert report["tolerance"] == 1e-18


def test_parse_and_usage_errors_exit_one(tmp_path):
    assert run(["dso-bid", "--case", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["dso-bid", "--case", str(bad), "--out", str(tmp_path)]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["dso-bid"]) == 1  # --case required


def test_infeasible_case_exits_three(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["firm_load"] = 1000.0  # beyond every supply stack
    case = tmp_path / "hungry.json"
    case.write_text(json.dumps(doc))
    assert run(["coordinate", "--case", str(case), "--out", str(tmp_path)]) == 3


def test_env_var_overrides_tolerance(tmp_path, monkeypatch):
    force_equivalence_failure(monkeypatch)
    monkeypatch.setenv("GRIDCOORD_TOL", "1e-18")
    assert run(["verify", "--case", "paper_reference", "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "equivalence_report.json").read_text())
    assert report["passed"] is False
    assert report["tolerance"] == 1e-18
    monkeypatch.setenv("GRIDCOORD_TOL", "not-a-number")
    assert run(["verify", "--case", "paper_reference", "--out", str(tmp_path)]) == 1
    monkeypatch.delenv("GRIDCOORD_TOL")
    assert run(["dso-bid", "--case", "paper_reference", "--out", str(tmp_path)]) == 0
    curve = ["--curve", str(tmp_path / "bid_curve.csv")]
    monkeypatch.setenv("GRIDCOORD_TOL", "-1")
    for command, extra in (("dso-bid", []), ("iso-clear", curve), ("coordinate", []),
                           ("ideal", []), ("verify", [])):
        argv = [command, "--case", "paper_reference", "--out", str(tmp_path), *extra]
        assert run(argv) == 1, command


def test_verify_on_a_case_with_a_nan_load_exits_one(tmp_path, capsys):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["network"]["nodes"][1]["lp"] = float("nan")
    case = tmp_path / "nan.json"
    case.write_text(json.dumps(doc))  # written as NaN, which json reads back
    assert "NaN" in case.read_text()
    assert run(["verify", "--case", str(case), "--out", str(tmp_path)]) == 1
    assert "network.nodes[1].lp: must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("column, message", [
    (2, "segment 2: price must be finite, got nan"),
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
