"""Smoke tests of the command-line scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

import gridcoord.lp as lp
from gridcoord.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_paper_case_prints_and_writes_the_artifacts(tmp_path, capsys):
    assert load("run_paper_case").main(["--case", "voltage_binding", "--out", str(tmp_path)]) == 0
    assert "Equivalence: PASS" in capsys.readouterr().out
    for name in ("bid_curve", "breakpoints", "iso_outcome", "dso_dispatch", "retail_prices"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert len(lines) >= 2, name  # header and at least one row
    assert (tmp_path / "equivalence_report.json").exists()


def test_run_paper_case_writes_the_cli_files_without_solving_again(tmp_path, capsys):
    script = load("run_paper_case")

    def solves(*argv):
        before = lp.solve_stats()["solves"]
        assert script.main(["--case", "paper_reference", *argv]) == 0
        return lp.solve_stats()["solves"] - before

    assert solves("--out", str(tmp_path / "script")) == solves() == 10
    for command in ("coordinate", "verify"):
        assert cli_main([command, "--case", "paper_reference", "--out",
                         str(tmp_path / "cli")]) == 0
    written = sorted(path.name for path in (tmp_path / "script").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "cli").iterdir())
    assert len(written) == 6
    for name in written:
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_run_paper_case_reports_a_case_it_cannot_load(capsys):
    assert load("run_paper_case").main(["--case", "nope"]) == 1
    captured = capsys.readouterr()
    assert "run_paper_case: error: case file not found: nope" in captured.err
    assert captured.out == ""


def test_run_paper_case_reports_an_out_path_it_cannot_write(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert load("run_paper_case").main(["--case", "voltage_binding", "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert "run_paper_case: error: [Errno 17] File exists" in captured.err
    assert "Equivalence: PASS" in captured.out  # the tables were printed before the write
    assert "artifacts written" not in captured.out


def test_random_campaign_passes_a_short_batch(capsys):
    assert load("random_campaign").main(["--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert "3/3 cases equivalent" in out
    assert "  |duality gap| median " in out  # the check holds the gap's magnitude


def test_random_campaign_reports_an_infeasible_seed_and_goes_on(capsys):
    # Seed 3184's firm load cannot clear; 3183 and 3185 are feasible.
    assert load("random_campaign").main(["--seed", "3183", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert ("seed 3184: infeasible (clearing infeasible: supply cannot meet the firm load)"
            in out)
    assert "2/2 cases equivalent" in out
    assert "infeasible seeds left out: 3184\n" in out


def test_random_campaign_of_infeasible_seeds_only_prints_no_statistics(capsys):
    assert load("random_campaign").main(["--seed", "3184", "--cases", "1"]) == 0
    out = capsys.readouterr().out
    assert "0/0 cases equivalent" in out and "median" not in out


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_random_campaign_refuses_a_tolerance_that_is_not_finite_and_positive(tol, capsys):
    with pytest.raises(SystemExit) as exit:
        load("random_campaign").main(["--cases", "1", "--tol", tol])
    assert exit.value.code == 2  # a usage error, before any scenario runs
    err = capsys.readouterr().err
    assert f"argument --tol: must be finite and > 0, got {tol}" in err


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_random_campaign_refuses_a_case_count_below_one(cases, capsys):
    with pytest.raises(SystemExit) as exit:
        load("random_campaign").main(["--cases", cases])
    assert exit.value.code == 2  # a usage error, not "0/0 cases equivalent"
    err = capsys.readouterr().err
    assert f"argument --cases: must be an integer >= 1, got {cases}" in err


@pytest.mark.parametrize("seed", ["-1", "-300"])
def test_random_campaign_refuses_a_negative_seed(seed, capsys):
    with pytest.raises(SystemExit) as exit:
        load("random_campaign").main(["--seed", seed, "--cases", "1"])
    assert exit.value.code == 2  # a usage error, not numpy's traceback
    err = capsys.readouterr().err
    assert f"argument --seed: must be an integer >= 0, got {seed}" in err


def test_fingerprint_prints_one_line_per_scenario_and_the_same_lines_twice(capsys):
    script = load("fingerprint")
    assert script.main(["--small", "2", "--feeders", "0"]) == 0
    first = capsys.readouterr().out
    assert script.main(["--small", "2", "--feeders", "0"]) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert [line.split()[0] for line in lines] == [
        "paper_reference", "paper_as_printed", "voltage_binding",
        "small_scenario(0)", "small_scenario(1)"]
    assert all(len(line.split()) == 3 for line in lines)


def test_fingerprint_prints_what_a_call_raised_in_place_of_its_hash():
    script = load("fingerprint")
    infeasible = script._gen.small_scenario(3184)  # its firm load cannot clear
    assert script.fingerprint(script.check_equivalence, infeasible) == (
        "InfeasibleError: clearing infeasible: supply cannot meet the firm load")
