"""Smoke tests of the command-line scripts under scripts/."""

import importlib.util
from pathlib import Path

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
