"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
randomized campaign (criteria 4 and 5) is seeded and shared across tests via
a module fixture. Criterion 7 reports its own probes. Every solve, in the
tests as for users, is held by ``lp.solve`` itself to a residual of 1e-7 and
a duality gap of 1e-7 plus 1e-12 of the magnitudes the gap is summed from,
so a solve beyond that fails the test that made it.
"""

import filecmp
import json

import numpy as np
import pytest

import gridcoord.lp as lp
from gridcoord.caseio import parse_case, resolve_case_path
from gridcoord.cli import main as cli_main
from gridcoord.coordination import check_equivalence, run_ideal
from gridcoord.distflow import build_constraints, dispatch_cost_coeffs
from gridcoord.dso import build_bid_curve, feasible_range, value_at
from gridcoord.iso import clear

from support import (
    capacity_export_range,
    distflow_residuals,
    force_equivalence_failure,
    random_scenario,
)

N_CAMPAIGN = 200


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {criterion} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reference():
    return parse_case("paper_reference")


@pytest.fixture(scope="module")
def campaign():
    """Bid curve + equivalence result for 200 seeded random scenarios."""
    results = []
    for seed in range(N_CAMPAIGN):
        scenario = random_scenario(seed)
        results.append((scenario, check_equivalence(scenario)))
    return results


def test_criterion_1_bid_curve_reproduction(reference):
    curve = build_bid_curve(reference)
    prices_ok = list(curve.prices) == pytest.approx([10.0, 15.0, 20.0, 24.0, 28.0], abs=1e-9)
    qs = [q for q, _ in curve.breakpoints]
    breaks_ok = qs == pytest.approx([-1.5, -0.5, 0.7, 1.2, 3.2, 5.7], abs=1e-3)
    report(
        1,
        "bid-curve reproduction",
        len(curve.prices) == 5 and prices_ok and breaks_ok,
        f"{len(curve.prices)} segments, breakpoints {[round(q, 6) for q in qs]}",
    )


def test_criterion_2_dso_dispatch(reference):
    dispatch = value_at(reference, 1.2)
    expected = {"DDGAG1": 0.5, "DDGAG2": 1.0, "DDGAG3": 1.2, "DDGAG4": 0.0, "DRAG": 2.5}
    worst = max(abs(dispatch.aggregator_dispatch[k] - v) for k, v in expected.items())
    report(2, "DSO dispatch at award", worst <= 1e-6, f"max share error {worst:.2e} MW")


def test_criterion_3_iso_clearing(reference):
    outcome = clear(reference.wholesale, [build_bid_curve(reference)],
                    reference.firm_wholesale_load)
    expected = {"Gen1": 10.0, "Gen2": 20.0, "Gen3": 13.8,
                "DR1": 10.0, "DR2": 20.0, "DR3": 10.0}
    worst = max(abs(outcome.cleared[k] - v) for k, v in expected.items())
    worst = max(worst, abs(outcome.dso_awards[0] - 1.2),
                abs(outcome.clearing_price - 22.0))
    report(
        3,
        "ISO clearing",
        worst <= 1e-6,
        f"award {outcome.dso_awards[0]:.6f} MW, price {outcome.clearing_price:.6f}, "
        f"max error {worst:.2e}",
    )


def test_criterion_4_equivalence(reference, campaign):
    ref_result = check_equivalence(reference, tolerance=1e-6)
    failures = [
        (seed, res.equivalence.max_deviation)
        for seed, (_, res) in enumerate(campaign)
        if not res.equivalence.passed
    ]
    worst = max(res.equivalence.max_deviation for _, res in campaign)
    report(
        4,
        "equivalence theorem",
        ref_result.equivalence.passed and not failures,
        f"reference deviation {ref_result.equivalence.max_deviation:.2e}, "
        f"campaign {len(campaign) - len(failures)}/{len(campaign)} "
        f"(worst {worst:.2e})",
    )


def test_criterion_5_convexity_and_dual_consistency(campaign):
    worst_convexity = 0.0
    worst_dual = 0.0
    for _, result in campaign:
        curve = result.bid_curve
        points = curve.breakpoints
        for i in range(len(points) - 2):
            (qa, ca), (qb, cb), (qc, cc) = points[i], points[i + 1], points[i + 2]
            interp = ca + (qb - qa) / (qc - qa) * (cc - ca)
            worst_convexity = max(worst_convexity, cb - interp)
        for i, seg in enumerate(curve.segments):
            fd = (points[i + 1][1] - points[i][1]) / (seg.q_hi - seg.q_lo)
            worst_dual = max(worst_dual, abs(fd - seg.price))
    ok = worst_convexity <= 1e-5 and worst_dual <= 1e-5
    report(
        5,
        "convexity + dual/finite-difference",
        ok,
        f"worst midpoint excess {worst_convexity:.2e}, worst slope mismatch {worst_dual:.2e}",
    )


def test_criterion_6_distflow_correctness():
    scenario = parse_case("voltage_binding")
    lo, hi = feasible_range(scenario)
    cap_lo, cap_hi = capacity_export_range(scenario)
    range_ok = cap_lo < lo - 1e-6 and hi + 1e-6 < cap_hi

    worst_recursion = 0.0
    worst_bounds = 0.0
    curve = build_bid_curve(scenario)
    probe_qs = {q for q, _ in curve.breakpoints}
    probe_qs.update(float(q) for q in np.linspace(lo, hi, 9))
    for q in sorted(probe_qs):
        dispatch = value_at(scenario, q)
        recursion, bounds = distflow_residuals(
            scenario.network, dispatch.voltages_sq, dispatch.flows_p, dispatch.flows_q
        )
        worst_recursion = max(worst_recursion, recursion)
        worst_bounds = max(worst_bounds, bounds)
    ideal = run_ideal(scenario)
    recursion, bounds = distflow_residuals(
        scenario.network, ideal.voltages_sq, ideal.flows_p, ideal.flows_q,
    )
    worst_recursion = max(worst_recursion, recursion)
    worst_bounds = max(worst_bounds, bounds)
    ok = range_ok and worst_recursion <= 1e-7 and worst_bounds <= 1e-7
    report(
        6,
        "network constraint correctness",
        ok,
        f"range ({lo:.6f}, {hi:.6f}) inside ({cap_lo}, {cap_hi}), "
        f"recursion residual {worst_recursion:.2e}, bound violation {worst_bounds:.2e}",
    )


def test_criterion_7_lp_contract(reference):
    solutions = []
    for q in (1.0, 5.8, -1.6):
        prog, dvars = build_constraints(reference.network, reference.aggregators)
        prog.set_bounds(dvars.p_exchange, q, q)
        prog.set_objective(dispatch_cost_coeffs(reference.aggregators))
        solutions.append(lp.solve(prog))  # past lp's bound it raises SolverError
    statuses = [sol.status for sol in solutions]
    optimal = solutions[0]
    ok = (statuses == [lp.OPTIMAL, lp.INFEASIBLE, lp.INFEASIBLE]
          and optimal.duality_gap <= lp._FLOOR and optimal.max_residual <= lp._FLOOR)
    report(
        7,
        "LP duality and infeasibility contract",
        ok,
        f"every solve held to residual {lp._FLOOR:g} and gap {lp._FLOOR:g} "
        f"+ {lp._ROUNDING:g} of its terms; probes {statuses}, optimal one's gap "
        f"{optimal.duality_gap:.2e}, residual {optimal.max_residual:.2e}",
    )


def test_criterion_8_cli_determinism(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["coordinate", "--case", "paper_reference", "--out", str(out1)])
    code2 = cli_main(["coordinate", "--case", "paper_reference", "--out", str(out2)])
    files = ["bid_curve.csv", "breakpoints.csv", "iso_outcome.csv",
             "dso_dispatch.csv", "retail_prices.csv"]
    identical = all(filecmp.cmp(out1 / f, out2 / f, shallow=False) for f in files)

    verify_code = cli_main(["verify", "--case", "paper_reference", "--out", str(tmp_path)])
    with monkeypatch.context() as patch:
        force_equivalence_failure(patch)
        failed_code = cli_main(["verify", "--case", "paper_reference", "--tol", "1e-18",
                                "--out", str(tmp_path)])
    exit_ok = (
        code1 == 0
        and code2 == 0
        and verify_code == 0
        and failed_code == 2
        and cli_main(["dso-bid", "--case", str(tmp_path / "absent.json")]) == 1
    )
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["firm_load"] = 1000.0
    starved = tmp_path / "starved.json"
    starved.write_text(json.dumps(doc))
    exit_ok = exit_ok and cli_main(
        ["coordinate", "--case", str(starved), "--out", str(tmp_path)]
    ) == 3
    report(
        8,
        "CLI determinism + exit codes",
        identical and exit_ok,
        f"byte-identical={identical}",
    )
