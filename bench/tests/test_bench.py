"""Tests of the benchmark's own machinery.

Run from the repository root:
    PYTHONPATH=src python -m pytest -q bench/tests
"""

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gridcoord.coordination as coordination  # noqa: E402
import gridcoord.dso as dso  # noqa: E402
import gridcoord.lp as lp  # noqa: E402
from gridcoord.caseio import parse_case  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_generators_are_deterministic_per_seed(seed):
    assert gen.small_scenario(seed) == gen.small_scenario(seed)
    assert gen.small_scenario(seed) != gen.small_scenario(seed + 1)
    assert gen.feeder_scenario(seed) == gen.feeder_scenario(seed)
    assert gen.feeder_scenario(seed) != gen.feeder_scenario(seed + 1)
    assert gen.sweep_loads(65.7, seed) == gen.sweep_loads(65.7, seed)
    assert gen.sweep_loads(65.7, seed) != gen.sweep_loads(65.7, seed + 1)


def test_feeder_has_the_stated_size():
    scenario = gen.feeder_scenario(3)
    assert scenario.network.n_nodes == gen.FEEDER_NODES
    assert len(scenario.aggregators) == gen.FEEDER_AGGREGATORS


def _fingerprints():
    return [
        workloads.result_fingerprint(coordination.check_equivalence(scenario))
        for scenario in (parse_case("paper_reference"), gen.small_scenario(5))
    ]


def test_wrappers_leave_results_unchanged_and_are_removed():
    untraced = _fingerprints()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(lp.solve, "__wrapped__") and hasattr(dso.build_constraints, "__wrapped__")
        traced = _fingerprints()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert not hasattr(lp.solve, "__wrapped__")
    assert not hasattr(coordination.check_equivalence, "__wrapped__")

    per_function = tracing.rollup(tracer.batches[0])
    assert per_function["coordination.check_equivalence"]["calls"] == 2
    solves = per_function["lp.solve"]["calls"]
    assert solves == per_function["lp.linprog"]["calls"] > 0
    # Every solve sits under check_equivalence, and the curve's under build_bid_curve.
    assert per_function["coordination.check_equivalence"]["solves"] == solves
    assert 0 < per_function["dso.build_bid_curve"]["solves"] < solves


def test_rollup_self_time_subtracts_children():
    spans = [
        [0, -1, "dso.build_bid_curve", 0.0, 10.0, 5, False],
        [1, 0, "lp.solve", 1.0, 4.0, 0, False],
        [2, 1, "lp.linprog", 2.0, 3.0, 7, False],
        [3, 0, "lp.solve", 5.0, 6.0, 1, False],
    ]
    r = tracing.rollup(spans)
    assert r["dso.build_bid_curve"]["self_s"] == pytest.approx(6.0)
    assert r["lp.solve"]["self_s"] == pytest.approx(3.0)
    assert r["lp.solve"]["busy_s"] == pytest.approx(4.0)
    assert r["dso.build_bid_curve"]["solves"] == 2
    assert r["lp.linprog"]["note"] == 7 and r["lp.solve"]["note"] == 1
    modules = tracing.module_self_time(r)
    assert modules["lp"] == pytest.approx(4.0) and modules["dso"] == pytest.approx(6.0)


def test_reference_check_rejects_a_perturbed_curve():
    reference = workloads.load_reference()
    ref = reference["cases"]["paper_reference"]
    fp = workloads.result_fingerprint(coordination.check_equivalence(
        parse_case("paper_reference")))
    assert workloads.check(fp, ref, 1e-6) == []

    moved = copy.deepcopy(fp)
    moved["breakpoints"][2][0] += 1e-4
    assert any("breakpoints" in p for p in workloads.check(moved, ref, 1e-6))

    repriced = copy.deepcopy(fp)
    repriced["prices"][1] *= 1.001
    assert any("prices" in p for p in workloads.check(repriced, ref, 1e-6))

    shorter = copy.deepcopy(fp)
    del shorter["breakpoints"][-1], shorter["prices"][-1]
    assert workloads.check(shorter, ref, 1e-6)


def test_check_flags_self_inconsistent_and_raising_ops():
    ref = {"award": 1.0}
    good = {"award": 1.0, "redispatch_cost": 3.0, "curve_cost": 3.0, "passed": True}
    assert workloads.check(good, ref, 1e-6) == []
    assert workloads.check({**good, "passed": False}, ref, 1e-6)
    assert workloads.check({**good, "redispatch_cost": 3.1}, ref, 1e-6)
    assert workloads.check({"error": "SolverError: x"}, ref, 1e-6) == ["SolverError: x"]
    assert workloads.check(good, {"error": "failed then"}, 1e-6)
    assert workloads.check(good, None, 1e-6)
