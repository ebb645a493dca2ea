import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoord.caseio import parse_case
from gridcoord.coordination import check_equivalence, run_coordinated, run_ideal
from gridcoord.dso import build_bid_curve
from gridcoord.iso import clear
from gridcoord.model import (
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    WholesaleParticipant,
)

from support import random_scenario, scale_power

EXPECTED_WHOLESALE = {"Gen1": 10.0, "Gen2": 20.0, "Gen3": 13.8,
                    "DR1": 10.0, "DR2": 20.0, "DR3": 10.0}
EXPECTED_AGGREGATORS = {"DDGAG1": 0.5, "DDGAG2": 1.0, "DDGAG3": 1.2,
                      "DDGAG4": 0.0, "REAG": 1.0, "DRAG": 2.5}


@pytest.fixture(scope="module")
def reference():
    return parse_case("paper_reference")


def test_coordinated_pipeline_reproduces_award_and_dispatch(reference):
    result = run_coordinated(reference)
    assert result.iso.dso_awards[0] == pytest.approx(1.2, abs=1e-6)
    for agg_id, share in EXPECTED_AGGREGATORS.items():
        assert result.dso_dispatch.by_aggregator[agg_id] == pytest.approx(share, abs=1e-6)
    assert result.dso_dispatch.net_export == result.iso.dso_awards[0]
    assert result.dso_dispatch.cost == pytest.approx(
        result.bid_curve.cost_at(result.iso.dso_awards[0]), abs=1e-6
    )


def test_ideal_joint_dispatch_reproduces_every_share(reference):
    ideal = run_ideal(reference)
    for pid, share in EXPECTED_WHOLESALE.items():
        assert ideal.cleared[pid] == pytest.approx(share, abs=1e-6)
    for agg_id, share in EXPECTED_AGGREGATORS.items():
        assert ideal.aggregator_dispatch[agg_id] == pytest.approx(share, abs=1e-6)
    assert ideal.net_export == pytest.approx(1.2, abs=1e-6)
    assert ideal.clearing_price == pytest.approx(22.0, abs=1e-6)


def test_without_aggregators_ideal_reduces_to_plain_clearing(reference):
    bare = dataclasses.replace(reference, aggregators=())
    ideal = run_ideal(bare)
    plain = clear(bare.wholesale, [], bare.firm_wholesale_load)
    assert ideal.objective == pytest.approx(plain.objective, abs=1e-7)
    assert ideal.clearing_price == pytest.approx(plain.clearing_price, abs=1e-7)
    assert ideal.net_export == pytest.approx(0.0, abs=1e-9)
    for pid, value in plain.cleared.items():
        assert ideal.cleared[pid] == pytest.approx(value, abs=1e-7)


def test_award_equals_firm_load_when_dso_is_the_only_supply():
    network = NetworkModel(
        n_nodes=2,
        load_p=(0.0, 0.0),
        load_q=(0.0, 0.0),
        branches=(Branch(0, 1, r=0.001, x=0.001, pl_max=10.0, ql_max=10.0),),
        substation=0,
        u_min=0.81,
        u_max=1.21,
        u_sub=1.0,
    )
    scenario = Scenario(
        network=network,
        aggregators=(
            Aggregator(id="g", kind="DDGAG", node=1,
                       offers=BlockOfferStack((Block(3.0, 12.0),))),
        ),
        wholesale=(),
        firm_wholesale_load=2.0,
        sweep_step=0.25,
    )
    result = run_coordinated(scenario)
    assert result.iso.dso_awards[0] == pytest.approx(2.0, abs=1e-7)
    assert result.dso_dispatch.by_aggregator["g"] == pytest.approx(2.0, abs=1e-7)


def test_equivalence_reference_case(reference):
    result = check_equivalence(reference, tolerance=1e-6)
    report = result.equivalence
    assert report.passed
    assert report.max_deviation <= 1e-6
    assert report.objective_ideal == pytest.approx(report.objective_coordinated, abs=1e-6)
    names = {row.name for row in report.rows}
    assert "objective" in names and "dso_exchange" in names


def test_equivalence_holds_with_binding_voltage_constraints():
    result = check_equivalence(parse_case("voltage_binding"))
    assert result.equivalence.passed


def test_equivalence_single_aggregator_single_generator():
    scenario = random_scenario(3)
    scenario = dataclasses.replace(
        scenario,
        aggregators=scenario.aggregators[:1],
        wholesale=scenario.wholesale[:1],
    )
    assert check_equivalence(scenario).equivalence.passed


def test_equivalence_survives_deliberate_price_ties(reference):
    # Duplicate the marginal generator so the optimum is degenerate; the
    # comparison must fall back to price-level aggregation and still pass.
    twin = WholesaleParticipant("Gen3b", "Gen", BlockOfferStack((Block(30.0, 22.0),)))
    tied = dataclasses.replace(reference, wholesale=reference.wholesale + (twin,))
    report = check_equivalence(tied).equivalence
    assert report.passed
    assert any(row.mode == "price-level" for row in report.rows)


def test_pipeline_is_deterministic(reference):
    first = run_coordinated(reference)
    second = run_coordinated(reference)
    assert first.bid_curve == second.bid_curve
    assert first.iso.cleared == second.iso.cleared
    assert first.iso.objective == second.iso.objective
    assert first.dso_dispatch.by_aggregator == second.dso_dispatch.by_aggregator


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_pipeline_cost_identity_and_award_on_curve(seed):
    scenario = random_scenario(seed)
    result = run_coordinated(scenario)
    award = result.iso.dso_awards[0]
    assert result.bid_curve.q_min - 1e-9 <= award <= result.bid_curve.q_max + 1e-9
    assert result.dso_dispatch.cost == pytest.approx(
        result.bid_curve.cost_at(award), abs=1e-6
    )


@pytest.mark.parametrize("seed", [1, 5, 19, 29])
def test_kw_scale_feeder_gives_the_same_curve_and_passes(seed):
    # The sweep-based curve raised "breakpoints must be strictly increasing"
    # on these seeds at kW scale; scaling MW by 1e-3 (r, x by 1e3) leaves the voltage drops,
    # prices and the curve's shape unchanged.
    scenario = random_scenario(seed)
    scaled = scale_power(scenario, 1e-3)
    result = check_equivalence(scaled)
    assert result.equivalence.passed
    curve, base = result.bid_curve, build_bid_curve(scenario)
    assert curve.violations() == []
    assert list(curve.prices) == pytest.approx(list(base.prices), abs=1e-6)
    assert [q for q, _ in curve.breakpoints] == pytest.approx(
        [1e-3 * q for q, _ in base.breakpoints], abs=1e-9
    )
