import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoord.caseio import BUNDLED_CASES, parse_case
from gridcoord.dso import BidCurve, build_bid_curve
from gridcoord.iso import clear
from gridcoord.lp import InfeasibleError
from gridcoord.model import Block, BlockOfferStack, WholesaleParticipant

from support import answer, count_compiles, random_scenario

EXPECTED_CLEARING = {"Gen1": 10.0, "Gen2": 20.0, "Gen3": 13.8, "DR1": 10.0, "DR2": 20.0, "DR3": 10.0}


@pytest.fixture(scope="module")
def reference():
    return parse_case("paper_reference")


@pytest.fixture(scope="module")
def reference_curve(reference):
    return build_bid_curve(reference)


def gen(pid, cap, price):
    return WholesaleParticipant(pid, "Gen", BlockOfferStack((Block(cap, price),)))


def dr(pid, cap, price):
    return WholesaleParticipant(pid, "DR", BlockOfferStack((Block(cap, price),)))


def test_paper_clearing(reference, reference_curve):
    outcome = clear(reference.wholesale, [reference_curve], reference.firm_wholesale_load)
    assert outcome.dso_awards[0] == pytest.approx(1.2, abs=1e-6)
    assert outcome.clearing_price == pytest.approx(22.0, abs=1e-6)  # Gen3 marginal
    for pid, share in EXPECTED_CLEARING.items():
        assert outcome.cleared[pid] == pytest.approx(share, abs=1e-6)


def test_paper_clearing_with_as_printed_demand_capacity():
    scenario = parse_case("paper_as_printed")
    outcome = clear(scenario.wholesale, [build_bid_curve(scenario)],
                    scenario.firm_wholesale_load)
    assert outcome.cleared["Gen3"] == pytest.approx(23.8, abs=1e-6)
    assert outcome.cleared["DR3"] == pytest.approx(20.0, abs=1e-6)
    assert outcome.dso_awards[0] == pytest.approx(1.2, abs=1e-6)
    assert outcome.clearing_price == pytest.approx(22.0, abs=1e-6)


def test_single_generator_serves_firm_load_at_its_price():
    outcome = clear([gen("G", 10.0, 8.0)], [], firm_load=5.0)
    assert outcome.cleared["G"] == pytest.approx(5.0)
    assert outcome.clearing_price == pytest.approx(8.0)
    assert outcome.objective == pytest.approx(40.0)


def test_lone_dso_curve_covers_firm_load(reference_curve):
    outcome = clear([], [reference_curve], firm_load=2.0)
    assert outcome.dso_awards[0] == pytest.approx(2.0, abs=1e-9)


def test_balance_and_bounds_hold(reference, reference_curve):
    outcome = clear(reference.wholesale, [reference_curve], reference.firm_wholesale_load)
    supply = sum(
        outcome.cleared[wp.id] for wp in reference.wholesale if wp.kind == "Gen"
    )
    demand = sum(outcome.cleared[wp.id] for wp in reference.wholesale if wp.kind == "DR")
    assert supply + outcome.dso_awards[0] == pytest.approx(
        demand + reference.firm_wholesale_load, abs=1e-7
    )
    for wp in reference.wholesale:
        for value, blk in zip(outcome.blocks[wp.id], wp.offers.blocks):
            assert -1e-9 <= value <= blk.p_max + 1e-9


def test_segment_filling_order(reference_curve):
    # Clearing at 30 $/MWh demand exhausts cheap DSO segments before pricier ones.
    outcome = clear([dr("D", 4.0, 30.0)], [reference_curve], firm_load=0.0)
    fill = outcome.dso_segment_fill[0]
    segments = reference_curve.segments
    for i in range(len(fill) - 1):
        width_i = segments[i].q_hi - segments[i].q_lo
        if fill[i + 1] > 1e-9 and segments[i + 1].price > segments[i].price + 1e-9:
            assert fill[i] == pytest.approx(width_i, abs=1e-7)


def test_zero_capacity_participant_changes_nothing(reference, reference_curve):
    base = clear(reference.wholesale, [reference_curve], reference.firm_wholesale_load)
    padded = list(reference.wholesale) + [
        WholesaleParticipant("ghost", "Gen", BlockOfferStack(()))
    ]
    again = clear(padded, [reference_curve], reference.firm_wholesale_load)
    assert again.cleared["ghost"] == 0.0
    assert again.objective == pytest.approx(base.objective, abs=1e-9)
    assert again.dso_awards[0] == pytest.approx(base.dso_awards[0], abs=1e-9)
    for pid in base.cleared:
        assert again.cleared[pid] == pytest.approx(base.cleared[pid], abs=1e-9)


def test_award_sits_on_the_dso_best_response(reference, reference_curve):
    outcome = clear(reference.wholesale, [reference_curve], reference.firm_wholesale_load)
    award = outcome.dso_awards[0]
    price = outcome.clearing_price
    left = [s.price for s in reference_curve.segments if s.q_hi <= award + 1e-7]
    right = [s.price for s in reference_curve.segments if s.q_lo >= award - 1e-7]
    if left:
        assert max(left) <= price + 1e-7
    if right:
        assert min(right) >= price - 1e-7


def test_two_curves_clear_side_by_side(reference_curve):
    cheap = BidCurve(breakpoints=((0.0, 0.0), (3.0, 3.0)), prices=(1.0,))
    outcome = clear([dr("D", 5.0, 30.0)], [reference_curve, cheap], firm_load=0.0)
    assert len(outcome.dso_awards) == 2
    assert outcome.dso_awards[1] == pytest.approx(3.0, abs=1e-7)  # cheap one exhausted
    total = sum(outcome.dso_awards)
    assert total == pytest.approx(outcome.cleared["D"], abs=1e-7)


def test_nonconvex_curve_is_rejected():
    bad = BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0), (2.0, 25.0)), prices=(20.0, 5.0))
    with pytest.raises(ValueError, match="nondecreasing"):
        clear([gen("G", 10.0, 8.0)], [bad], firm_load=1.0)


def test_insufficient_supply_is_infeasible():
    with pytest.raises(InfeasibleError):
        clear([gen("G", 1.0, 8.0)], [], firm_load=5.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_clearings_respect_balance_and_merit_order(seed):
    scenario = random_scenario(seed)
    curve = build_bid_curve(scenario)
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    supply = sum(outcome.cleared[wp.id] for wp in scenario.wholesale if wp.kind == "Gen")
    demand = sum(outcome.cleared[wp.id] for wp in scenario.wholesale if wp.kind == "DR")
    assert supply + outcome.dso_awards[0] == pytest.approx(
        demand + scenario.firm_wholesale_load, abs=1e-7
    )
    price = outcome.clearing_price
    for wp in scenario.wholesale:
        for value, blk in zip(outcome.blocks[wp.id], wp.offers.blocks):
            if wp.kind == "Gen" and blk.price < price - 1e-6:
                assert value == pytest.approx(blk.p_max, abs=1e-7)
            if wp.kind == "Gen" and blk.price > price + 1e-6:
                assert value == pytest.approx(0.0, abs=1e-7)
            if wp.kind == "DR" and blk.price > price + 1e-6:
                assert value == pytest.approx(blk.p_max, abs=1e-7)
            if wp.kind == "DR" and blk.price < price - 1e-6:
                assert value == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("which", [*BUNDLED_CASES, *range(30)])
def test_cache_hit_clears_exactly_like_a_fresh_compile(which, monkeypatch):
    scenario = parse_case(which) if isinstance(which, str) else random_scenario(which)
    curve = build_bid_curve(scenario)
    supply = sum(wp.offers.capacity for wp in scenario.wholesale if wp.kind == "Gen")
    loads = [float(x) for x in np.linspace(0.0, supply + curve.q_max, 12)]
    random.Random(str(which)).shuffle(loads)
    loads.insert(len(loads) // 2, supply + curve.q_max + 1.0)  # infeasible; the next must match
    clear(scenario.wholesale, [curve], loads[0])

    compiles = count_compiles(monkeypatch)
    hits = [answer(clear, scenario.wholesale, [curve], load) for load in loads]
    assert compiles == []  # every call above re-solved the compiled LP
    fresh = [answer(clear, scenario.wholesale, [dataclasses.replace(curve)], load)
             for load in loads]
    assert len(compiles) == len(loads)
    assert hits == fresh
    assert repr(hits) == repr(fresh)  # bit for bit, signs of zero included


def test_tied_offers_clear_the_same_whatever_was_cleared_before():
    # Two generators, a demand bid and a curve segment all at 20 $/MWh: the
    # optimum is not unique, and a re-solve warm from the previous load's
    # basis would pick other splits than a fresh compile does.
    wholesale = (gen("G0", 2.0, 20.0), gen("G1", 2.0, 20.0), gen("G2", 1.0, 10.0),
                 dr("D0", 1.0, 20.0))
    curve = BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0), (2.0, 50.0)), prices=(20.0, 30.0))
    loads = [0.5 * k for k in range(1, 13)]
    random.Random(1).shuffle(loads)
    hits = [clear(wholesale, [curve], load) for load in loads]
    fresh = [clear(wholesale, [dataclasses.replace(curve)], load) for load in loads]
    assert repr(hits) == repr(fresh)
