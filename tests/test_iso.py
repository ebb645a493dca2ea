import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcoord.caseio import BUNDLED_CASES, parse_case
from gridcoord.dso import BidCurve, build_bid_curve
import gridcoord.lp as lp
from gridcoord.iso import clear
from gridcoord.lp import InfeasibleError
from gridcoord.model import Block, BlockOfferStack, WholesaleParticipant

from support import answer, lp_clearing, random_scenario

INFEASIBLE_MESSAGE = "^clearing infeasible: supply cannot meet the firm load$"
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


@pytest.mark.parametrize("load", [math.inf, -math.inf, math.nan])
def test_a_nonfinite_firm_load_is_a_value_error(reference, reference_curve, load):
    with pytest.raises(ValueError, match="^firm load must be finite, got"):
        clear(reference.wholesale, [reference_curve], load)


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
    cheap = BidCurve(breakpoints=((0.0, 0.0), (3.0, 3.0)))
    outcome = clear([dr("D", 5.0, 30.0)], [reference_curve, cheap], firm_load=0.0)
    assert len(outcome.dso_awards) == 2
    assert outcome.dso_awards[1] == pytest.approx(3.0, abs=1e-7)  # cheap one exhausted
    total = sum(outcome.dso_awards)
    assert total == pytest.approx(outcome.cleared["D"], abs=1e-7)


def test_nonconvex_curve_is_rejected():
    bad = BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0), (2.0, 25.0)))
    with pytest.raises(ValueError, match="nondecreasing"):
        clear([gen("G", 10.0, 8.0)], [bad], firm_load=1.0)


@pytest.mark.parametrize("bad, problem", [
    (BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0), (2.0, 25.0))), "nondecreasing"),
    (BidCurve(breakpoints=((0.0, 0.0), (0.0, 20.0))), "strictly increasing"),
    (BidCurve(breakpoints=()), "no breakpoints"),
])
def test_a_bad_curve_is_rejected_by_every_clear(bad, problem):
    for _ in range(3):  # the curve's checks are worked out once, then reused
        with pytest.raises(ValueError, match=problem):
            clear([gen("G", 10.0, 8.0)], [bad], firm_load=1.0)
    bad.violations().clear()  # a caller's copy: the curve stays rejected
    with pytest.raises(ValueError, match=problem):
        clear([gen("G", 10.0, 8.0)], [bad], firm_load=1.0)


def test_a_curve_works_out_its_segments_once(reference_curve):
    assert reference_curve.segments is reference_curve.segments
    assert [seg.price for seg in reference_curve.segments] == list(reference_curve.prices)


def test_insufficient_supply_is_infeasible():
    with pytest.raises(InfeasibleError):
        clear([gen("G", 1.0, 8.0)], [], firm_load=5.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=3184)  # the feeder's minimum import and the firm load exceed the generators
@example(seed=7706)
def test_random_clearings_respect_balance_and_merit_order(seed):
    scenario = random_scenario(seed)
    curve = build_bid_curve(scenario)
    load = scenario.firm_wholesale_load
    if lp_clearing(scenario.wholesale, [curve], load).status == lp.INFEASIBLE:
        with pytest.raises(InfeasibleError, match=INFEASIBLE_MESSAGE):
            clear(scenario.wholesale, [curve], load)
        return
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
def test_cache_hit_clears_exactly_like_a_fresh_compile(which):
    scenario = parse_case(which) if isinstance(which, str) else random_scenario(which)
    curve = build_bid_curve(scenario)
    supply = sum(wp.offers.capacity for wp in scenario.wholesale if wp.kind == "Gen")
    loads = [float(x) for x in np.linspace(0.0, supply + curve.q_max, 12)]
    random.Random(str(which)).shuffle(loads)
    loads.insert(len(loads) // 2, supply + curve.q_max + 1.0)  # infeasible; the next must match
    clear(scenario.wholesale, [curve], loads[0])

    hits = [answer(clear, scenario.wholesale, [curve], load) for load in loads]
    fresh = [answer(clear, scenario.wholesale, [dataclasses.replace(curve)], load)
             for load in loads]
    assert hits == fresh
    assert repr(hits) == repr(fresh)  # bit for bit, signs of zero included


def test_tied_offers_clear_the_same_whatever_was_cleared_before():
    # Two generators, a demand bid and a curve segment all at 20 $/MWh: the
    # optimum is not unique, and the split must not depend on earlier calls.
    wholesale = (gen("G0", 2.0, 20.0), gen("G1", 2.0, 20.0), gen("G2", 1.0, 10.0),
                 dr("D0", 1.0, 20.0))
    curve = BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0), (2.0, 50.0)))
    loads = [0.5 * k for k in range(1, 13)]
    random.Random(1).shuffle(loads)
    hits = [clear(wholesale, [curve], load) for load in loads]
    fresh = [clear(wholesale, [dataclasses.replace(curve)], load) for load in loads]
    assert repr(hits) == repr(fresh)


def test_tied_blocks_fill_in_declaration_order_wholesale_first():
    wholesale = (gen("G0", 2.0, 20.0), gen("G1", 2.0, 20.0), gen("G2", 1.0, 10.0))
    curve = BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0)))
    outcome = clear(wholesale, [curve], firm_load=3.5)
    assert outcome.blocks == {"G0": (2.0,), "G1": (0.5,), "G2": (1.0,)}
    assert outcome.dso_segment_fill == ((0.0,),)
    outcome = clear(wholesale, [curve], firm_load=5.5)
    assert outcome.blocks == {"G0": (2.0,), "G1": (2.0,), "G2": (1.0,)}
    assert outcome.dso_segment_fill == ((0.5,),)


def test_price_rule_when_nothing_fills():
    # No load left: the cheapest block prices the balance (the highest valid dual);
    # a fully served demand bid is priced as unserved demand at its bid.
    assert clear([gen("G", 10.0, 8.0), gen("H", 5.0, 3.0)], [], 0.0).clearing_price == 3.0
    assert clear([gen("G", 10.0, 8.0), dr("D", 2.0, 1.0)], [], -2.0).clearing_price == 1.0
    outcome = clear([], [], 0.0)
    assert (outcome.clearing_price, outcome.objective) == (0.0, 0.0)
    with pytest.raises(InfeasibleError, match=INFEASIBLE_MESSAGE):
        clear([], [], 1.0)


def test_integer_prices_and_sizes_clear_to_floats():
    outcome = clear([gen("G", 10, 5), dr("D", 2, 7)], [], 3)
    values = [outcome.clearing_price, outcome.objective, *outcome.cleared.values(),
              *(x for fill in outcome.blocks.values() for x in fill)]
    assert all(type(v) is float for v in values), values
    assert (outcome.clearing_price, outcome.cleared) == (5.0, {"G": 5.0, "D": 2.0})


EIGHTHS = st.integers(0, 24).map(lambda k: k / 8)  # exact in binary, so every sum is exact
PRICES = st.sampled_from([-5, 0, 8, 12.5, 20, 31.25])  # ints and floats, ties likely


@st.composite
def stacks(draw):
    """Wholesale participants (empty stacks and zero-size blocks included) and 0-2 curves."""
    wholesale = []
    for k in range(draw(st.integers(0, 4))):
        blocks = draw(st.lists(st.builds(Block, EIGHTHS, PRICES), max_size=3))
        wholesale.append(WholesaleParticipant(f"W{k}", draw(st.sampled_from(["Gen", "DR"])),
                                              BlockOfferStack(tuple(blocks))))
    curves = []
    for _ in range(draw(st.integers(0, 2))):
        q, cost = draw(st.integers(-16, 16)) / 8, draw(st.sampled_from([-3.0, 0.0, 7.5]))
        breakpoints, prices = [(q, cost)], sorted(draw(st.lists(PRICES, max_size=3)))
        for price in prices:
            width = draw(st.integers(1, 24)) / 8
            q, cost = q + width, cost + price * width
            breakpoints.append((q, cost))
        curves.append(BidCurve(breakpoints=tuple(breakpoints)))
    return wholesale, curves


def _supply_side(wholesale, curves, outcome):
    """(price, size, fill) of every block as supply; a DR block's is its unserved demand."""
    out = []
    for wp in wholesale:
        for blk, x in zip(wp.offers.blocks, outcome.blocks[wp.id]):
            out.append((blk.price, blk.p_max, blk.p_max - x if wp.kind == "DR" else x))
    for curve, fill in zip(curves, outcome.dso_segment_fill):
        out += [(seg.price, seg.q_hi - seg.q_lo, x) for seg, x in zip(curve.segments, fill)]
    return out


@settings(max_examples=300, deadline=None)
@given(stacks(), st.data())
def test_merit_order_clears_like_the_clearing_lp(stack, data):
    wholesale, curves = stack
    lo = (sum(curve.q_min for curve in curves)
          - sum(wp.offers.capacity for wp in wholesale if wp.kind == "DR"))
    hi = (sum(curve.q_max for curve in curves)
          + sum(wp.offers.capacity for wp in wholesale if wp.kind == "Gen"))
    load = data.draw(st.integers(round(8 * lo) - 8, round(8 * hi) + 8)) / 8
    sol = lp_clearing(wholesale, curves, load)
    if sol.status == lp.INFEASIBLE:
        with pytest.raises(InfeasibleError, match=INFEASIBLE_MESSAGE):
            clear(wholesale, curves, load)
        return
    assert sol.status == lp.OPTIMAL
    outcome = clear(wholesale, curves, load)

    assert outcome.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)
    supply = sum(outcome.cleared[wp.id] for wp in wholesale if wp.kind == "Gen")
    demand = sum(outcome.cleared[wp.id] for wp in wholesale if wp.kind == "DR")
    assert supply + sum(outcome.dso_awards) - demand == pytest.approx(load, abs=1e-9)
    for curve, award, fill in zip(curves, outcome.dso_awards, outcome.dso_segment_fill):
        assert award == pytest.approx(curve.q_min + sum(fill), abs=1e-12)

    lam = outcome.clearing_price
    assert type(lam) is float
    for price, size, x in _supply_side(wholesale, curves, outcome):
        assert -1e-9 <= x <= size + 1e-9
        if 1e-9 < x < size - 1e-9:  # partly filled: the marginal block
            assert price == lam
        elif size > 0 and x >= size - 1e-9:  # full (a DR bid fully unserved)
            assert price <= lam
        elif size > 0:  # empty (a DR bid fully served)
            assert price >= lam
