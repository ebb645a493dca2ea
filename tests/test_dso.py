import dataclasses
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridcoord.dso as dso
import gridcoord.lp as lp
from gridcoord.caseio import BUNDLED_CASES, parse_case
from gridcoord.coordination import check_equivalence, run_ideal
from gridcoord.distflow import tree_sensitivities
from gridcoord.dso import BidCurve, build_bid_curve, feasible_range, value_at
from gridcoord.iso import clear
from gridcoord.lp import InfeasibleError
from gridcoord.model import (
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
)

from support import (
    TRANSFORMED,
    answer,
    block_free_lp,
    capacity_export_range,
    count_compiles,
    dso_cost_oracle,
    feeder_scenario,
    named_scenario,
    probe_only_curve,
    random_scenario,
    redispatch_dual_violations,
    redispatch_with_duals,
    relabel_nodes,
    reverse_branches,
    scale_power,
)

# Merit order over the reference stacks: DDGAG2 (1 @ 10), DDGAG3 (1.2 @ 15),
# DDGAG1 (0.5 @ 20), DDGAG4 (2 @ 24), then backing off the DRAG (2.5 @ 28).
REFERENCE_BREAKPOINTS = [-1.5, -0.5, 0.7, 1.2, 3.2, 5.7]
REFERENCE_PRICES = [10.0, 15.0, 20.0, 24.0, 28.0]
AWARD_SHARES = {"DDGAG1": 0.5, "DDGAG2": 1.0, "DDGAG3": 1.2, "DDGAG4": 0.0, "DRAG": 2.5}


def single_node_scenario(aggregators, sweep_step=0.1):
    network = NetworkModel(
        n_nodes=1,
        load_p=(0.0,),
        load_q=(0.0,),
        branches=(),
        substation=0,
        u_min=0.81,
        u_max=1.21,
        u_sub=1.0,
    )
    return Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=(),
        firm_wholesale_load=0.0,
        sweep_step=sweep_step,
    )


@pytest.fixture(scope="module")
def reference():
    return parse_case("paper_reference")


@pytest.fixture(scope="module")
def reference_curve(reference):
    return build_bid_curve(reference)


def test_feasible_range_reference(reference):
    lo, hi = feasible_range(reference)
    assert lo == pytest.approx(-1.5, abs=1e-7)
    assert hi == pytest.approx(5.7, abs=1e-7)


def test_feasible_range_single_fixed_reag():
    scenario = single_node_scenario(
        [Aggregator(id="re", kind="REAG", node=0, offers=BlockOfferStack(()), fixed_output=1.0)]
    )
    lo, hi = feasible_range(scenario)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_feasible_range_shrinks_under_binding_voltage():
    scenario = parse_case("voltage_binding")
    lo, hi = feasible_range(scenario)
    cap_lo, cap_hi = capacity_export_range(scenario)
    assert (cap_lo, cap_hi) == (-2.0, 3.0)
    assert lo == pytest.approx(-1.0, abs=1e-7)
    assert hi == pytest.approx(0.5, abs=1e-7)
    assert cap_lo < lo < hi < cap_hi


def test_value_at_award_reproduces_aggregator_shares(reference):
    dispatch = value_at(reference, 1.2)
    for agg_id, expected in AWARD_SHARES.items():
        assert dispatch.aggregator_dispatch[agg_id] == pytest.approx(expected, abs=1e-6)
    assert dispatch.aggregator_dispatch["REAG"] == 1.0
    assert dispatch.cost == pytest.approx(-32.0, abs=1e-6)


def test_value_at_range_minimum_all_generation_off(reference):
    dispatch = value_at(reference, -1.5)
    for agg_id in ("DDGAG1", "DDGAG2", "DDGAG3", "DDGAG4"):
        assert dispatch.aggregator_dispatch[agg_id] == pytest.approx(0.0, abs=1e-9)
    assert dispatch.aggregator_dispatch["DRAG"] == pytest.approx(2.5, abs=1e-9)
    assert dispatch.cost == pytest.approx(-70.0, abs=1e-6)  # -2.5 * 28


def test_value_at_range_maximum_everything_at_cap(reference):
    dispatch = value_at(reference, 5.7)
    assert dispatch.aggregator_dispatch["DDGAG1"] == pytest.approx(0.5, abs=1e-9)
    assert dispatch.aggregator_dispatch["DDGAG2"] == pytest.approx(1.0, abs=1e-9)
    assert dispatch.aggregator_dispatch["DDGAG3"] == pytest.approx(1.2, abs=1e-9)
    assert dispatch.aggregator_dispatch["DDGAG4"] == pytest.approx(2.0, abs=1e-9)
    assert dispatch.aggregator_dispatch["DRAG"] == pytest.approx(0.0, abs=1e-9)
    assert dispatch.cost == pytest.approx(86.0, abs=1e-6)  # .5*20 + 1*10 + 1.2*15 + 2*24


def test_value_at_outside_range_raises(reference):
    with pytest.raises(InfeasibleError):
        value_at(reference, 5.8)
    with pytest.raises(InfeasibleError):
        value_at(reference, -1.6)


def test_empty_polytope_is_reported():
    # 5 MW of firm load on a bare leaf behind a 1 MW branch: no export level
    # can serve it, so the whole dispatch polytope is empty.
    import dataclasses

    scenario = parse_case("paper_reference")
    net = scenario.network
    load_p = list(net.load_p)
    load_p[4] = 5.0  # leaf at the end of the 2-3-4 chain, hosts no aggregator
    branches = list(net.branches)
    branches[3] = dataclasses.replace(branches[3], pl_max=1.0)
    starved = dataclasses.replace(net, load_p=tuple(load_p), branches=tuple(branches))
    with pytest.raises(InfeasibleError, match="infeasible"):
        feasible_range(dataclasses.replace(scenario, network=starved))


def test_reference_curve_breakpoints_and_prices(reference_curve):
    assert len(reference_curve.prices) == 5
    assert list(reference_curve.prices) == pytest.approx(REFERENCE_PRICES, abs=1e-9)
    qs = [q for q, _ in reference_curve.breakpoints]
    assert qs == pytest.approx(REFERENCE_BREAKPOINTS, abs=1e-6)


def test_curve_costs_match_resolve_at_every_breakpoint(reference, reference_curve):
    for q, cost in reference_curve.breakpoints:
        assert value_at(reference, q).cost == pytest.approx(cost, abs=1e-6)


def test_curve_costs_match_brute_force_oracle(reference, reference_curve):
    for q in np.linspace(-1.5, 5.7, 25):
        assert reference_curve.cost_at(q) == pytest.approx(
            dso_cost_oracle(reference, q), abs=1e-6
        )


def test_single_block_curve_is_one_segment():
    scenario = single_node_scenario(
        [Aggregator(id="g", kind="DDGAG", node=0,
                    offers=BlockOfferStack((Block(2.0, 24.0),)))]
    )
    curve = build_bid_curve(scenario)
    assert len(curve.prices) == 1
    assert curve.prices[0] == pytest.approx(24.0)
    assert curve.q_min == pytest.approx(0.0, abs=1e-9)
    assert curve.q_max == pytest.approx(2.0, abs=1e-9)


def test_degenerate_range_yields_pointlike_curve():
    scenario = single_node_scenario(
        [Aggregator(id="re", kind="REAG", node=0, offers=BlockOfferStack(()), fixed_output=1.0)]
    )
    curve = build_bid_curve(scenario)
    assert len(curve.breakpoints) == 1
    assert curve.prices == ()
    assert curve.breakpoints[0][0] == pytest.approx(1.0, abs=1e-9)
    assert curve.breakpoints[0][1] == pytest.approx(0.0, abs=1e-9)


def test_sweep_probe_landing_on_a_kink_is_harmless():
    # sweep_step is ignored; the kink at q = 1.0 must come out exact anyway.
    scenario = single_node_scenario(
        [Aggregator(id="g", kind="DDGAG", node=0,
                    offers=BlockOfferStack((Block(1.0, 10.0), Block(1.0, 20.0))))],
        sweep_step=0.4,
    )
    curve = build_bid_curve(scenario)
    assert list(curve.prices) == pytest.approx([10.0, 20.0])
    assert [q for q, _ in curve.breakpoints] == pytest.approx([0.0, 1.0, 2.0], abs=1e-6)


def test_segments_shorter_than_sweep_step_are_found():
    scenario = single_node_scenario(
        [Aggregator(id="g", kind="DDGAG", node=0,
                    offers=BlockOfferStack((Block(1.0, 10.0), Block(0.07, 15.0),
                                            Block(1.0, 20.0))))],
        sweep_step=0.5,
    )
    curve = build_bid_curve(scenario)
    assert list(curve.prices) == pytest.approx([10.0, 15.0, 20.0])
    assert [q for q, _ in curve.breakpoints] == pytest.approx(
        [0.0, 1.0, 1.07, 2.07], abs=1e-6
    )


def tied_blocks_scenario():
    return single_node_scenario([
        Aggregator(id="g", kind="DDGAG", node=0,
                   offers=BlockOfferStack((Block(1.0, 10.0), Block(2.0, 15.0)))),
        Aggregator(id="d", kind="DRAG", node=0,
                   offers=BlockOfferStack((Block(2.0, 10.0), Block(2.0, 5.0)))),
    ])


def test_blocks_tied_at_the_chord_slope_give_one_segment():
    # Supply and demand blocks both at 10 $/MWh give the cost slope 10 on
    # [-2, 1], and the first chord over [-4, 3] has slope 10 too, so its probe
    # may return any vertex of that segment; the curve must still have one
    # segment per distinct price.
    scenario = tied_blocks_scenario()
    curve = build_bid_curve(scenario)
    assert list(curve.prices) == pytest.approx([5.0, 10.0, 15.0])
    assert [q for q, _ in curve.breakpoints] == pytest.approx([-4.0, -2.0, 1.0, 3.0], abs=1e-9)


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_curve_takes_at_most_two_solves_per_segment_plus_three(name):
    scenario = parse_case(name)
    before = lp.solve_stats()["solves"]
    curve = build_bid_curve(scenario)
    solves = lp.solve_stats()["solves"] - before
    assert solves <= 2 * len(curve.prices) + 3


@pytest.mark.parametrize("name, solves", [("paper_reference", 8), ("voltage_binding", 5)])
def test_curve_takes_one_solve_per_segment_plus_three(name, solves):
    # The range (2), the end costs (2) and one probe per interior breakpoint;
    # each split probe's basis certifies the segments on both sides of it.
    scenario = parse_case(name)
    before = lp.solve_stats()["solves"]
    curve = build_bid_curve(scenario)
    assert lp.solve_stats()["solves"] - before == solves == len(curve.prices) + 3


@pytest.mark.parametrize("which", [*BUNDLED_CASES, "tied"])
def test_certified_curve_equals_the_probe_only_curve(which):
    scenario = tied_blocks_scenario() if which == "tied" else parse_case(which)
    curve, reference = build_bid_curve(scenario), probe_only_curve(scenario, block_free_lp)
    assert curve.breakpoints == reference.breakpoints
    assert curve.prices == reference.prices


def _assert_matches_the_full_distflow_lp(scenario):
    """The curve over the block LP, limits screened, is the full DistFlow LP's within
    tolerance, and the re-dispatch at the award has optimal duals for every DistFlow row."""
    curve, reference = build_bid_curve(scenario), probe_only_curve(scenario)
    tol = scenario.tolerance
    assert len(curve.prices) == len(reference.prices)
    got = [v for bp in curve.breakpoints for v in bp] + list(curve.prices)
    want = [v for bp in reference.breakpoints for v in bp] + list(reference.prices)
    assert all(abs(g - w) <= tol * max(1.0, abs(w)) for g, w in zip(got, want)), (got, want)
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    dispatch, duals = redispatch_with_duals(scenario, outcome.dso_awards[0],
                                            outcome.clearing_price)
    assert redispatch_dual_violations(scenario, dispatch, duals) == []


@pytest.mark.parametrize("which", [*BUNDLED_CASES, "congested", *range(100)])
def test_curve_and_duals_match_the_full_distflow_lp(which):
    _assert_matches_the_full_distflow_lp(named_scenario(which))


@pytest.mark.parametrize("seed", range(8))
def test_feeder_curve_and_duals_match_the_full_distflow_lp(seed):
    _assert_matches_the_full_distflow_lp(feeder_scenario(seed))


def _kept_limits(scenario):
    """The tree variables whose limits the DSO's LP keeps, and the LP's row count."""
    prog, _, _, kept, _ = dso._free_lp(scenario)
    return kept.tolist(), len(prog._rhs)


@pytest.mark.parametrize("which, kept", [
    ("paper_reference", []),
    ("voltage_binding", [5, 6]),  # the voltages of nodes 1 and 2, after 2 + 2 flows
    ("congested", [0, 1, 4, 7]),  # the active flows on the way to the demand response
    ("feeder", []),
])
def test_the_screen_keeps_only_the_limits_that_can_bind(which, kept):
    scenario = feeder_scenario(1) if which == "feeder" else named_scenario(which)
    assert _kept_limits(scenario) == (kept, 1 + len(kept))


@pytest.mark.parametrize("which", [*BUNDLED_CASES, "congested", 3, 17])
def test_the_screen_keeps_the_same_limits_of_a_relabelled_or_reversed_network(which):
    scenario = named_scenario(which)
    kept, _ = _kept_limits(scenario)
    assert _kept_limits(reverse_branches(scenario))[0] == kept
    n, m = scenario.network.n_nodes, len(scenario.network.branches)
    perm = [(i + 1) % n for i in range(n)]  # moves the substation too
    # Flows keep their branch's index; the voltage of node i becomes node perm[i]'s.
    moved = sorted(t if t < 2 * m or t == 2 * m + n else 2 * m + perm[t - 2 * m] for t in kept)
    assert _kept_limits(relabel_nodes(scenario, perm))[0] == moved


@pytest.mark.parametrize("limit, kept", [(1.0, [0]), (1.5, [])])
def test_a_limit_that_the_blocks_reach_exactly_is_kept(limit, kept):
    # One 1 MW generator behind one branch: its flow spans [-1, 0] MW exactly.
    network = NetworkModel(n_nodes=2, load_p=(0.0, 0.0), load_q=(0.0, 0.0),
                           branches=(Branch(0, 1, 0.001, 0.001, limit, 10.0),),
                           substation=0, u_min=0.81, u_max=1.21, u_sub=1.0)
    gen = Aggregator(id="g", kind="DDGAG", node=1, offers=BlockOfferStack((Block(1.0, 10.0),)))
    scenario = Scenario(network=network, aggregators=(gen,), wholesale=(), firm_wholesale_load=0.0)
    assert _kept_limits(scenario) == (kept, 1 + len(kept))
    assert feasible_range(scenario) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_a_screen_that_drops_limits_that_can_bind_fails_the_check(monkeypatch):
    assert check_equivalence(parse_case("voltage_binding")).equivalence.passed
    monkeypatch.setattr(dso, "_bindable", lambda tree: np.zeros(0, dtype=int))
    report = check_equivalence(parse_case("voltage_binding")).equivalence
    assert not report.passed
    assert report.primal_residual > report.tolerance


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1.0, 1e-3]))
@example(seed=398, factor=1.0)  # a wholesale offer 1e-4 $/MWh below a curve segment's price
@example(seed=1, factor=1e-3)  # kW-scale feeders that once broke the curve
@example(seed=5, factor=1e-3)
@example(seed=19, factor=1e-3)
@example(seed=29, factor=1e-3)
def test_random_certified_curves_equal_the_probe_only_curves(seed, factor):
    scenario = scale_power(random_scenario(seed), factor)
    curve, reference = build_bid_curve(scenario), probe_only_curve(scenario, block_free_lp)
    assert curve.breakpoints == reference.breakpoints
    assert curve.prices == reference.prices


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_curve_builds_one_lp_and_its_end_costs_match_value_at(name, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return tree_sensitivities(*args, **kwargs)

    monkeypatch.setattr(dso, "tree_sensitivities", counting)
    compiles = count_compiles(monkeypatch)
    scenario = parse_case(name)
    curve = build_bid_curve(scenario)
    assert len(calls) == 1
    assert build_bid_curve(scenario) == curve
    for q, cost in (curve.breakpoints[0], curve.breakpoints[-1]):
        expected = value_at(scenario, q).cost
        assert abs(cost - expected) <= 1e-9 * max(1.0, abs(expected))
    assert len(calls) == len(compiles) == 1  # the re-dispatch solves on the curve's LP


@pytest.mark.parametrize("which", [*BUNDLED_CASES, *range(30), *TRANSFORMED])
def test_cache_hit_answers_exactly_like_a_fresh_compile(which, monkeypatch):
    scenario = named_scenario(which)
    curve = build_bid_curve(scenario)
    value_at(scenario, curve.q_min)  # the scenario's LP is compiled from here on
    qs = [q for q, _ in curve.breakpoints]
    qs += [0.5 * (a + b) for a, b in zip(qs, qs[1:])]
    calls = [(value_at, q) for q in qs] + [(feasible_range,), (build_bid_curve,)] * 3
    random.Random(str(which)).shuffle(calls)
    # Exports outside the range raise; the calls after them must be unaffected.
    calls.insert(len(calls) // 2, (value_at, curve.q_max + 1.0))
    calls.insert(1, (value_at, curve.q_min - 1.0))

    compiles = count_compiles(monkeypatch)
    hits = [answer(call, scenario, *args) for call, *args in calls]
    assert compiles == []  # every call above re-solved the compiled LPs
    fresh = [answer(call, dataclasses.replace(scenario), *args) for call, *args in calls]
    assert len(compiles) == len(calls)  # each copy compiled the one LP its call needs
    assert hits == fresh
    assert repr(hits) == repr(fresh)  # bit for bit, signs of zero included


@pytest.mark.parametrize("call", [run_ideal, feasible_range],
                         ids=["joint_lp", "block_lp"])
def test_restarted_solves_on_a_feeder_repeat_a_fresh_compile_without_presolve(call,
                                                                           monkeypatch):
    runs = []
    real = lp.linprog

    def recording(highs):
        run = real(highs)
        runs.append((highs, run.nit))
        return run

    monkeypatch.setattr(lp, "linprog", recording)
    scenario = dataclasses.replace(feeder_scenario(1))  # 120 nodes, compiled by no other test
    fresh = call(scenario)  # compiles the LP
    fresh_runs, runs[:] = runs[:], []
    restarted = call(scenario)  # restarts it, at the optimal basis the last call left
    assert [nit for _, nit in runs] == [nit for _, nit in fresh_runs]
    assert runs[0][1] > 0  # a cold start, not from the basis the last call left
    assert repr(restarted) == repr(fresh)
    assert {highs.getOptionValue("presolve")[1] for highs, _ in fresh_runs + runs} == {"off"}


def _assert_redispatches_publish_optimal_duals(scenario):
    """At every breakpoint, every segment midpoint and the award (when the load clears),
    the award both without and with its clearing price."""
    curve = build_bid_curve(scenario)
    qs = [q for q, _ in curve.breakpoints]
    qs += [0.5 * (a + b) for a, b in zip(qs, qs[1:])]
    calls = [(q, None) for q in qs]
    try:
        outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
        calls += [(outcome.dso_awards[0], None), (outcome.dso_awards[0], outcome.clearing_price)]
    except InfeasibleError:
        pass
    for q, price in calls:
        dispatch, duals = redispatch_with_duals(scenario, q, price)
        assert redispatch_dual_violations(scenario, dispatch, duals) == [], (q, price)
        if price is not None:
            assert dispatch.retail_prices[scenario.network.substation] == pytest.approx(
                price, abs=1e-9)


@pytest.mark.parametrize("name", [*BUNDLED_CASES, "congested"])
def test_every_redispatch_publishes_optimal_duals_on_the_bundled_cases(name):
    _assert_redispatches_publish_optimal_duals(named_scenario(name))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=3184)  # its firm load cannot clear: breakpoints and midpoints only
def test_every_redispatch_publishes_optimal_duals_on_random_feeders(seed):
    _assert_redispatches_publish_optimal_duals(random_scenario(seed))


# Random seeds whose award lies inside a curve segment priced at the clearing
# price: the priced solve's optimum is that whole segment, and HiGHS ends at
# one of its ends.
@pytest.mark.parametrize("seed", [4, 13, 29])
def test_an_award_inside_a_segment_at_its_price_is_re_solved_pinned(seed):
    scenario = random_scenario(seed)
    curve = build_bid_curve(scenario)
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    award, price = outcome.dso_awards[0], outcome.clearing_price
    assert any(seg.q_lo < award < seg.q_hi and seg.price == price for seg in curve.segments)
    before = lp.solve_stats()["solves"]
    dispatch, duals = redispatch_with_duals(scenario, award, price)
    assert lp.solve_stats()["solves"] - before == 2
    assert redispatch_dual_violations(scenario, dispatch, duals) == []
    assert dispatch.retail_prices[scenario.network.substation] == price
    assert dispatch.cost == pytest.approx(value_at(scenario, award).cost, abs=1e-9)


def test_the_dual_check_rejects_shifted_prices():
    scenario = parse_case("paper_reference")
    dispatch, duals = redispatch_with_duals(scenario, 1.0)  # inside the 20 $/MWh segment
    assert redispatch_dual_violations(scenario, dispatch, duals) == []
    moved = {**duals, **{f"bal_p[{i}]": price + 1.0
                         for i, price in dispatch.retail_prices.items()}}
    moved_dispatch = dataclasses.replace(
        dispatch, retail_prices={i: p + 1.0 for i, p in dispatch.retail_prices.items()})
    problems = redispatch_dual_violations(scenario, moved_dispatch, moved)
    assert any("reduced cost" in p for p in problems)
    assert any("dual objective" in p for p in problems)
    assert any("retail price" in p
               for p in redispatch_dual_violations(scenario, moved_dispatch, duals))


def test_threads_share_the_compiled_models_and_get_the_sequential_answers():
    scenario = parse_case("paper_reference")
    curve = build_bid_curve(scenario)
    tasks = [partial(value_at, scenario, float(q))
             for q in np.linspace(curve.q_min, curve.q_max, 50)]
    tasks += [partial(clear, scenario.wholesale, [curve], float(load))
              for load in np.linspace(0.0, 60.0, 50)]
    random.Random(0).shuffle(tasks)
    sequential = [task() for task in tasks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the solve sequences too
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda task: task(), tasks, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential
    assert repr(threaded) == repr(sequential)


def test_monotone_merit_order_dispatch_along_the_sweep(reference):
    previous = None
    for q in np.arange(-1.5, 5.7001, 0.3):
        dispatch = value_at(reference, float(q))
        if previous is not None:
            for agg_id in ("DDGAG1", "DDGAG2", "DDGAG3", "DDGAG4"):
                assert dispatch.aggregator_dispatch[agg_id] >= previous[agg_id] - 1e-8
            assert dispatch.aggregator_dispatch["DRAG"] <= previous["DRAG"] + 1e-8
        previous = dispatch.aggregator_dispatch


def test_curve_domain_equals_feasible_range(reference, reference_curve):
    lo, hi = feasible_range(reference)
    assert reference_curve.q_min == lo
    assert reference_curve.q_max == hi


def test_retail_prices_uniform_when_network_unconstrained(reference):
    dispatch = value_at(reference, 1.0)  # interior of the 20 $/MWh segment
    for price in dispatch.retail_prices.values():
        assert price == pytest.approx(20.0, abs=1e-6)
    assert dispatch.retail_prices[reference.network.substation] == pytest.approx(20.0, abs=1e-6)


def test_curve_validation_catches_bad_curves():
    convex = BidCurve(breakpoints=((0.0, 0.0), (1.0, 10.0)))
    assert (convex.violations(), convex.prices) == ([], (10.0,))  # a price is a derived slope
    assert BidCurve(breakpoints=((0.0, 0.0), (0.0, 1.0))).violations()
    nonconvex = BidCurve(breakpoints=((0.0, 0.0), (1.0, 20.0), (2.0, 30.0)))
    assert any("nondecreasing" in v for v in nonconvex.violations())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curve_validation_catches_nonfinite_numbers(bad):
    def violations(q1=1.0, c1=10.0):
        return BidCurve(breakpoints=((0.0, 0.0), (q1, c1))).violations()

    assert violations() == []
    assert f"breakpoint 1: export and cost must be finite, got ({bad}, 10.0)" in violations(q1=bad)
    assert f"breakpoint 1: export and cost must be finite, got (1.0, {bad})" in violations(c1=bad)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_a_nonfinite_export_is_a_value_error_that_leaves_the_model_as_it_was(q):
    scenario = parse_case("paper_reference")
    for price in (None, 22.0):  # the priced path's miss test cannot reject a non-finite export
        with pytest.raises(ValueError, match=f"net export and price must be finite, got {q} "):
            value_at(scenario, q, price)
    after = value_at(scenario, 1.0)  # the same compiled LP, its export bounds untouched
    assert repr(after) == repr(value_at(dataclasses.replace(scenario), 1.0))


@pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
def test_a_nonfinite_price_is_a_value_error_before_any_solve(price):
    scenario = parse_case("paper_reference")
    before = lp.solve_stats()["solves"]
    with pytest.raises(ValueError, match=f"must be finite, got 1.0 and {price}"):
        value_at(scenario, 1.0, price)
    assert lp.solve_stats()["solves"] == before


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_single_node_curves_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    aggregators = []
    for k in range(int(rng.integers(1, 4))):
        kind = str(rng.choice(["DDGAG", "DRAG"]))
        n_blocks = int(rng.integers(1, 3))
        caps = np.round(rng.uniform(0.2, 1.0, n_blocks), 3)
        prices = np.round(rng.uniform(5, 40, n_blocks), 3)
        prices = np.sort(prices)[::-1] if kind == "DRAG" else np.sort(prices)
        aggregators.append(
            Aggregator(
                id=f"A{k}", kind=kind, node=0,
                offers=BlockOfferStack(
                    tuple(Block(float(c), float(p)) for c, p in zip(caps, prices))
                ),
            )
        )
    scenario = single_node_scenario(aggregators, sweep_step=0.17)
    lo, hi = feasible_range(scenario)
    curve = build_bid_curve(scenario)
    assert curve.violations() == []
    for frac in (0.0, 0.31, 0.5, 0.77, 1.0):
        q = lo + frac * (hi - lo)
        assert curve.cost_at(q) == pytest.approx(dso_cost_oracle(scenario, q), abs=1e-6)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_network_curve_convexity_and_dual_consistency(seed):
    scenario = random_scenario(seed)
    curve = build_bid_curve(scenario)
    assert curve.violations() == []
    points = curve.breakpoints
    for i in range(len(points) - 2):
        (qa, ca), (qb, cb), (qc, cc) = points[i], points[i + 1], points[i + 2]
        interp = ca + (qb - qa) / (qc - qa) * (cc - ca)
        assert cb <= interp + 1e-5
    substation = scenario.network.substation
    for i, seg in enumerate(curve.segments):
        mid = 0.5 * (seg.q_lo + seg.q_hi)
        dispatch = value_at(scenario, mid)
        fd = (curve.cost_at(seg.q_hi) - curve.cost_at(seg.q_lo)) / (seg.q_hi - seg.q_lo)
        assert dispatch.retail_prices[substation] == pytest.approx(seg.price, abs=1e-5)
        assert fd == pytest.approx(seg.price, abs=1e-5)
    # At a breakpoint the dual is not unique: any value between the adjacent
    # segment prices is a valid one (open at the curve's ends).
    prices = (-float("inf"),) + curve.prices + (float("inf"),)
    for i, (q, _) in enumerate(points):
        price = value_at(scenario, q).retail_prices[substation]
        assert prices[i] - 1e-6 <= price <= prices[i + 1] + 1e-6, (i, q, price)
