import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridcoord.coordination as coordination
import gridcoord.dso as dso
import gridcoord.lp as lp
import gridcoord.model as model
from gridcoord.caseio import BUNDLED_CASES, parse_case
from gridcoord.coordination import check_equivalence, run_coordinated, run_ideal
from gridcoord.distflow import DistFlowSolution, fragment_point, read_outcome
from gridcoord.dso import build_bid_curve, compiled, feasible_range, value_at
from gridcoord.iso import clear
from gridcoord.model import (
    GEN,
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    ValidationError,
    WholesaleParticipant,
)

from support import (
    BINDING,
    TRANSFORMED,
    answer,
    bind,
    count_calls,
    count_compiles,
    feeder_scenario,
    lp_clearing,
    named_scenario,
    random_scenario,
    relabel_nodes,
    reverse_branches,
    scale_power,
    scale_prices,
)

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
        assert result.dso_dispatch.aggregator_dispatch[agg_id] == pytest.approx(share, abs=1e-6)
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
    assert result.dso_dispatch.aggregator_dispatch["g"] == pytest.approx(2.0, abs=1e-7)


def test_equivalence_reference_case(reference):
    result = check_equivalence(reference, tolerance=1e-6)
    report = result.equivalence
    assert report.passed
    assert report.max_deviation <= 1e-6
    assert abs(report.duality_gap) <= 1e-9
    assert report.dual_objective == pytest.approx(run_ideal(reference).objective, abs=1e-9)
    assert report.objective_coordinated - report.dual_objective == report.duality_gap


def test_equivalence_solves_nothing_beyond_the_pipeline(reference, monkeypatch):
    calls = count_calls(monkeypatch, lp, "solve")

    def solves(fn):
        before = len(calls)
        fn(reference)
        return len(calls) - before

    assert solves(check_equivalence) == solves(run_coordinated)


def test_equivalence_takes_nine_solves_on_the_reference_case(reference, monkeypatch):
    # The 5-segment curve takes 5 + 3 and the re-dispatch one; clearing and the check none.
    calls = count_calls(monkeypatch, lp, "solve")
    check_equivalence(reference)
    assert len(calls) == 9


def test_the_check_scores_the_joint_lp_without_loading_it_and_compiles_it_once(monkeypatch):
    scenario = parse_case("paper_reference")
    arrays = count_calls(monkeypatch, lp, "_Backend")
    first = check_equivalence(scenario)
    assert len(arrays) == 2  # the DSO's LP and the joint LP
    with compiled(scenario, coordination._joint_lp) as (prog, *_):
        assert prog._backend.highs is None  # scored, never passed to HiGHS
    assert repr(check_equivalence(scenario)) == repr(first)
    assert len(arrays) == 2  # the second check reused both


@pytest.mark.parametrize("which", [*BUNDLED_CASES, *range(10), *TRANSFORMED])
def test_joint_lp_cache_hit_answers_exactly_like_a_fresh_compile(which, monkeypatch):
    scenario = named_scenario(which)
    curve = check_equivalence(scenario).bid_curve  # compiles the DSO's LP only
    run_ideal(scenario)  # both LPs are compiled from here on
    calls = [(check_equivalence,), (run_ideal,)] * 3
    random.Random(str(which)).shuffle(calls)
    # An export outside the range sends the DSO's LP down the fallback path.
    calls.insert(2, (value_at, curve.q_max + 1.0))
    calls.insert(3, (value_at, curve.q_min))

    compiles = count_compiles(monkeypatch)
    hits = [answer(call, scenario, *args) for call, *args in calls]
    assert compiles == []  # every call above re-solved the compiled LPs
    fresh = [answer(call, dataclasses.replace(scenario), *args) for call, *args in calls]
    # A check compiles the DSO's LP but not the joint LP, which it never solves;
    # run_ideal compiles the joint LP and value_at the DSO's LP.
    assert len(compiles) == 3 + 3 + 2
    assert hits == fresh
    assert repr(hits) == repr(fresh)  # bit for bit, signs of zero included


@pytest.mark.parametrize("which", [*BUNDLED_CASES, *TRANSFORMED, "feeder_scenario(1)"])
def test_fragment_point_gives_back_the_fragment_columns_read_outcome_read(which):
    scenario = feeder_scenario(1) if which == "feeder_scenario(1)" else named_scenario(which)
    prog, dvars, _ = coordination._joint_lp(scenario)
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    outcome = read_outcome(DistFlowSolution, scenario.network, scenario.aggregators,
                           sol.x[:dvars.tree.start], sol.x[dvars.tree], sol.y)
    point = fragment_point(outcome, float(sol.x[dvars.p_exchange]))
    assert repr(point.tolist()) == repr(sol.x[:dvars.p_exchange + 1].tolist())  # bit for bit


def _assert_close(got, want, where):
    """Dicts per key and tuples per element, numbers within 1e-6."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert abs(got - want) <= 1e-6, f"{where}: {got} != {want}"


@pytest.mark.parametrize("which", [*BUNDLED_CASES, *range(30)])
def test_the_coordinated_distribution_outcome_is_the_joint_one_field_by_field(which):
    scenario = named_scenario(which)
    coordinated, joint = check_equivalence(scenario).dso_dispatch, run_ideal(scenario)
    for field in dataclasses.fields(DistFlowSolution):
        _assert_close(getattr(coordinated, field.name), getattr(joint, field.name), field.name)


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
    # Duplicate the marginal generator so the optimum is degenerate: any split
    # between the twins is optimal, and only their sum is pinned by the balance.
    twin = WholesaleParticipant("Gen3b", "Gen", BlockOfferStack((Block(30.0, 22.0),)))
    tied = dataclasses.replace(reference, wholesale=reference.wholesale + (twin,))
    result = check_equivalence(tied)
    assert result.equivalence.passed

    def twins(cleared):
        return cleared["Gen3"] + cleared["Gen3b"]

    assert twins(result.iso.cleared) == pytest.approx(twins(run_ideal(tied).cleared), abs=1e-6)


def _check_tampered(monkeypatch, reference, edit):
    """Equivalence report for the reference case with ``edit`` applied to its outcome."""
    tampered = edit(run_coordinated(reference))
    monkeypatch.setattr(coordination, "run_coordinated", lambda scenario: tampered)
    return check_equivalence(reference, tolerance=1e-6).equivalence


def test_coordinated_voltage_above_its_limit_is_rejected(reference, monkeypatch):
    # No participant's quantity changes, so only the network state shows it.
    def edit(result):
        dispatch = result.dso_dispatch
        volts = dispatch.voltages_sq[:-1] + (2.0,)
        return dataclasses.replace(
            result, dso_dispatch=dataclasses.replace(dispatch, voltages_sq=volts))

    report = _check_tampered(monkeypatch, reference, edit)
    assert not report.passed
    assert report.primal_residual >= 2.0 - reference.network.u_max
    assert abs(report.duality_gap) <= 1e-9  # voltages cost nothing


def test_feasible_but_costlier_wholesale_split_is_rejected(reference, monkeypatch):
    # 0.1 MW from Gen1 (8 $/MWh) to Gen3 (22 $/MWh) keeps every balance.
    def edit(result):
        iso = result.iso
        gen1, gen3 = iso.blocks["Gen1"][0] - 0.1, iso.blocks["Gen3"][0] + 0.1
        return dataclasses.replace(result, iso=dataclasses.replace(
            iso,
            blocks={**iso.blocks, "Gen1": (gen1,), "Gen3": (gen3,)},
            cleared={**iso.cleared, "Gen1": gen1, "Gen3": gen3},
        ))

    report = _check_tampered(monkeypatch, reference, edit)
    assert not report.passed
    assert report.primal_residual <= 1e-9
    assert report.max_deviation == pytest.approx(0.1 * (22.0 - 8.0), abs=1e-9)
    assert report.duality_gap == pytest.approx(1.4, abs=1e-9)
    assert report.dual_objective == pytest.approx(run_ideal(reference).objective, abs=1e-9)


def test_a_fill_cut_inside_the_tolerance_that_lowers_the_objective_is_rejected(
        reference, monkeypatch):
    # 0.9e-6 MW off Gen3 (22 $/MWh) breaks the wholesale balance by less than
    # the 1e-6 tolerance, but scores about 2e-5 below the bound.
    def edit(result):
        iso = result.iso
        gen3 = iso.blocks["Gen3"][0] - 0.9e-6
        return dataclasses.replace(result, iso=dataclasses.replace(
            iso, blocks={**iso.blocks, "Gen3": (gen3,)}, cleared={**iso.cleared, "Gen3": gen3}))

    report = _check_tampered(monkeypatch, reference, edit)
    assert not report.passed
    assert report.primal_residual == pytest.approx(0.9e-6, rel=1e-6)
    assert report.duality_gap == pytest.approx(-22.0 * 0.9e-6, rel=1e-6)
    assert report.max_deviation == -report.duality_gap


def test_dso_block_shifted_without_rebalancing_is_rejected(reference, monkeypatch):
    def edit(result):
        dispatch = result.dso_dispatch
        shifted = dispatch.aggregator_blocks["DDGAG4"][0] + 0.1
        return dataclasses.replace(result, dso_dispatch=dataclasses.replace(
            dispatch,
            aggregator_blocks={**dispatch.aggregator_blocks, "DDGAG4": (shifted,)},
            aggregator_dispatch={**dispatch.aggregator_dispatch, "DDGAG4": shifted},
        ))

    report = _check_tampered(monkeypatch, reference, edit)
    assert not report.passed
    assert report.primal_residual == pytest.approx(0.1, abs=1e-9)


@pytest.mark.parametrize("corrupt", [
    lambda y: [v + 1.0 for v in y],  # every price, the substation's too
    lambda y: y[:2] + [v + 1.0 for v in y[2:]],  # all but the substation's (node 0)
    lambda y: y[:-1] + [y[-1] + 1.0],  # one voltage row
    lambda y: [0.5 * v for v in y],
    lambda y: [0.0] * len(y),
], ids=["all_shifted", "feeder_shifted", "voltage_row", "halved", "zeroed"])
def test_corrupted_row_duals_fail_the_check(reference, monkeypatch, corrupt):
    def edit(result):
        dispatch = result.dso_dispatch
        duals = tuple(corrupt(list(dispatch.row_duals)))
        return dataclasses.replace(
            result, dso_dispatch=dataclasses.replace(dispatch, row_duals=duals))

    report = _check_tampered(monkeypatch, reference, edit)
    assert not report.passed
    assert report.primal_residual <= 1e-9  # the point is as optimal as before
    assert report.duality_gap > 1e-3
    assert report.dual_objective < run_ideal(reference).objective  # weak duality


def _with_nan_row_dual(result):
    dispatch = result.dso_dispatch
    duals = (math.nan,) + dispatch.row_duals[1:]
    return dataclasses.replace(result, dso_dispatch=dataclasses.replace(dispatch, row_duals=duals))


def _with_nan_clearing_price(result):
    return dataclasses.replace(result, iso=dataclasses.replace(result.iso, clearing_price=math.nan))


@pytest.mark.parametrize("edit", [_with_nan_row_dual, _with_nan_clearing_price],
                         ids=["row_dual", "clearing_price"])
def test_a_nan_dual_fails_the_check(reference, monkeypatch, edit):
    # The point itself is optimal, so only the gap carries the NaN; a max()
    # that dropped it would pass the check.
    report = _check_tampered(monkeypatch, reference, edit)
    assert report.primal_residual <= 1e-9
    assert math.isnan(report.duality_gap)
    assert math.isnan(report.max_deviation)
    assert not report.passed


def test_pipeline_is_deterministic(reference):
    first = run_coordinated(reference)
    second = run_coordinated(reference)
    assert first.bid_curve == second.bid_curve
    assert first.iso.cleared == second.iso.cleared
    assert first.iso.objective == second.iso.objective
    assert first.dso_dispatch.aggregator_dispatch == second.dso_dispatch.aggregator_dispatch


# Random seeds in 0-10,000 whose firm load cannot clear: the feeder's minimum
# import plus the firm load exceed the generators' capacity.
CANNOT_CLEAR = [3184, 7706]
INFEASIBLE_MESSAGE = "^clearing infeasible: supply cannot meet the firm load$"


def _clears(scenario) -> bool:
    """Whether the clearing LP serves the firm load against the scenario's curve."""
    return lp_clearing(scenario.wholesale, [build_bid_curve(scenario)],
                       scenario.firm_wholesale_load).status == lp.OPTIMAL


# Seeds 0-199 of each binding family (support.BINDING) that raise
# InfeasibleError: the DSO's dispatch polytope is empty, or its firm load
# cannot clear.
BINDING_INFEASIBLE = {
    "A": [0, 15, 18, 32, 43, 48, 53, 56, 59, 71, 74, 88, 89, 91, 93, 99, 102, 111, 117, 128,
          145, 156, 161, 167, 180, 181, 183, 193, 194],
    "B": [0, 1, 2, 5, 15, 18, 29, 32, 40, 43, 48, 53, 56, 59, 71, 74, 88, 89, 91, 93, 99, 102,
          111, 117, 128, 145, 156, 161, 167, 169, 179, 180, 181, 183, 193, 194, 198],
}
# Among the seeds that keep the most limits, and clear in both families.
BINDING_SAMPLE = [55, 66, 197]


def _binding(family, seed):
    return bind(random_scenario(seed), **BINDING[family])


@pytest.mark.parametrize("family", BINDING)
def test_binding_feeders_pass_the_check_or_are_listed_as_infeasible(family):
    infeasible, keeping = [], 0
    for seed in range(200):
        scenario = _binding(family, seed)
        try:
            result = check_equivalence(scenario)
        except lp.InfeasibleError:
            infeasible.append(seed)
            continue
        assert result.equivalence.passed, (seed, result.equivalence.max_deviation)
        keeping += dso._free_lp(scenario)[3].size > 0
    assert infeasible == BINDING_INFEASIBLE[family]
    assert keeping > 100  # the network binds on most of them


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=CANNOT_CLEAR[0])
@example(seed=CANNOT_CLEAR[1])
def test_random_pipeline_cost_identity_and_award_on_curve(seed):
    scenario = random_scenario(seed)
    if not _clears(scenario):
        with pytest.raises(lp.InfeasibleError, match=INFEASIBLE_MESSAGE):
            run_coordinated(scenario)
        return
    result = run_coordinated(scenario)
    award = result.iso.dso_awards[0]
    assert result.bid_curve.q_min - 1e-9 <= award <= result.bid_curve.q_max + 1e-9
    assert result.dso_dispatch.cost == pytest.approx(
        result.bid_curve.cost_at(award), abs=1e-6
    )


@pytest.mark.parametrize("transform", [scale_power, scale_prices], ids=["power", "prices"])
@pytest.mark.parametrize("factor", [1e-3, 1e3])
@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=CANNOT_CLEAR[0])
def test_the_certificate_agrees_with_the_joint_lp_oracle(transform, factor, seed):
    scenario = transform(random_scenario(seed), factor)
    try:
        ideal = run_ideal(scenario)
    except lp.InfeasibleError:
        with pytest.raises(lp.InfeasibleError):
            check_equivalence(scenario)
        return
    report = check_equivalence(scenario).equivalence
    oracle = (report.primal_residual <= report.tolerance
              and abs(report.objective_coordinated - ideal.objective) <= report.tolerance)
    assert report.passed and oracle
    assert report.dual_objective == pytest.approx(ideal.objective, rel=1e-9, abs=1e-9)


def _assert_priced_redispatch_publishes_the_joint_prices(scenario):
    try:
        result = run_coordinated(scenario)
    except lp.InfeasibleError:
        return
    price = result.iso.clearing_price
    dispatch = value_at(scenario, result.iso.dso_awards[0], price)
    assert dispatch == result.dso_dispatch
    ideal = run_ideal(scenario)
    assert dispatch.retail_prices == pytest.approx(ideal.retail_prices, abs=1e-6)
    assert dispatch.retail_prices[scenario.network.substation] == pytest.approx(price, abs=1e-9)


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_priced_redispatch_publishes_the_joint_prices_on_the_bundled_cases(name):
    _assert_priced_redispatch_publishes_the_joint_prices(parse_case(name))


def test_priced_redispatch_moves_the_bundled_substation_prices_to_the_clearing_price():
    # Pinned at the award, the basis picked 20 and 0 $/MWh at these kinks.
    for name, price in (("paper_reference", 22.0), ("voltage_binding", 8.0)):
        scenario = parse_case(name)
        dispatch = run_coordinated(scenario).dso_dispatch
        assert dispatch.retail_prices[scenario.network.substation] == price


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_priced_redispatch_publishes_the_joint_prices_on_random_feeders(seed):
    _assert_priced_redispatch_publishes_the_joint_prices(random_scenario(seed))


@pytest.mark.parametrize("seed", [1, 5, 19, 29])
def test_kw_scale_feeder_gives_the_same_curve_and_passes(seed):
    # The sweep-based curve raised "breakpoints must be strictly increasing"
    # on these seeds at kW scale.
    _assert_kw_scale_gives_the_same_curve_and_passes(random_scenario(seed))


@pytest.mark.parametrize("family", BINDING)
@pytest.mark.parametrize("seed", BINDING_SAMPLE)
def test_binding_feeders_at_kw_scale_give_the_same_curve_and_pass(family, seed):
    _assert_kw_scale_gives_the_same_curve_and_passes(_binding(family, seed))


def _assert_kw_scale_gives_the_same_curve_and_passes(scenario):
    # Scaling MW by 1e-3 (r, x by 1e3) leaves the voltage drops, prices and
    # the curve's shape unchanged.
    scaled = scale_power(scenario, 1e-3)
    result = check_equivalence(scaled)
    assert result.equivalence.passed
    curve, base = result.bid_curve, build_bid_curve(scenario)
    assert curve.violations() == []
    assert list(curve.prices) == pytest.approx(list(base.prices), abs=1e-6)
    assert [q for q, _ in curve.breakpoints] == pytest.approx(
        [1e-3 * q for q, _ in base.breakpoints], abs=1e-9
    )


# Random seeds in 0-10,000 whose feeder, restated in kW (x1e-3), lost one curve
# breakpoint while the chord probe's slack was tol * max(1, |cost|): absolute
# at small costs, so a kink whose probe gap is 1e-3 times smaller was taken
# as part of a segment. The slack is now relative to the end costs alone.
# Found by running every seed in that range at x1e-3 and x1e3.
KW_SCALE_LOST_BREAKPOINT = [438, 494, 1184, 1532, 1535, 2330, 3490, 4383, 4719, 5306, 5347,
                            6310, 7830, 8865, 9065, 9142, 9664, 9760]


def _assert_power_scaling_keeps_the_curve_and_the_award(seed, factor):
    scenario = random_scenario(seed)
    try:
        base = run_coordinated(scenario)
    except lp.InfeasibleError:  # a few seeds cannot clear their firm load at any scale
        with pytest.raises(lp.InfeasibleError):
            check_equivalence(scale_power(scenario, factor))
        return
    result = check_equivalence(scale_power(scenario, factor))
    assert result.equivalence.passed, result.equivalence.max_deviation
    assert result.iso.dso_awards[0] == pytest.approx(factor * base.iso.dso_awards[0],
                                                     rel=1e-9, abs=1e-9 * factor)
    assert len(result.bid_curve.prices) == len(base.bid_curve.prices)


@pytest.mark.parametrize("factor", [1e-3, 1e3])  # kW feeders, and GW-sized numbers
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_feeders_survive_power_unit_scaling(factor, seed):
    _assert_power_scaling_keeps_the_curve_and_the_award(seed, factor)


@pytest.mark.parametrize("seed", KW_SCALE_LOST_BREAKPOINT)
def test_random_feeders_at_kw_scale_keep_every_breakpoint(seed):
    _assert_power_scaling_keeps_the_curve_and_the_award(seed, 1e-3)


def test_nearly_tied_cheap_blocks_under_a_large_block_keep_their_kink():
    # The kink between the $5.00 and $5.01 blocks has a probe gap of
    # 0.005 * 0.2 = 1e-3 $. A slack floor that grew with the most the
    # dispatch can cost (1e-6 * 4001) merged it, and an award between the
    # two blocks then re-dispatched 5e-4 $ off the curve.
    network = NetworkModel(
        n_nodes=2,
        load_p=(0.0, 0.0),
        load_q=(0.0, 0.0),
        branches=(Branch(0, 1, r=1e-4, x=1e-4, pl_max=200.0, ql_max=200.0),),
        substation=0,
        u_min=0.81,
        u_max=1.21,
        u_sub=1.0,
    )
    stack = BlockOfferStack((Block(0.1, 5.0), Block(0.1, 5.01), Block(100.0, 40.0)))
    scenario = Scenario(
        network=network,
        aggregators=(Aggregator(id="g", kind="DDGAG", node=1, offers=stack),),
        wholesale=(
            WholesaleParticipant("G1", GEN, BlockOfferStack((Block(1.0, 3.0),))),
            WholesaleParticipant("G2", GEN, BlockOfferStack((Block(200.0, 50.0),))),
        ),
        firm_wholesale_load=1.1,
        sweep_step=1.0,
    )
    result = check_equivalence(scenario)
    assert result.equivalence.passed
    assert list(result.bid_curve.prices) == pytest.approx([5.0, 5.01, 40.0], abs=1e-9)
    assert result.iso.dso_awards[0] == pytest.approx(0.1, abs=1e-9)
    assert result.dso_dispatch.cost == pytest.approx(0.5, abs=1e-9)


def _assert_same_curve_and_passes(scenario, variant):
    """``variant`` describes the same feeder: same breakpoints, and it passes.

    Where the firm load cannot clear, the variant must fail the same way.
    """
    base = build_bid_curve(scenario).breakpoints
    if _clears(scenario):
        result = check_equivalence(variant)
        assert result.equivalence.passed
        got = result.bid_curve.breakpoints
    else:
        with pytest.raises(lp.InfeasibleError, match=INFEASIBLE_MESSAGE):
            check_equivalence(variant)
        got = build_bid_curve(variant).breakpoints
    assert len(got) == len(base)
    for (q, cost), (q0, cost0) in zip(got, base):
        assert abs(q - q0) <= 1e-9
        assert abs(cost - cost0) <= 1e-6 * max(1.0, abs(cost0))


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_bundled_cases_survive_reversed_branches_and_relabelled_nodes(name):
    scenario = parse_case(name)
    _assert_same_curve_and_passes(scenario, reverse_branches(scenario))
    reversed_ids = range(scenario.network.n_nodes)[::-1]  # moves the substation too
    _assert_same_curve_and_passes(scenario, relabel_nodes(scenario, reversed_ids))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
@example(seed=CANNOT_CLEAR[0], rng=random.Random(0))
@example(seed=CANNOT_CLEAR[1], rng=random.Random(0))
def test_random_feeders_survive_reversed_branches_and_relabelled_nodes(seed, rng):
    scenario = random_scenario(seed)
    _assert_same_curve_and_passes(scenario, reverse_branches(scenario))
    perm = rng.sample(range(scenario.network.n_nodes), scenario.network.n_nodes)
    _assert_same_curve_and_passes(scenario, relabel_nodes(scenario, perm))


@pytest.mark.parametrize("family", BINDING)
@pytest.mark.parametrize("seed", BINDING_SAMPLE)
def test_binding_feeders_survive_reversed_branches_and_relabelled_nodes(family, seed):
    scenario = _binding(family, seed)
    _assert_same_curve_and_passes(scenario, reverse_branches(scenario))
    perm = random.Random(seed).sample(range(scenario.network.n_nodes), scenario.network.n_nodes)
    _assert_same_curve_and_passes(scenario, relabel_nodes(scenario, perm))


def _assert_same_awards_and_passes(scenario, variant):
    """``variant`` clears the same MW as ``scenario`` and passes the check."""
    if not _clears(scenario):  # then no price unit clears it either
        with pytest.raises(lp.InfeasibleError, match=INFEASIBLE_MESSAGE):
            check_equivalence(variant)
        return
    base, result = run_coordinated(scenario), check_equivalence(variant)
    assert result.equivalence.passed, result.equivalence.max_deviation
    assert result.iso.dso_awards == pytest.approx(base.iso.dso_awards, abs=1e-9)
    assert result.iso.cleared == pytest.approx(base.iso.cleared, abs=1e-9)
    assert result.dso_dispatch.aggregator_dispatch == pytest.approx(
        base.dso_dispatch.aggregator_dispatch, abs=1e-9)


@pytest.mark.parametrize("factor", [1e-3, 1e3])  # $/kWh, and a thousandfold currency unit
@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_bundled_cases_survive_price_unit_scaling(name, factor):
    scenario = parse_case(name)
    _assert_same_awards_and_passes(scenario, scale_prices(scenario, factor))


@pytest.mark.parametrize("factor", [1e-3, 1e3])
@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=398)  # a wholesale offer 1e-4 $/MWh below a curve segment's price
@example(seed=CANNOT_CLEAR[0])
@example(seed=CANNOT_CLEAR[1])
def test_random_feeders_survive_price_unit_scaling(factor, seed):
    scenario = random_scenario(seed)
    _assert_same_awards_and_passes(scenario, scale_prices(scenario, factor))


# Seeds that raised SolverError or failed the check at x1e6 prices when the
# Devex-priced solves read x off an updated factor (see lp._Backend).
@pytest.mark.parametrize("seed", [4, 7, 9, 14, 15, 16])
def test_random_feeders_at_a_million_times_the_prices_pass(seed):
    scenario = random_scenario(seed)
    _assert_same_awards_and_passes(scenario, scale_prices(scenario, 1e6))


def _assert_passes_at_ten_million_times_the_prices(scenario):
    _assert_same_awards_and_passes(scenario, scale_prices(scenario, 1e7))


# 69 failed while the check solved the joint LP, whose objective and duality
# gap exceeded the bounds; without that solve the check's gap is -9.5e-7 and
# the largest solve gap 8.9e-8. 189 failed on a solve gap of 2.4e-7 while the
# DSO's LP carried every DistFlow row; on the block LP its largest is 6.0e-8.
# 66 and 167 failed on solve gaps of 2.4e-7 and 7.2e-7 while solves were held
# to an absolute 1e-7; each is under 1e-15 of the magnitudes it is summed from.
@pytest.mark.parametrize("seed", [66, 69, 167, 189])
def test_random_feeders_at_ten_million_times_the_prices_pass(seed):
    _assert_passes_at_ten_million_times_the_prices(random_scenario(seed))


FAILS_ON_THE_CHECKS_GAP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 5: the check's objective gap is absolute, so at x1e7 prices its "
           "rounding alone (1.4e-6 to 1.9e-6) exceeds the case tolerance 1e-6; every "
           "solve passes")


@FAILS_ON_THE_CHECKS_GAP
@pytest.mark.parametrize("seed", [39, 110])
def test_random_feeders_at_ten_million_times_the_prices_still_pass(seed):
    _assert_passes_at_ten_million_times_the_prices(random_scenario(seed))


# Feasible binding seeds; the check's gap fails A-75, A-134 and B-135, as it
# fails 39 and 110. B-188 raised SolverError while solves were held to an
# absolute bound: one gap was 1.3e-5, under 1e-15 of the magnitudes it is
# summed from.
@pytest.mark.parametrize("family, seed", [
    pytest.param(family, seed, id=f"{family}-{seed}", marks=(
        FAILS_ON_THE_CHECKS_GAP if (family, seed) in {("A", 75), ("A", 134), ("B", 135)} else ()))
    for family in BINDING for seed in range(200) if seed not in BINDING_INFEASIBLE[family]])
def test_binding_feeders_at_ten_million_times_the_prices_pass(family, seed):
    _assert_passes_at_ten_million_times_the_prices(_binding(family, seed))


def _with_out_of_merit_block(scenario):
    top = max(blk.price for part in scenario.aggregators + scenario.wholesale
              for blk in part.offers.blocks)
    extra = WholesaleParticipant("OutOfMerit", GEN, BlockOfferStack((Block(50.0, top + 100.0),)))
    return dataclasses.replace(scenario, wholesale=scenario.wholesale + (extra,))


def _assert_out_of_merit_block_changes_nothing(scenario):
    base = run_coordinated(scenario)
    result = check_equivalence(_with_out_of_merit_block(scenario))
    assert result.equivalence.passed
    assert result.bid_curve == base.bid_curve
    assert result.iso.dso_awards == base.iso.dso_awards
    assert result.iso.objective == pytest.approx(base.iso.objective, abs=1e-9)
    assert result.iso.cleared["OutOfMerit"] == 0.0


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_bundled_cases_ignore_an_out_of_merit_generator(name):
    _assert_out_of_merit_block_changes_nothing(parse_case(name))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_feeders_ignore_an_out_of_merit_generator(seed):
    _assert_out_of_merit_block_changes_nothing(random_scenario(seed))


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_equivalence_check_on_a_parsed_case_validates_once_and_derives_no_incidence(
        name, monkeypatch):
    scenario = parse_case(name)  # a fresh object, so nothing of it is compiled yet
    requirements = count_calls(monkeypatch, model, "require_valid")
    validations = count_calls(monkeypatch, model, "validate")
    incidences = count_calls(monkeypatch, model, "derived_incidence")
    assert check_equivalence(scenario).equivalence.passed
    assert len(requirements) == 1  # by the compiled model
    assert validations == []  # which reads the verdict the parse left on the scenario
    assert incidences == []  # and the parse's incidence, kept on the network


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_a_network_derives_its_incidence_once(name, monkeypatch):
    incidences = count_calls(monkeypatch, model, "derived_incidence")
    scenario = parse_case(name)  # validates the case
    assert model.validate(scenario) == []
    feasible_range(scenario)  # builds the DSO's LP
    run_ideal(scenario)  # builds the joint LP
    # A new scenario object on the same network is validated and compiled anew.
    assert check_equivalence(dataclasses.replace(scenario)).equivalence.passed
    assert len(incidences) == 1


@pytest.mark.parametrize("call", [
    feasible_range, build_bid_curve, lambda scenario: value_at(scenario, 0.0),
    run_coordinated, check_equivalence,
], ids=["feasible_range", "build_bid_curve", "value_at", "run_coordinated",
        "check_equivalence"])
def test_invalid_scenario_fails_validation_on_every_call(reference, call):
    cyclic = dataclasses.replace(reference.network, branches=(
        *reference.network.branches[:-1], Branch(0, 1, 0.01, 0.01, 5.0, 5.0)))
    for invalid in (dataclasses.replace(reference, tolerance=-1.0),
                    dataclasses.replace(reference, network=cyclic)):
        for _ in range(2):
            with pytest.raises(ValidationError):
                call(invalid)


@pytest.mark.parametrize("group, index, new_id", [
    ("aggregators", 0, "pflow"), ("aggregators", 1, "qflow"), ("aggregators", 2, "usq"),
    ("wholesale", 0, "dso.DDGAG1"),
])
def test_participant_ids_shaped_like_lp_columns_change_no_number(reference, group, index,
                                                                   new_id):
    # The LP addresses its columns by index, so no id can collide with another
    # column: these four once raised "already declared" on building the LP.
    participants = list(getattr(reference, group))
    old_id = participants[index].id
    participants[index] = dataclasses.replace(participants[index], id=new_id)
    renamed = dataclasses.replace(reference, **{group: tuple(participants)})
    assert model.validate(renamed) == []
    result = check_equivalence(renamed)
    assert result.equivalence.passed
    original = check_equivalence(dataclasses.replace(reference))
    assert repr(new_id) in repr(result) and repr(old_id) not in repr(result)
    assert repr(result).replace(repr(new_id), repr(old_id)) == repr(original)
