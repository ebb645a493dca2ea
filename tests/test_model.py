import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcoord.caseio import parse_case, scenario_from_dict, scenario_to_dict
from gridcoord.model import (
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    derived_incidence,
    validate,
)

from support import random_scenario


def small_network(branches, n_nodes, substation=0):
    return NetworkModel(
        n_nodes=n_nodes,
        load_p=(0.0,) * n_nodes,
        load_q=(0.0,) * n_nodes,
        branches=tuple(branches),
        substation=substation,
        u_min=0.81,
        u_max=1.21,
        u_sub=1.0,
    )


def scenario_with(network, aggregators=(), wholesale=()):
    return Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=tuple(wholesale),
        firm_wholesale_load=0.0,
    )


BR = dict(r=0.001, x=0.001, pl_max=10.0, ql_max=10.0)


def test_paper_case_is_valid():
    assert validate(parse_case("paper_reference")) == []
    assert validate(parse_case("paper_as_printed")) == []
    assert validate(parse_case("voltage_binding")) == []


def test_cycle_is_flagged_as_radiality_violation():
    # 3 nodes, 3 branches: a cycle (and the wrong branch count).
    net = small_network(
        [Branch(0, 1, **BR), Branch(1, 2, **BR), Branch(2, 0, **BR)], n_nodes=3
    )
    violations = validate(scenario_with(net))
    assert len(violations) == 1
    assert "radial" in violations[0]

    # 4 nodes, 3 branches, but one is a duplicate edge: cycle with the right count.
    net = small_network(
        [Branch(0, 1, **BR), Branch(1, 2, **BR), Branch(2, 1, **BR)], n_nodes=4
    )
    violations = validate(scenario_with(net))
    assert any("cycle" in v or "unreachable" in v for v in violations)


def test_decreasing_supply_prices_flagged_as_convexity_violation():
    net = small_network([Branch(0, 1, **BR)], n_nodes=2)
    agg = Aggregator(
        id="g",
        kind="DDGAG",
        node=1,
        offers=BlockOfferStack((Block(1.0, 20.0), Block(1.0, 10.0))),
    )
    violations = validate(scenario_with(net, [agg]))
    assert len(violations) == 1
    assert "nondecreasing" in violations[0] and "convex" in violations[0]


def test_demand_prices_must_be_nonincreasing():
    net = small_network([Branch(0, 1, **BR)], n_nodes=2)
    agg = Aggregator(
        id="d",
        kind="DRAG",
        node=1,
        offers=BlockOfferStack((Block(1.0, 10.0), Block(1.0, 20.0))),
    )
    assert any("nonincreasing" in v for v in validate(scenario_with(net, [agg])))


def test_reag_must_have_empty_stack_and_nonnegative_output():
    net = small_network([Branch(0, 1, **BR)], n_nodes=2)
    bad = Aggregator(
        id="r",
        kind="REAG",
        node=1,
        offers=BlockOfferStack((Block(1.0, 0.0),)),
        fixed_output=-1.0,
    )
    violations = validate(scenario_with(net, [bad]))
    assert any("fixed_output" in v for v in violations)
    assert any("empty" in v for v in violations)


def test_validate_reports_field_paths():
    net = small_network([Branch(0, 1, **BR)], n_nodes=2)
    agg = Aggregator(
        id="g", kind="DDGAG", node=7, offers=BlockOfferStack((Block(-1.0, 5.0),))
    )
    violations = validate(scenario_with(net, [agg]))
    assert any(v.startswith("aggregators[0].node") for v in violations)
    assert any(v.startswith("aggregators[0].offers.blocks[0].p_max") for v in violations)


def test_incidence_two_node_line():
    net = small_network([Branch(0, 1, **BR)], n_nodes=2)
    inc = derived_incidence(net)
    assert inc.parent == (0,)
    assert inc.child == (1,)


def test_incidence_star_all_leaves_hang_off_root():
    net = small_network([Branch(0, k, **BR) for k in range(1, 5)], n_nodes=5)
    inc = derived_incidence(net)
    assert all(p == 0 for p in inc.parent)
    assert set(inc.child) == {1, 2, 3, 4}


def test_incidence_paper_case_every_nonroot_node_has_one_parent():
    net = parse_case("paper_reference").network
    inc = derived_incidence(net)
    assert len(inc.parent) == 9
    non_root = [i for i in range(net.n_nodes) if i != net.substation]
    assert sorted(inc.child) == non_root


def test_incidence_orientation_survives_reversed_branch_declarations():
    # Declaring a branch child->parent must not change the derived orientation.
    fwd = small_network([Branch(0, 1, **BR), Branch(1, 2, **BR)], n_nodes=3)
    rev = small_network([Branch(1, 0, **BR), Branch(2, 1, **BR)], n_nodes=3)
    assert derived_incidence(fwd) == derived_incidence(rev)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validate_is_pure_and_idempotent(seed):
    scenario = random_scenario(seed)
    first = validate(scenario)
    second = validate(scenario)
    assert first == second == []


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_incidence_yields_one_parent_per_nonroot_node(seed):
    net = random_scenario(seed).network
    inc = derived_incidence(net)
    # Each branch hangs one node off the tree, and never the substation.
    assert sorted(inc.child) == [i for i in range(net.n_nodes) if i != net.substation]


def test_incidence_raises_on_disconnected_network():
    net = small_network([Branch(0, 1, **BR), Branch(2, 3, **BR)], n_nodes=4)
    with pytest.raises(ValueError, match="unreachable"):
        derived_incidence(net)


# JSON path of a number in paper_reference's case document -> its violation's field path.
NUMBERS = {
    ("network", "base_mva"): "network.base_mva",
    ("network", "u_min"): "network.u_min",
    ("network", "u_max"): "network.u_max",
    ("network", "u_sub"): "network.u_sub",
    ("network", "nodes", 2, "lp"): "network.nodes[2].lp",
    ("network", "nodes", 2, "lq"): "network.nodes[2].lq",
    ("network", "branches", 1, "r"): "network.branches[1].r",
    ("network", "branches", 1, "x"): "network.branches[1].x",
    ("network", "branches", 1, "pl_max"): "network.branches[1].pl_max",
    ("network", "branches", 1, "ql_max"): "network.branches[1].ql_max",
    ("aggregators", 0, "tan_phi"): "aggregators[0].tan_phi",
    ("aggregators", 4, "fixed_output"): "aggregators[4].fixed_output",  # the REAG
    ("aggregators", 0, "blocks", 0, "p_max"): "aggregators[0].offers.blocks[0].p_max",
    ("aggregators", 5, "blocks", 0, "price"): "aggregators[5].offers.blocks[0].price",
    ("wholesale", 1, "blocks", 0, "p_max"): "wholesale[1].offers.blocks[0].p_max",
    ("wholesale", 3, "blocks", 0, "price"): "wholesale[3].offers.blocks[0].price",
    ("firm_load",): "firm_load",
    ("tolerance",): "tolerance",  # an infinite one would pass every equivalence check
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", NUMBERS, ids=NUMBERS.values())
def test_every_nonfinite_number_is_a_violation(where, bad):
    doc = scenario_to_dict(parse_case("paper_reference"))
    *parents, key = where
    node = doc
    for step in parents:
        node = node[step]
    node[key] = bad
    violations = validate(scenario_from_dict(doc))
    assert f"{NUMBERS[where]}: must be finite, got {bad}" in violations
