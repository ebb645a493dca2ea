import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcoord.lp as lp
from gridcoord.caseio import BUNDLED_CASES, parse_case
from gridcoord.distflow import build_constraints, dispatch_cost_coeffs
from gridcoord.dso import feasible_range, value_at
from gridcoord.model import (
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    derived_incidence,
)

from support import (
    capacity_export_range,
    distflow_residuals,
    random_scenario,
    reverse_branches,
    root_paths,
)


def line_network(n_nodes, r=0.001, x=0.001):
    return NetworkModel(
        n_nodes=n_nodes,
        load_p=(0.0,) * n_nodes,
        load_q=(0.0,) * n_nodes,
        branches=tuple(
            Branch(i, i + 1, r=r, x=x, pl_max=10.0, ql_max=10.0) for i in range(n_nodes - 1)
        ),
        substation=0,
        u_min=0.81,
        u_max=1.21,
        u_sub=1.0,
    )


def test_single_branch_forced_dispatch_and_flow_direction():
    net = line_network(2)
    gen = Aggregator(
        id="g", kind="DDGAG", node=1, offers=BlockOfferStack((Block(1.0, 10.0),))
    )
    prog, dvars = build_constraints(net, [gen])
    prog.set_bounds(dvars.p_exchange, 1.0, 1.0)
    prog.set_objective(dispatch_cost_coeffs([gen], dvars))
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.x[dvars.blocks["g"][0]] == pytest.approx(1.0)
    # Positive flow points parent->child; exporting 1 MW flows toward the root.
    assert sol.x[dvars.p_flow[0]] == pytest.approx(-1.0)


def test_variable_count_matches_contract_in_pinned_mode():
    scenario = parse_case("paper_reference")
    prog, dvars = build_constraints(scenario.network, scenario.aggregators)
    prog.set_bounds(dvars.p_exchange, 0.0, 0.0)  # pinning moves bounds, not the columns
    n_blocks = sum(len(a.offers.blocks) for a in scenario.aggregators)
    n_branches = len(scenario.network.branches)
    assert prog.n_cols == n_blocks + 2 * n_branches + scenario.network.n_nodes + 2


def test_export_beyond_capacity_is_infeasible_not_garbage():
    scenario = parse_case("paper_reference")
    for q in (5.8, -1.6):
        prog, dvars = build_constraints(scenario.network, scenario.aggregators)
        prog.set_bounds(dvars.p_exchange, q, q)
        prog.set_objective(dispatch_cost_coeffs(scenario.aggregators, dvars))
        assert lp.solve(prog).status == lp.INFEASIBLE


def test_reactive_balance_carries_power_factor_draw():
    net = line_network(2)
    gen = Aggregator(
        id="g",
        kind="DDGAG",
        node=1,
        offers=BlockOfferStack((Block(2.0, 10.0),)),
        tan_phi=0.5,
    )
    prog, dvars = build_constraints(net, [gen])
    prog.set_bounds(dvars.p_exchange, 2.0, 2.0)
    prog.set_objective(dispatch_cost_coeffs([gen], dvars))
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    # 2 MW at tan(phi)=0.5 injects 1 MVAr, which leaves through the substation.
    assert sol.x[dvars.q_flow[0]] == pytest.approx(-1.0)
    assert sol.x[dvars.q_exchange] == pytest.approx(1.0)


def test_builder_rejects_unknown_node_and_nonradial_network():
    net = line_network(2)
    stray = Aggregator(id="g", kind="DDGAG", node=5, offers=BlockOfferStack((Block(1.0, 1.0),)))
    with pytest.raises(ValueError, match="unknown node"):
        build_constraints(net, [stray])

    looped = dataclasses.replace(
        net, branches=net.branches + (Branch(1, 0, 0.001, 0.001, 10.0, 10.0),)
    )
    with pytest.raises(ValueError, match="cycle"):
        build_constraints(looped, [])


def _zero_impedance(scenario):
    branches = tuple(
        dataclasses.replace(br, r=0.0, x=0.0) for br in scenario.network.branches
    )
    return dataclasses.replace(
        scenario, network=dataclasses.replace(scenario.network, branches=branches)
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_zero_impedance_flattens_voltage_and_range_equals_capacity_sums(seed):
    scenario = _zero_impedance(random_scenario(seed))
    lo, hi = feasible_range(scenario)
    cap_lo, cap_hi = capacity_export_range(scenario)
    assert lo == pytest.approx(cap_lo, abs=1e-7)
    assert hi == pytest.approx(cap_hi, abs=1e-7)
    dispatch = value_at(scenario, (lo + hi) / 2.0)
    for u in dispatch.voltages_sq:
        assert u == pytest.approx(scenario.network.u_sub, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
def test_nodal_conservation_at_any_feasible_point(seed, frac):
    scenario = random_scenario(seed)
    lo, hi = feasible_range(scenario)
    q = lo + frac * (hi - lo)
    dispatch = value_at(scenario, q)
    gen = sum(
        v for a in scenario.aggregators if a.kind != "DRAG"
        for v in [dispatch.by_aggregator[a.id]]
    )
    demand = sum(
        dispatch.by_aggregator[a.id] for a in scenario.aggregators if a.kind == "DRAG"
    )
    firm = sum(scenario.network.load_p)
    assert gen == pytest.approx(demand + firm + q, abs=1e-7)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
)
def test_voltage_recursion_telescopes_along_root_paths(seed, frac):
    scenario = random_scenario(seed)
    net = scenario.network
    lo, hi = feasible_range(scenario)
    dispatch = value_at(scenario, lo + frac * (hi - lo))
    paths = root_paths(derived_incidence(net), net.substation)
    for node in range(net.n_nodes):
        drop = sum(
            2.0
            * (
                net.branches[j].r * dispatch.flows_p[j]
                + net.branches[j].x * dispatch.flows_q[j]
            )
            / net.base_mva
            for j in paths[node]
        )
        assert dispatch.voltages_sq[node] == pytest.approx(net.u_sub - drop, abs=1e-7)

    recursion, bounds = distflow_residuals(
        net, dispatch.voltages_sq, dispatch.flows_p, dispatch.flows_q
    )
    assert recursion <= 1e-7
    assert bounds <= 1e-7


@pytest.mark.parametrize("name", ["paper_reference", "voltage_binding"])
def test_recursion_holds_on_branches_declared_child_to_parent(name):
    scenario = reverse_branches(parse_case(name))
    dispatch = value_at(scenario, 0.3)
    recursion, bounds = distflow_residuals(
        scenario.network, dispatch.voltages_sq, dispatch.flows_p, dispatch.flows_q
    )
    assert recursion <= 1e-9
    assert bounds <= 1e-9


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_the_feeder_tree_is_the_declared_start_basis(name, reverse):
    scenario = parse_case(name)
    if reverse:
        scenario = reverse_branches(scenario)
    net = scenario.network
    prog, dvars = build_constraints(net, scenario.aggregators)
    tree = {*dvars.p_flow, *dvars.q_flow, dvars.q_exchange, dvars.p_exchange,
            *(v for i, v in enumerate(dvars.voltage_sq) if i != net.substation)}
    assert prog._basic_cols == tree
    assert not prog._basic_rows
    assert len(tree) == 3 * net.n_nodes - 1 == len(prog._rhs)
