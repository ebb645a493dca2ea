"""Shared test machinery: random scenarios, brute-force oracles, residual checks,
unit rescaling, metamorphic network transforms, a forced equivalence
failure for the CLI, and call counters for the compiled-model caches.

The oracles here are deliberately independent of the package's LP path:
dispatch problems are solved by enumerating vertex dispatches (every subset
of saturated blocks plus at most one fractional block), and network
equations are re-evaluated from primal values with a fresh tree walk.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys

import numpy as np

import gridcoord.cli as cli
import gridcoord.lp as lp
from gridcoord.model import (
    DDGAG,
    DR,
    DRAG,
    GEN,
    REAG,
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    Incidence,
    NetworkModel,
    Scenario,
    WholesaleParticipant,
)

# ---------------------------------------------------------------------------
# Brute-force dispatch oracle
# ---------------------------------------------------------------------------


def brute_force_min_cost(blocks, target, fixed=0.0, atol=1e-9):
    """Minimum of sum(cost_i * x_i) s.t. sum(coeff_i * x_i) + fixed == target.

    ``blocks`` is a list of (cap, cost_per_mw, coeff) with x_i in [0, cap].
    An optimal vertex saturates every block but at most one, so enumerate
    subsets of saturated blocks and let each remaining block (or none) take
    the fractional residual. Returns None when no vertex balances.
    """
    best = None
    idx = range(len(blocks))
    for saturated in itertools.chain.from_iterable(
        itertools.combinations(idx, k) for k in range(len(blocks) + 1)
    ):
        base = fixed + sum(blocks[i][0] * blocks[i][2] for i in saturated)
        cost = sum(blocks[i][0] * blocks[i][1] for i in saturated)
        residual = target - base
        if abs(residual) <= atol:
            best = cost if best is None else min(best, cost)
            continue
        for j in idx:
            if j in saturated:
                continue
            cap, unit_cost, coeff = blocks[j]
            if coeff == 0:
                continue
            x = residual / coeff
            if -atol <= x <= cap + atol:
                total = cost + max(0.0, min(x, cap)) * unit_cost
                best = total if best is None else min(best, total)
    return best


def aggregator_blocks_for_oracle(scenario: Scenario):
    """(cap, cost, balance coeff) triples plus the fixed injection and load."""
    blocks = []
    fixed = -sum(scenario.network.load_p)
    for agg in scenario.aggregators:
        if agg.kind == REAG:
            fixed += agg.fixed_output
        elif agg.kind == DRAG:
            blocks.extend((b.p_max, -b.price, -1.0) for b in agg.offers.blocks)
        else:
            blocks.extend((b.p_max, b.price, 1.0) for b in agg.offers.blocks)
    return blocks, fixed


def dso_cost_oracle(scenario: Scenario, net_export: float):
    """Network-free minimum dispatch cost at a given export (non-binding grids)."""
    blocks, fixed = aggregator_blocks_for_oracle(scenario)
    return brute_force_min_cost(blocks, net_export, fixed=fixed, atol=1e-7)


def capacity_export_range(scenario: Scenario):
    """Feasible export range by pure capacity sums (ignores the network)."""
    fixed = sum(a.fixed_output for a in scenario.aggregators if a.kind == REAG)
    fixed -= sum(scenario.network.load_p)
    gen = sum(a.offers.capacity for a in scenario.aggregators if a.kind == DDGAG)
    dem = sum(a.offers.capacity for a in scenario.aggregators if a.kind == DRAG)
    return fixed - dem, fixed + gen


# ---------------------------------------------------------------------------
# Independent network-equation residuals
# ---------------------------------------------------------------------------


def distflow_residuals(network: NetworkModel, voltages_sq, flows_p, flows_q):
    """Max residual of the voltage recursion plus worst voltage-bound violation.

    Re-derives parent/child orientation with its own walk over the branch
    list so the check does not reuse the package's incidence code.
    """
    n = network.n_nodes
    neighbors = {i: [] for i in range(n)}
    for j, br in enumerate(network.branches):
        neighbors[br.from_node].append((j, br.to_node))
        neighbors[br.to_node].append((j, br.from_node))

    order = [network.substation]
    parent_of = {network.substation: None}
    for node in order:
        for j, other in neighbors[node]:
            if other not in parent_of:
                parent_of[other] = (j, node)
                order.append(other)

    recursion = 0.0
    for node in order[1:]:
        j, parent = parent_of[node]
        br = network.branches[j]
        sign = 1.0 if br.from_node == parent else -1.0  # flow stored parent->child
        drop = 2.0 * (br.r * sign * flows_p[j] + br.x * sign * flows_q[j]) / network.base_mva
        recursion = max(recursion, abs(voltages_sq[node] - voltages_sq[parent] + drop))

    bounds = 0.0
    for i in range(n):
        lo = network.u_sub if i == network.substation else network.u_min
        hi = network.u_sub if i == network.substation else network.u_max
        bounds = max(bounds, lo - voltages_sq[i], voltages_sq[i] - hi, 0.0)
    return recursion, bounds


def root_paths(inc: Incidence, substation: int) -> list[list[int]]:
    """Per node, the ids of the branches between it and the substation."""
    parent_branch = {node: j for j, node in enumerate(inc.child)}
    paths = []
    for node in range(len(inc.child) + 1):
        path = []
        while node != substation:
            path.append(parent_branch[node])
            node = inc.parent[path[-1]]
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Random scenario generation (seeded, deterministic)
# ---------------------------------------------------------------------------


def random_scenario(seed: int) -> Scenario:
    """Small random case: radial tree <= 12 nodes, convex stacks, loose voltages."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, 13))

    branches = tuple(
        Branch(
            from_node=int(rng.integers(0, i)),
            to_node=i,
            r=1e-4,
            x=1e-4,
            pl_max=50.0,
            ql_max=50.0,
        )
        for i in range(1, n_nodes)
    )
    load_p = tuple(float(v) for v in np.round(rng.uniform(0.0, 0.3, n_nodes), 3))
    load_q = tuple(float(v) for v in np.round(rng.uniform(-0.1, 0.1, n_nodes), 3))
    network = NetworkModel(
        n_nodes=n_nodes,
        load_p=load_p,
        load_q=load_q,
        branches=branches,
        substation=0,
        u_min=0.81,
        u_max=1.21,
        u_sub=1.0,
    )

    def stack(n_blocks, demand_side):
        caps = np.round(rng.uniform(0.2, 1.5, n_blocks), 3)
        prices = np.round(rng.uniform(5.0, 40.0, n_blocks), 4)
        prices = np.sort(prices)[::-1] if demand_side else np.sort(prices)
        return BlockOfferStack(
            tuple(Block(float(c), float(p)) for c, p in zip(caps, prices))
        )

    aggregators = []
    for k in range(int(rng.integers(1, 5))):
        kind = str(rng.choice([DDGAG, DRAG, REAG], p=[0.5, 0.3, 0.2]))
        node = int(rng.integers(0, n_nodes))
        tan_phi = float(np.round(rng.uniform(0.0, 0.4), 3)) if rng.random() < 0.5 else 0.0
        if kind == REAG:
            aggregators.append(
                Aggregator(
                    id=f"A{k}", kind=kind, node=node, offers=BlockOfferStack(()),
                    tan_phi=tan_phi, fixed_output=float(np.round(rng.uniform(0.0, 1.5), 3)),
                )
            )
        else:
            aggregators.append(
                Aggregator(
                    id=f"A{k}", kind=kind, node=node,
                    offers=stack(int(rng.integers(1, 4)), demand_side=kind == DRAG),
                    tan_phi=tan_phi,
                )
            )

    wholesale = [
        WholesaleParticipant(id=f"G{k}", kind=GEN, offers=stack(int(rng.integers(1, 3)), False))
        for k in range(int(rng.integers(1, 4)))
    ]
    # Scale generator caps up so the wholesale side can carry a firm load.
    wholesale = [
        WholesaleParticipant(
            id=wp.id,
            kind=wp.kind,
            offers=BlockOfferStack(
                tuple(Block(b.p_max * 8.0, b.price) for b in wp.offers.blocks)
            ),
        )
        for wp in wholesale
    ]
    for k in range(int(rng.integers(0, 3))):
        wholesale.append(
            WholesaleParticipant(id=f"D{k}", kind=DR, offers=stack(int(rng.integers(1, 3)), True))
        )

    scenario = Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=tuple(wholesale),
        firm_wholesale_load=0.0,
        sweep_step=1.0,
        tolerance=1e-6,
    )
    q_lo, q_hi = capacity_export_range(scenario)
    gen_cap = sum(wp.offers.capacity for wp in wholesale if wp.kind == GEN)
    firm_lo = max(0.0, q_lo)
    firm_hi = max(firm_lo + 0.1, q_hi + 0.9 * gen_cap)
    firm = float(np.round(rng.uniform(firm_lo, min(firm_hi, firm_lo + 25.0)), 3))
    step = max((q_hi - q_lo) / 12.0, 0.02)
    return Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=tuple(wholesale),
        firm_wholesale_load=firm,
        sweep_step=float(step),
        tolerance=1e-6,
    )


# ---------------------------------------------------------------------------
# Unit rescaling
# ---------------------------------------------------------------------------


def scale_power(scenario: Scenario, factor: float) -> Scenario:
    """Every MW/MVAr quantity times ``factor``; r and x divided by it.

    Voltage drops 2 (r p + x q) / base_mva are unchanged, so ``factor=1e-3``
    turns a MW case into the same feeder stated in kW-sized numbers.
    """
    def blocks(stack: BlockOfferStack) -> BlockOfferStack:
        return BlockOfferStack(tuple(Block(b.p_max * factor, b.price) for b in stack.blocks))

    net = scenario.network
    network = dataclasses.replace(
        net,
        load_p=tuple(v * factor for v in net.load_p),
        load_q=tuple(v * factor for v in net.load_q),
        branches=tuple(
            dataclasses.replace(br, r=br.r / factor, x=br.x / factor,
                                pl_max=br.pl_max * factor, ql_max=br.ql_max * factor)
            for br in net.branches
        ),
    )
    return dataclasses.replace(
        scenario,
        network=network,
        aggregators=tuple(
            dataclasses.replace(agg, offers=blocks(agg.offers),
                                fixed_output=agg.fixed_output * factor)
            for agg in scenario.aggregators
        ),
        wholesale=tuple(
            dataclasses.replace(wp, offers=blocks(wp.offers)) for wp in scenario.wholesale
        ),
        firm_wholesale_load=scenario.firm_wholesale_load * factor,
        sweep_step=scenario.sweep_step * factor,
    )


def scale_prices(scenario: Scenario, factor: float) -> Scenario:
    """Every offer price times ``factor``: $/MWh restated in another currency unit."""
    def blocks(stack: BlockOfferStack) -> BlockOfferStack:
        return BlockOfferStack(tuple(Block(b.p_max, b.price * factor) for b in stack.blocks))

    return dataclasses.replace(
        scenario,
        aggregators=tuple(dataclasses.replace(agg, offers=blocks(agg.offers))
                          for agg in scenario.aggregators),
        wholesale=tuple(dataclasses.replace(wp, offers=blocks(wp.offers))
                        for wp in scenario.wholesale),
    )


# ---------------------------------------------------------------------------
# Metamorphic transforms: the same physical feeder, described differently
# ---------------------------------------------------------------------------


def reverse_branches(scenario: Scenario) -> Scenario:
    """Every branch declared from its other end; orientation is derived, not declared."""
    net = scenario.network
    branches = tuple(dataclasses.replace(br, from_node=br.to_node, to_node=br.from_node)
                     for br in net.branches)
    return dataclasses.replace(scenario, network=dataclasses.replace(net, branches=branches))


def relabel_nodes(scenario: Scenario, perm) -> Scenario:
    """Node i renamed ``perm[i]``; loads, branch ends, substation and aggregators follow."""
    net = scenario.network
    perm = [int(p) for p in perm]
    load_p, load_q = [0.0] * net.n_nodes, [0.0] * net.n_nodes
    for i, p in enumerate(perm):
        load_p[p], load_q[p] = net.load_p[i], net.load_q[i]
    network = dataclasses.replace(
        net,
        load_p=tuple(load_p),
        load_q=tuple(load_q),
        branches=tuple(dataclasses.replace(br, from_node=perm[br.from_node],
                                           to_node=perm[br.to_node])
                       for br in net.branches),
        substation=perm[net.substation],
    )
    return dataclasses.replace(
        scenario,
        network=network,
        aggregators=tuple(dataclasses.replace(agg, node=perm[agg.node])
                          for agg in scenario.aggregators),
    )


# ---------------------------------------------------------------------------
# Forced verification failure
# ---------------------------------------------------------------------------


def force_equivalence_failure(monkeypatch) -> None:
    """Make ``gridcoord verify`` see a failed report, keeping the real numbers.

    An exact pipeline can show zero deviation, which no tolerance fails, so
    exit code 2 is exercised by flipping ``passed`` on the real result.
    """
    real = cli.check_equivalence

    def failing(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(
            result, equivalence=dataclasses.replace(result.equivalence, passed=False)
        )

    monkeypatch.setattr(cli, "check_equivalence", failing)


# ---------------------------------------------------------------------------
# Call counters and exact answers, for the compiled-model caches
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, module, name: str) -> list:
    """Count calls to ``module.name`` through every gridcoord module bound to it.

    Returns a list that grows by one entry per call, for as long as the
    monkeypatch lasts.
    """
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "gridcoord" or key.startswith("gridcoord.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def count_compiles(monkeypatch) -> list:
    """Count LinearPrograms loaded into a new HiGHS instance."""
    return count_calls(monkeypatch, lp, "_Backend")


def answer(call, *args):
    """``call(*args)``, or the type and message of the InfeasibleError it raised."""
    try:
        return call(*args)
    except lp.InfeasibleError as exc:
        return "InfeasibleError", str(exc)
