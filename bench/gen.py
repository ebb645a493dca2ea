"""Seeded input generators for the benchmark workloads.

They live beside the benchmark, not in ``tests/``, so that editing the test
helpers cannot silently change what the benchmark measures. Every generator
is a pure function of its seed. All quantities are MW / $/MWh.

- ``small_scenario`` draws from the same distribution as the test suite's
  ``random_scenario`` (radial tree of at most 12 nodes, convex stacks, loose
  voltages) and gives the same scenario for the same seed at the commit the
  benchmark was written at.
- ``feeder_scenario`` builds one synthetic radial feeder: a long trunk with
  laterals, a fixed number of aggregators and blocks, and network limits
  that do not bind, so its LP size is fixed and its curve has about one
  segment per aggregator block whatever the seed.
- ``sweep_loads`` is the firm-load ladder of the award sweep.
"""

from __future__ import annotations

import numpy as np

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
    NetworkModel,
    Scenario,
    WholesaleParticipant,
)

FEEDER_NODES = 120
FEEDER_AGGREGATORS = 24  # 12 DDGAG + 8 DRAG + 4 REAG
SWEEP_LEVELS = 300       # firm loads per award-sweep batch
SWEEP_PHASES = 10        # distinct ladders; the seed picks one


def _stack(rng, n_blocks, demand_side):
    caps = np.round(rng.uniform(0.2, 1.5, n_blocks), 3)
    prices = np.round(rng.uniform(5.0, 40.0, n_blocks), 4)
    prices = np.sort(prices)[::-1] if demand_side else np.sort(prices)
    return BlockOfferStack(tuple(Block(float(c), float(p)) for c, p in zip(caps, prices)))


def capacity_export_range(aggregators, load_p) -> tuple[float, float]:
    """Net export range by capacity sums alone, ignoring the network."""
    fixed = sum(a.fixed_output for a in aggregators if a.kind == REAG) - sum(load_p)
    gen = sum(a.offers.capacity for a in aggregators if a.kind == DDGAG)
    dem = sum(a.offers.capacity for a in aggregators if a.kind == DRAG)
    return fixed - dem, fixed + gen


def small_scenario(seed: int) -> Scenario:
    """Small random case: radial tree <= 12 nodes, convex stacks, loose voltages."""
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(1, 13))
    branches = tuple(
        Branch(from_node=int(rng.integers(0, i)), to_node=i, r=1e-4, x=1e-4,
               pl_max=50.0, ql_max=50.0)
        for i in range(1, n_nodes)
    )
    load_p = tuple(float(v) for v in np.round(rng.uniform(0.0, 0.3, n_nodes), 3))
    load_q = tuple(float(v) for v in np.round(rng.uniform(-0.1, 0.1, n_nodes), 3))
    network = NetworkModel(n_nodes=n_nodes, load_p=load_p, load_q=load_q, branches=branches,
                           substation=0, u_min=0.81, u_max=1.21, u_sub=1.0)

    aggregators = []
    for k in range(int(rng.integers(1, 5))):
        kind = str(rng.choice([DDGAG, DRAG, REAG], p=[0.5, 0.3, 0.2]))
        node = int(rng.integers(0, n_nodes))
        tan_phi = float(np.round(rng.uniform(0.0, 0.4), 3)) if rng.random() < 0.5 else 0.0
        if kind == REAG:
            aggregators.append(Aggregator(
                id=f"A{k}", kind=kind, node=node, offers=BlockOfferStack(()), tan_phi=tan_phi,
                fixed_output=float(np.round(rng.uniform(0.0, 1.5), 3)),
            ))
        else:
            aggregators.append(Aggregator(
                id=f"A{k}", kind=kind, node=node,
                offers=_stack(rng, int(rng.integers(1, 4)), demand_side=kind == DRAG),
                tan_phi=tan_phi,
            ))

    wholesale = []
    for k in range(int(rng.integers(1, 4))):
        stack = _stack(rng, int(rng.integers(1, 3)), False)
        # Scale generator caps up so the wholesale side can carry a firm load.
        wholesale.append(WholesaleParticipant(
            id=f"G{k}", kind=GEN,
            offers=BlockOfferStack(tuple(Block(b.p_max * 8.0, b.price) for b in stack.blocks)),
        ))
    for k in range(int(rng.integers(0, 3))):
        wholesale.append(WholesaleParticipant(
            id=f"D{k}", kind=DR, offers=_stack(rng, int(rng.integers(1, 3)), True)))

    q_lo, q_hi = capacity_export_range(aggregators, load_p)
    gen_cap = sum(wp.offers.capacity for wp in wholesale if wp.kind == GEN)
    firm_lo = max(0.0, q_lo)
    firm_hi = max(firm_lo + 0.1, q_hi + 0.9 * gen_cap)
    firm = float(np.round(rng.uniform(firm_lo, min(firm_hi, firm_lo + 25.0)), 3))
    return Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=tuple(wholesale),
        firm_wholesale_load=firm,
        sweep_step=float(max((q_hi - q_lo) / 12.0, 0.02)),
        tolerance=1e-6,
    )


def feeder_scenario(seed: int) -> Scenario:
    """Synthetic radial feeder with FEEDER_AGGREGATORS aggregators.

    Node i hangs off node i-1 (the trunk) three times in four, otherwise off
    one of the 15 nodes before it (a lateral). Impedances and limits keep
    voltages and flows slack, so the curve's kinks come from block prices.
    """
    rng = np.random.default_rng([0xFEED, seed])
    n_nodes = FEEDER_NODES
    parents = [
        i - 1 if rng.random() < 0.75 else int(rng.integers(max(0, i - 15), i))
        for i in range(1, n_nodes)
    ]
    branches = tuple(
        Branch(from_node=p, to_node=i + 1,
               r=float(np.round(rng.uniform(1e-5, 5e-5), 7)),
               x=float(np.round(rng.uniform(1e-5, 5e-5), 7)),
               pl_max=100.0, ql_max=100.0)
        for i, p in enumerate(parents)
    )
    load_p = tuple(float(v) for v in np.round(rng.uniform(0.0, 0.15, n_nodes), 3))
    load_q = tuple(float(v) for v in np.round(rng.uniform(-0.03, 0.05, n_nodes), 3))
    network = NetworkModel(n_nodes=n_nodes, load_p=load_p, load_q=load_q, branches=branches,
                           substation=0, u_min=0.81, u_max=1.21, u_sub=1.0)

    kinds = [DDGAG] * 12 + [DRAG] * 8 + [REAG] * 4
    aggregators = []
    for k, kind in enumerate(kinds):
        node = int(rng.integers(1, n_nodes))
        tan_phi = float(np.round(rng.uniform(0.0, 0.3), 3))
        if kind == REAG:
            aggregators.append(Aggregator(
                id=f"{kind}{k}", kind=kind, node=node, offers=BlockOfferStack(()), tan_phi=tan_phi,
                fixed_output=float(np.round(rng.uniform(0.2, 1.5), 3)),
            ))
        else:
            aggregators.append(Aggregator(
                id=f"{kind}{k}", kind=kind, node=node,
                offers=_stack(rng, 1, demand_side=kind == DRAG), tan_phi=tan_phi,
            ))

    wholesale = [
        WholesaleParticipant(id=f"G{k}", kind=GEN, offers=BlockOfferStack(tuple(
            Block(b.p_max * 10.0, b.price) for b in _stack(rng, 2, False).blocks)))
        for k in range(3)
    ]
    wholesale.append(WholesaleParticipant(id="D0", kind=DR, offers=_stack(rng, 2, True)))

    q_lo, q_hi = capacity_export_range(aggregators, load_p)
    firm = float(np.round(max(0.0, q_lo) + rng.uniform(2.0, 10.0), 3))
    return Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=tuple(wholesale),
        firm_wholesale_load=firm,
        sweep_step=float((q_hi - q_lo) / 12.0),
        tolerance=1e-6,
    )


def sweep_loads(supply_max: float, phase: int) -> list[float]:
    """SWEEP_LEVELS firm loads in (0, supply_max), offset by ``phase`` tenths of a rung.

    ``supply_max`` is the most the wholesale side can serve (generator
    capacity plus the DSO's export limit), so every load clears and the
    awards move across the curve's upper segments and onto its export limit.
    """
    rung = supply_max / SWEEP_LEVELS
    offset = (phase % SWEEP_PHASES + 0.5) / SWEEP_PHASES
    return [(k + offset) * rung for k in range(SWEEP_LEVELS)]
