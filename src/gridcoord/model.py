"""Domain types for scenarios, participants, and radial distribution networks.

All types are frozen dataclasses and safe to share across concurrent solves.
``validate`` collects every broken structural invariant instead of raising,
so a caller can report all problems in one pass. Every number must be
finite, as Python's ``json`` reads ``NaN`` and ``Infinity``, and below
``HIGHS_INFINITY`` in magnitude. The LP matrix coefficients read off a
scenario, an aggregator's ``tan_phi`` and a branch's voltage-drop
coefficients 2 r / base_mva and 2 x / base_mva, must be below
``HIGHS_LARGE_MATRIX_VALUE``.

Two derived values are kept, each worked out on first use once per object:
``NetworkModel.incidence``, the tree's branch orientation, and a scenario's
``validate`` verdict, which ``require_valid`` reads. The types are deeply
immutable, so neither can go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

NodeId = int
BranchId = int

DDGAG = "DDGAG"  # dispatchable distributed generation aggregator (supply blocks)
DRAG = "DRAG"    # demand response aggregator (consumption blocks)
REAG = "REAG"    # renewable aggregator, fixed zero-cost output

GEN = "Gen"      # wholesale generator (supply blocks)
DR = "DR"        # wholesale demand-response bid (consumption blocks)

AGGREGATOR_KINDS = (DDGAG, DRAG, REAG)
WHOLESALE_KINDS = (GEN, DR)


# HiGHS reads a cost or bound of this magnitude as infinite (its ``infinite_cost`` and
# ``infinite_bound``). Products of a few numbers below it stay far from float overflow.
HIGHS_INFINITY = 1e20
# HiGHS rejects a model with a matrix coefficient of this magnitude or more (its
# ``large_matrix_value``).
HIGHS_LARGE_MATRIX_VALUE = 1e15


def _nonfinite(path: str, values: dict[str, float], limit: float = HIGHS_INFINITY) -> list[str]:
    """One violation per NaN among ``values``, or number of magnitude ``limit`` or more."""
    return [f"{path}{key}: must be finite, got {value}" if not math.isfinite(value) else
            f"{path}{key}: must be below {limit:g} in magnitude, got {value}"
            for key, value in values.items() if not abs(value) < limit]


class ValidationError(ValueError):
    """Raised when an operation requires a valid scenario and got violations."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class Block:
    """One price-quantity offer block: up to ``p_max`` MW at ``price`` $/MWh."""

    p_max: float
    price: float


@dataclass(frozen=True)
class BlockOfferStack:
    blocks: tuple[Block, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def capacity(self) -> float:
        return sum(b.p_max for b in self.blocks)

    def violations(self, path: str, demand_side: bool) -> list[str]:
        """Block-level invariants: positive sizes, convex (monotone) prices."""
        out = []
        for i, b in enumerate(self.blocks):
            out += _nonfinite(f"{path}.blocks[{i}].", {"p_max": b.p_max, "price": b.price})
            if not b.p_max > 0:
                out.append(f"{path}.blocks[{i}].p_max: must be > 0, got {b.p_max}")
        prices = [b.price for b in self.blocks]
        for i in range(1, len(prices)):
            if demand_side and prices[i] > prices[i - 1]:
                out.append(
                    f"{path}.blocks[{i}].price: demand block prices must be "
                    f"nonincreasing (convex benefit), got {prices[i - 1]} -> {prices[i]}"
                )
            if not demand_side and prices[i] < prices[i - 1]:
                out.append(
                    f"{path}.blocks[{i}].price: supply block prices must be "
                    f"nondecreasing (convex cost), got {prices[i - 1]} -> {prices[i]}"
                )
        return out


@dataclass(frozen=True)
class Branch:
    """Directed distribution branch; ``from_node`` is the parent (root side)."""

    from_node: NodeId
    to_node: NodeId
    r: float          # p.u. resistance on the case power base
    x: float          # p.u. reactance
    pl_max: float     # MW flow limit, symmetric
    ql_max: float     # MVAr flow limit, symmetric


@dataclass(frozen=True)
class NetworkModel:
    """Radial network rooted at ``substation``; voltages tracked as p.u. squared."""

    n_nodes: int
    load_p: tuple[float, ...]   # MW firm load per node
    load_q: tuple[float, ...]   # MVAr firm load per node, any sign
    branches: tuple[Branch, ...]
    substation: NodeId
    u_min: float
    u_max: float
    u_sub: float
    base_mva: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "load_p", tuple(self.load_p))
        object.__setattr__(self, "load_q", tuple(self.load_q))
        object.__setattr__(self, "branches", tuple(self.branches))

    @cached_property
    def incidence(self) -> Incidence:
        """``derived_incidence`` of this network, once per object; ValueError if not radial."""
        return derived_incidence(self)


@dataclass(frozen=True)
class Aggregator:
    id: str
    kind: str
    node: NodeId
    offers: BlockOfferStack
    tan_phi: float = 0.0       # reactive draw/injection per MW; 0 = unity power factor
    fixed_output: float = 0.0  # REAG only


@dataclass(frozen=True)
class WholesaleParticipant:
    id: str
    kind: str
    offers: BlockOfferStack


@dataclass(frozen=True)
class Scenario:
    network: NetworkModel
    aggregators: tuple[Aggregator, ...]
    wholesale: tuple[WholesaleParticipant, ...]
    firm_wholesale_load: float
    sweep_step: float = 0.1  # accepted from case files but ignored: the bid curve is exact
    tolerance: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "aggregators", tuple(self.aggregators))
        object.__setattr__(self, "wholesale", tuple(self.wholesale))

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """``validate`` of this scenario, once per object."""
        return tuple(validate(self))


@dataclass(frozen=True)
class Incidence:
    """Branch orientation derived by walking the tree from the substation.

    ``parent[j]`` / ``child[j]`` orient branch j so flow is positive toward
    the child; the voltage recursion then reads
    ``u[child] = u[parent] - 2 (r * p_flow + x * q_flow)``. ``order`` lists
    the nodes as the walk discovers them: the substation first, each node
    after its parent, and the nodes below one parent together, in branch
    order.
    """

    parent: tuple[NodeId, ...]          # per branch
    child: tuple[NodeId, ...]           # per branch
    order: tuple[NodeId, ...]           # per node, each after its parent


def _network_violations(net: NetworkModel) -> list[str]:
    out = []
    n = net.n_nodes
    if n <= 0:
        return ["network.n_nodes: must be >= 1"]
    if not (0 <= net.substation < n):
        out.append(f"network.substation: node {net.substation} not in 0..{n - 1}")
    if len(net.load_p) != n or len(net.load_q) != n:
        out.append("network.loads: need one lp/lq entry per node")
    out += _nonfinite("network.", {"base_mva": net.base_mva, "u_min": net.u_min,
                                   "u_max": net.u_max, "u_sub": net.u_sub})
    for i, (lp, lq) in enumerate(zip(net.load_p, net.load_q)):
        out += _nonfinite(f"network.nodes[{i}].", {"lp": lp, "lq": lq})
    for i, lp in enumerate(net.load_p):
        if lp < 0:
            out.append(f"network.nodes[{i}].lp: firm active load must be >= 0")
    if not (0 < net.u_min <= net.u_sub <= net.u_max):
        out.append(
            f"network.voltage: need 0 < u_min <= u_sub <= u_max, got "
            f"({net.u_min}, {net.u_sub}, {net.u_max})"
        )
    if net.base_mva <= 0:
        out.append("network.base_mva: must be > 0")
    for j, br in enumerate(net.branches):
        out += _nonfinite(f"network.branches[{j}].",
                          {"r": br.r, "x": br.x, "pl_max": br.pl_max, "ql_max": br.ql_max})
        if not (0 <= br.from_node < n) or not (0 <= br.to_node < n):
            out.append(f"network.branches[{j}]: endpoint outside 0..{n - 1}")
        if br.r < 0 or br.x < 0:
            out.append(f"network.branches[{j}]: r and x must be >= 0")
        if net.base_mva > 0 and abs(br.r) < HIGHS_INFINITY and abs(br.x) < HIGHS_INFINITY:
            out += _nonfinite(f"network.branches[{j}].",  # distflow's voltage-drop coefficients
                              {"2r/base_mva": 2.0 * br.r / net.base_mva,
                               "2x/base_mva": 2.0 * br.x / net.base_mva},
                              HIGHS_LARGE_MATRIX_VALUE)
        if br.pl_max <= 0 or br.ql_max <= 0:
            out.append(f"network.branches[{j}]: pl_max and ql_max must be > 0")

    # Radiality: exactly n-1 branches, and every node reachable from the
    # substation without reusing a branch (rules out cycles + disconnection).
    if len(net.branches) != n - 1:
        out.append(
            f"network.branches: radial tree needs {n - 1} branches for "
            f"{n} nodes, got {len(net.branches)}"
        )
    elif not out:
        try:
            net.incidence
        except ValueError as exc:
            out.append(f"network.branches: {exc}")
    return out


def derived_incidence(network: NetworkModel) -> Incidence:
    """Orient every branch parent->child by search from the substation.

    Declared branch direction is advisory; the tree rooted at the substation
    is authoritative. Raises ValueError on cycles or disconnected nodes.
    """
    n = network.n_nodes
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # node -> (branch, other)
    for j, br in enumerate(network.branches):
        adj[br.from_node].append((j, br.to_node))
        adj[br.to_node].append((j, br.from_node))

    parent = [-1] * len(network.branches)
    child = [-1] * len(network.branches)
    order = [network.substation]
    seen_nodes = {network.substation}
    seen_branches = set()
    stack = [network.substation]
    while stack:
        u = stack.pop()
        for j, v in adj[u]:
            if j in seen_branches:
                continue
            seen_branches.add(j)
            if v in seen_nodes:
                raise ValueError("not a tree (cycle reachable from the substation)")
            seen_nodes.add(v)
            order.append(v)
            parent[j] = u
            child[j] = v
            stack.append(v)
    if len(seen_nodes) != n:
        missing = sorted(set(range(n)) - seen_nodes)
        raise ValueError(f"nodes {missing} unreachable from the substation")
    return Incidence(parent=tuple(parent), child=tuple(child), order=tuple(order))


def validate(scenario: Scenario) -> list[str]:
    """Collect every violated structural invariant; empty list = valid.

    Pure and idempotent: violations are data, not failures.
    """
    out = _network_violations(scenario.network)
    n = scenario.network.n_nodes

    seen_ids: set[str] = set()
    for i, agg in enumerate(scenario.aggregators):
        path = f"aggregators[{i}]"
        if agg.id in seen_ids:
            out.append(f"{path}.id: duplicate participant id {agg.id!r}")
        seen_ids.add(agg.id)
        out += _nonfinite(f"{path}.", {"tan_phi": agg.tan_phi}, HIGHS_LARGE_MATRIX_VALUE)
        out += _nonfinite(f"{path}.", {"fixed_output": agg.fixed_output})
        if agg.kind not in AGGREGATOR_KINDS:
            out.append(f"{path}.kind: unknown kind {agg.kind!r}")
            continue
        if not (0 <= agg.node < n):
            out.append(f"{path}.node: node {agg.node} not in network")
        if agg.kind == REAG:
            if agg.fixed_output < 0:
                out.append(f"{path}.fixed_output: must be >= 0")
            if agg.offers.blocks:
                out.append(f"{path}.offers: REAG output is fixed, offer stack must be empty")
        else:
            if agg.fixed_output:
                out.append(f"{path}.fixed_output: only REAG carries a fixed output")
            out.extend(agg.offers.violations(f"{path}.offers", demand_side=agg.kind == DRAG))

    for i, wp in enumerate(scenario.wholesale):
        path = f"wholesale[{i}]"
        if wp.id in seen_ids:
            out.append(f"{path}.id: duplicate participant id {wp.id!r}")
        seen_ids.add(wp.id)
        if wp.kind not in WHOLESALE_KINDS:
            out.append(f"{path}.kind: unknown kind {wp.kind!r}")
            continue
        out.extend(wp.offers.violations(f"{path}.offers", demand_side=wp.kind == DR))

    out += _nonfinite("", {"firm_load": scenario.firm_wholesale_load,
                           "tolerance": scenario.tolerance})
    if scenario.firm_wholesale_load < 0:
        out.append("firm_load: must be >= 0")
    if not scenario.sweep_step > 0:
        out.append("sweep_step: must be > 0")
    if not scenario.tolerance > 0:
        out.append("tolerance: must be > 0")
    return out


def require_valid(scenario: Scenario) -> None:
    """Raise ValidationError unless ``validate`` finds nothing; its verdict is kept per object."""
    if scenario._violations:
        raise ValidationError(list(scenario._violations))
