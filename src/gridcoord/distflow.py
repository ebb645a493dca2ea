"""Lossless linear DistFlow constraints for a radial network, as an LP fragment.

Sign conventions, applied uniformly:
  - branch flow is positive from parent toward child;
  - net export at the substation is positive when the distribution grid
    injects power into the wholesale grid (it appears as a withdrawal on the
    substation's balance);
  - nodal balances are written generation-minus-consumption = rhs, so the
    dual of an active balance is the retail price at that node.

Voltage is tracked as squared p.u. magnitude; the recursion
``u[child] = u[parent] - 2 (r * p_flow + x * q_flow) / base_mva`` is the
lossless linearization, so branch flows carry no loss term.

The fragment's layout, which every reader and writer of it uses by
position, for a network of n nodes and m branches:
  - columns: first the block columns from 0, aggregator by aggregator and
    offer by offer (a REAG has none); then the 2m + n + 1 tree variables,
    the active flow of each branch, the reactive flow of each branch, the
    squared voltage of each node and the reactive exchange; then the active
    exchange. The joint LP of ``coordination`` appends the wholesale blocks,
    participant by participant;
  - rows: each node's active then reactive balance, then one voltage row
    per branch. The joint LP appends its wholesale balance row.

``build_constraints`` emits the fragment into a new LP, the joint LP, and
returns where its tree variables and its active exchange sit
(``DistFlowVars``). Both exchanges are free variables. ``read_outcome``
fills the ``DistFlowSolution`` subclass its caller names,
``coordination.IdealOutcome`` or ``dso.DsoDispatch``, from block fills,
tree values and row duals, so the joint and the coordinated outcome share
their field names. ``fragment_point`` is its inverse: the fragment's columns
at an outcome and an active exchange.

On a radial tree every flow and voltage is affine in the aggregator blocks,
so the DSO's own LP (``dso``) is written over the blocks alone.
``tree_sensitivities`` works out, per block column, what the tree variables
read (``TreeSensitivities``): a branch flow is the net consumption of the
child's subtree, a squared voltage is ``u_sub`` minus the drops
``2 (r p + x q) / base_mva`` summed along its path, and the reactive
exchange is the negated net reactive consumption of the whole tree. One
sweep from the leaves up sums the subtrees and one from the root down sums
the paths, once per network and offer set; no node-by-node matrix is built.
The tree variables at block fills x are one matrix-vector product, and
``row_duals`` takes the block LP's duals (the balance's and those of the
limits it kept) back to every row of the fragment: a transposed sweep,
voltage-row duals up the tree and balance duals down it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .model import DRAG, REAG, Aggregator, NetworkModel


@dataclass(frozen=True)
class DistFlowVars:
    """Where the fragment's tree variables and active exchange sit in its LP."""

    tree: slice                                # the tree variables' columns
    p_exchange: int                            # substation MW exchange, free


@dataclass(frozen=True)
class DistFlowSolution:
    """The distribution outcome of an optimal solution, read by ``read_outcome``."""

    aggregator_dispatch: dict[str, float]      # aggregator id -> MW, consumption positive for DRAG
    aggregator_blocks: dict[str, tuple[float, ...]]  # aggregator id -> block fills, () for REAG
    retail_prices: dict[int, float]            # node -> $/MWh, active balance dual
    flows_p: tuple[float, ...]                 # per branch, MW
    flows_q: tuple[float, ...]                 # per branch, MVAr
    voltages_sq: tuple[float, ...]             # per node, p.u.^2
    q_exchange: float                          # substation MVAr exchange


def _check_nodes(n: int, aggregators) -> None:
    for agg in aggregators:
        if not (0 <= agg.node < n):
            raise ValueError(f"aggregator {agg.id!r} on unknown node {agg.node}")


def build_constraints(
    network: NetworkModel,
    aggregators: list[Aggregator] | tuple[Aggregator, ...],
) -> tuple[lpmod.LinearProgram, DistFlowVars]:
    """Emit balance, block, voltage, and flow constraints into a new LP.

    The active and reactive exchanges are free variables on the substation
    balances, and each balance's rhs is the node's firm load minus its fixed
    REAG output. Branches are oriented by ``network.incidence``. No objective
    is set. Raises ValueError on a non-radial network or an aggregator placed
    on an unknown node.
    """
    lp = lpmod.LinearProgram()
    inc = network.incidence  # raises if not radial
    n = network.n_nodes
    _check_nodes(n, aggregators)

    blocks = {  # a REAG's offer stack is empty, so it gets no variables
        agg.id: tuple(lp.add_variable(0.0, blk.p_max) for blk in agg.offers.blocks)
        for agg in aggregators
    }

    first = lp.n_cols
    p_flow = tuple(lp.add_variable(-br.pl_max, br.pl_max) for br in network.branches)
    q_flow = tuple(lp.add_variable(-br.ql_max, br.ql_max) for br in network.branches)
    voltage_sq = tuple(
        lp.add_variable(network.u_sub, network.u_sub) if i == network.substation
        else lp.add_variable(network.u_min, network.u_max)
        for i in range(n)
    )
    q_exchange = lp.add_variable()
    p_exchange = lp.add_variable()

    # Per-node balance coefficient maps: +1 gen block, -1 demand block,
    # +1 flow on the parent-side branch (inflow), -1 on child-side branches.
    p_coeffs: list[dict[int, float]] = [dict() for _ in range(n)]
    q_coeffs: list[dict[int, float]] = [dict() for _ in range(n)]
    reag_p, reag_q = [0.0] * n, [0.0] * n  # fixed REAG output per node, MW and MVAr
    for agg in aggregators:
        if agg.kind == REAG:
            reag_p[agg.node] += agg.fixed_output
            reag_q[agg.node] += agg.fixed_output * agg.tan_phi
        sign = -1.0 if agg.kind == DRAG else 1.0
        for col in blocks[agg.id]:
            p_coeffs[agg.node][col] = sign
            if agg.tan_phi:
                q_coeffs[agg.node][col] = sign * agg.tan_phi
    for j in range(len(network.branches)):
        p_coeffs[inc.child[j]][p_flow[j]] = 1.0
        p_coeffs[inc.parent[j]][p_flow[j]] = -1.0
        q_coeffs[inc.child[j]][q_flow[j]] = 1.0
        q_coeffs[inc.parent[j]][q_flow[j]] = -1.0
    q_coeffs[network.substation][q_exchange] = -1.0
    p_coeffs[network.substation][p_exchange] = -1.0

    for i in range(n):
        lp.add_constraint(p_coeffs[i], network.load_p[i] - reag_p[i])
        lp.add_constraint(q_coeffs[i], network.load_q[i] - reag_q[i])

    base = network.base_mva
    for j, br in enumerate(network.branches):
        lp.add_constraint(
            {
                voltage_sq[inc.child[j]]: 1.0,
                voltage_sq[inc.parent[j]]: -1.0,
                p_flow[j]: 2.0 * br.r / base,
                q_flow[j]: 2.0 * br.x / base,
            },
            0.0,
        )

    return lp, DistFlowVars(tree=slice(first, p_exchange), p_exchange=p_exchange)


@dataclass(frozen=True, eq=False)
class TreeSensitivities:
    """The fragment's tree variables as affine functions of the block columns.

    Block columns and tree variables are numbered as in the module's
    layout. At block fills x, tree variable t reads ``base[t] + matrix[t] @ x``;
    ``lower`` and ``upper`` are their limits, infinite for the substation's
    voltage, which is ``u_sub`` whatever the blocks do, and for the free
    exchange.
    """

    capacity: np.ndarray                       # per block column, MW
    injection: np.ndarray                      # per block column, +1 supply, -1 demand
    net_load: float                            # firm load less REAG output, all nodes, MW
    base: np.ndarray                           # per tree variable
    matrix: np.ndarray                         # tree variable x block column
    lower: np.ndarray                          # per tree variable
    upper: np.ndarray                          # per tree variable
    order: tuple[int, ...]                     # the nodes, each after its parent
    parent: tuple[int, ...]                    # per node, its parent; the substation's is itself
    branch: tuple[int, ...]                    # per node, the branch to its parent, -1 at the top
    drop_p: tuple[float, ...]                  # per branch, 2 r / base_mva
    drop_q: tuple[float, ...]                  # per branch, 2 x / base_mva

    def row_duals(self, balance: float, limits: np.ndarray) -> np.ndarray:
        """Duals of the fragment's rows, in ``build_constraints``' order, from a block LP's.

        ``balance`` is the dual of the block LP's balance row and
        ``limits[t]`` that of tree variable t's limit, 0 where none is kept.
        They are chosen so that each tree variable's reduced cost in the
        fragment is its limit's dual, and each block's is the block LP's. A
        branch's voltage-row dual is then minus the voltage limit duals
        summed over its subtree; a node's balance dual is its parent's, less
        the branch's drop coefficient times that voltage-row dual, less the
        branch's flow limit dual. At the substation the active balance dual
        is ``balance`` and the reactive one 0.
        """
        n, m = len(self.order), len(self.drop_p)
        mu = limits.tolist()
        below = mu[2 * m:2 * m + n]  # per node, voltage limit duals over its subtree
        volt = [0.0] * m
        for node in reversed(self.order[1:]):
            below[self.parent[node]] += below[node]
            volt[self.branch[node]] = -below[node]
        price_p, price_q = [0.0] * n, [0.0] * n
        price_p[self.order[0]] = balance
        for node in self.order[1:]:
            j, up = self.branch[node], self.parent[node]
            price_p[node] = price_p[up] - self.drop_p[j] * volt[j] - mu[j]
            price_q[node] = price_q[up] - self.drop_q[j] * volt[j] - mu[m + j]
        y = np.empty(2 * n + m)
        y[0:2 * n:2], y[1:2 * n:2], y[2 * n:] = price_p, price_q, volt
        return y


def tree_sensitivities(
    network: NetworkModel,
    aggregators: list[Aggregator] | tuple[Aggregator, ...],
) -> TreeSensitivities:
    """What every tree variable of ``build_constraints`` reads, per block column.

    Raises ValueError where ``build_constraints`` does. The sweeps carry,
    per node, two rows of block coefficients and a constant: the active and
    the reactive terms.
    """
    inc = network.incidence  # raises if not radial
    n, m = network.n_nodes, len(network.branches)
    _check_nodes(n, aggregators)
    parent, branch, order = [network.substation] * n, [-1] * n, inc.order
    for j, (up, node) in enumerate(zip(inc.parent, inc.child)):
        parent[node], branch[node] = up, j

    nb = sum(len(agg.offers.blocks) for agg in aggregators)
    sub = np.zeros((n, 2, nb + 1))  # per node, its net consumption, active and reactive
    capacity, injection = np.zeros(nb), np.zeros(nb)
    reag_p, reag_q = [0.0] * n, [0.0] * n
    col = 0
    for agg in aggregators:
        if agg.kind == REAG:
            reag_p[agg.node] += agg.fixed_output
            reag_q[agg.node] += agg.fixed_output * agg.tan_phi
        sign = -1.0 if agg.kind == DRAG else 1.0
        for blk in agg.offers.blocks:
            capacity[col], injection[col] = blk.p_max, sign
            sub[agg.node, :, col] = -sign, -sign * agg.tan_phi
            col += 1
    sub[:, 0, nb] = [load - reag for load, reag in zip(network.load_p, reag_p)]
    sub[:, 1, nb] = [load - reag for load, reag in zip(network.load_q, reag_q)]

    # Up the tree: each node's rows become its subtree's, the flow into it.
    for node in reversed(order[1:]):
        sub[parent[node]] += sub[node]
    flow = sub[list(inc.child)]
    # Down the tree: each node's voltage is its parent's less its branch's drop.
    drop_p = [2.0 * br.r / network.base_mva for br in network.branches]
    drop_q = [2.0 * br.x / network.base_mva for br in network.branches]
    dp, dq = np.array(drop_p)[:, None], np.array(drop_q)[:, None]
    volt = np.zeros((n, nb + 1))
    volt[list(inc.child)] = -(dp * flow[:, 0] + dq * flow[:, 1])
    volt[network.substation, nb] = network.u_sub
    for node in order[1:]:
        volt[node] += volt[parent[node]]

    root = sub[network.substation]
    affine = np.vstack((flow[:, 0], flow[:, 1], volt, -root[1]))
    upper = np.array([br.pl_max for br in network.branches] + [br.ql_max for br in network.branches]
                     + [network.u_max] * n + [math.inf])
    lower = np.concatenate((-upper[:2 * m], [network.u_min] * n, [-math.inf]))
    lower[2 * m + network.substation], upper[2 * m + network.substation] = -math.inf, math.inf
    return TreeSensitivities(
        capacity=capacity,
        injection=injection,
        net_load=float(root[0, nb]),
        base=affine[:, nb],
        matrix=affine[:, :nb],
        lower=lower,
        upper=upper,
        order=order,
        parent=tuple(parent),
        branch=tuple(branch),
        drop_p=tuple(drop_p),
        drop_q=tuple(drop_q),
    )


def dispatch_cost_coeffs(aggregators: list[Aggregator] | tuple[Aggregator, ...]
                         ) -> dict[int, float]:
    """Objective terms by block column: supply blocks at their price, demand at minus theirs."""
    return dict(enumerate((-1.0 if agg.kind == DRAG else 1.0) * blk.price
                          for agg in aggregators for blk in agg.offers.blocks))


def read_outcome(
    cls: type[DistFlowSolution], network: NetworkModel,
    aggregators: list[Aggregator] | tuple[Aggregator, ...],
    fills: np.ndarray, values: np.ndarray, y: np.ndarray, **more,
) -> DistFlowSolution:
    """A ``cls``: the outcome at block ``fills``, tree variable ``values`` and the fragment's
    row duals ``y`` (a longer ``y`` is read from its start), plus the fields ``more`` names."""
    n, m = network.n_nodes, len(network.branches)
    fills, values = iter(fills.tolist()), values.tolist()
    blocks = {agg.id: tuple(next(fills) for _ in agg.offers.blocks) for agg in aggregators}
    return cls(
        aggregator_dispatch={agg.id: agg.fixed_output if agg.kind == REAG else sum(blocks[agg.id])
                             for agg in aggregators},
        aggregator_blocks=blocks,
        retail_prices=dict(enumerate(y[0:2 * n:2].tolist())),
        flows_p=tuple(values[:m]),
        flows_q=tuple(values[m:2 * m]),
        voltages_sq=tuple(values[2 * m:2 * m + n]),
        q_exchange=values[2 * m + n],
        **more,
    )


def fragment_point(outcome: DistFlowSolution, p_exchange: float) -> np.ndarray:
    """The fragment's columns, in order, at ``outcome`` and active exchange ``p_exchange``."""
    return np.concatenate((*outcome.aggregator_blocks.values(), outcome.flows_p, outcome.flows_q,
                           outcome.voltages_sq, (outcome.q_exchange, p_exchange)))
