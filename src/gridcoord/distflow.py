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

``build_constraints`` emits the fragment into a new LP, and returns the
column and row indices it was given (``DistFlowVars``); ``read_solution``
reads it back from an optimal solution by those indices. The DSO's LP and
the joint LP use both. Per node the fragment adds an active then a reactive
balance row, then one voltage row per branch. The exchange is always a free
variable: the DSO pins it through its bounds to evaluate one export. The
fragment declares the network's spanning tree as its LP's start basis
(``LinearProgram.declare_basic``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp as lpmod
from .model import DRAG, REAG, Aggregator, NetworkModel


@dataclass(frozen=True)
class DistFlowVars:
    """Column and row indices into the LP of one distribution network."""

    blocks: dict[str, tuple[int, ...]]         # aggregator id -> block columns, () for REAG
    p_flow: tuple[int, ...]                    # per branch, MW
    q_flow: tuple[int, ...]                    # per branch, MVAr
    voltage_sq: tuple[int, ...]                # per node, p.u.^2
    q_exchange: int                            # substation MVAr exchange, free
    p_exchange: int                            # substation MW exchange, free
    balance_p: tuple[int, ...]                 # active balance row per node


@dataclass(frozen=True)
class DistFlowSolution:
    """The DistFlow part of an optimal solution, read by ``read_solution``."""

    shares: dict[str, float]                   # aggregator id -> MW, consumption positive for DRAG
    blocks: dict[str, tuple[float, ...]]       # aggregator id -> block fills, () for REAG
    retail_prices: dict[int, float]            # node -> active balance dual
    flows_p: tuple[float, ...]
    flows_q: tuple[float, ...]
    voltages_sq: tuple[float, ...]
    q_exchange: float


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

    for agg in aggregators:
        if not (0 <= agg.node < n):
            raise ValueError(f"aggregator {agg.id!r} on unknown node {agg.node}")

    blocks = {  # a REAG's offer stack is empty, so it gets no variables
        agg.id: tuple(lp.add_variable(0.0, blk.p_max) for blk in agg.offers.blocks)
        for agg in aggregators
    }

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

    balance_p = []
    for i in range(n):
        balance_p.append(lp.add_constraint(p_coeffs[i], network.load_p[i] - reag_p[i]))
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

    # The tree is a start basis: the branch flows, every voltage but the
    # substation's and the two exchanges, 3n - 1 columns for 3n - 1 rows.
    lp.declare_basic(p_flow + q_flow + voltage_sq[:network.substation]
                     + voltage_sq[network.substation + 1:] + (q_exchange, p_exchange))

    return lp, DistFlowVars(
        blocks=blocks,
        p_flow=p_flow,
        q_flow=q_flow,
        voltage_sq=voltage_sq,
        q_exchange=q_exchange,
        p_exchange=p_exchange,
        balance_p=tuple(balance_p),
    )


def dispatch_cost_coeffs(
    aggregators: list[Aggregator] | tuple[Aggregator, ...], vars: DistFlowVars
) -> dict[int, float]:
    """Objective terms: supply blocks at their price, demand blocks at minus theirs."""
    coeffs: dict[int, float] = {}
    for agg in aggregators:
        sign = -1.0 if agg.kind == DRAG else 1.0
        for col, blk in zip(vars.blocks[agg.id], agg.offers.blocks):
            coeffs[col] = sign * blk.price
    return coeffs


def read_solution(
    sol: lpmod.LpSolution, aggregators: list[Aggregator] | tuple[Aggregator, ...],
    vars: DistFlowVars,
) -> DistFlowSolution:
    """The aggregator shares, network state and retail prices of an optimal ``sol``."""
    x, y = sol.x.tolist(), sol.y.tolist()
    blocks = {agg.id: tuple(x[j] for j in vars.blocks[agg.id]) for agg in aggregators}
    return DistFlowSolution(
        shares={agg.id: agg.fixed_output if agg.kind == REAG else sum(blocks[agg.id])
                for agg in aggregators},
        blocks=blocks,
        retail_prices={i: y[row] for i, row in enumerate(vars.balance_p)},
        flows_p=tuple(x[j] for j in vars.p_flow),
        flows_q=tuple(x[j] for j in vars.q_flow),
        voltages_sq=tuple(x[j] for j in vars.voltage_sq),
        q_exchange=x[vars.q_exchange],
    )
