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

``build_constraints`` emits the fragment and ``read_solution`` reads it back
from an optimal solution; the DSO's LP and the joint LP use both. The
exchange is always a free variable: the DSO pins it through its bounds to
evaluate one export. The fragment declares the network's spanning tree as
its LP's start basis (``LinearProgram.declare_basic``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lp as lpmod
from .model import DRAG, REAG, Aggregator, Incidence, NetworkModel, derived_incidence


@dataclass(frozen=True)
class DistFlowVars:
    """Name maps into the LP for one distribution network's variables/rows."""

    blocks: dict[str, tuple[str, ...]]         # aggregator id -> block vars, () for REAG
    p_flow: tuple[str, ...]                    # per branch, MW
    q_flow: tuple[str, ...]                    # per branch, MVAr
    voltage_sq: tuple[str, ...]                # per node, p.u.^2
    q_exchange: str                            # substation MVAr exchange, free
    p_exchange: str                            # substation MW exchange, free
    balance_p: tuple[str, ...]                 # active balance constraint per node


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
    prefix: str = "",
    incidence: Incidence | None = None,
) -> tuple[lpmod.LinearProgram, DistFlowVars]:
    """Emit balance, block, voltage, and flow constraints into a new LP.

    The active and reactive exchanges are free variables on the substation
    balances, and each balance's rhs is the node's firm load minus its fixed
    REAG output. ``incidence`` is the network's ``derived_incidence``, for
    callers that already hold it. No objective is set. Raises ValueError on
    a non-radial network or an aggregator placed on an unknown node.
    """
    lp = lpmod.LinearProgram()
    inc = derived_incidence(network) if incidence is None else incidence  # raises if not radial
    n = network.n_nodes

    for agg in aggregators:
        if not (0 <= agg.node < n):
            raise ValueError(f"aggregator {agg.id!r} on unknown node {agg.node}")

    blocks = {  # a REAG's offer stack is empty, so it gets no variables
        agg.id: tuple(lp.add_variable(f"{prefix}{agg.id}[{b}]", 0.0, blk.p_max)
                      for b, blk in enumerate(agg.offers.blocks))
        for agg in aggregators
    }

    p_flow = tuple(
        lp.add_variable(f"{prefix}pflow[{j}]", -br.pl_max, br.pl_max)
        for j, br in enumerate(network.branches)
    )
    q_flow = tuple(
        lp.add_variable(f"{prefix}qflow[{j}]", -br.ql_max, br.ql_max)
        for j, br in enumerate(network.branches)
    )
    voltage_sq = tuple(
        lp.add_variable(
            f"{prefix}usq[{i}]",
            network.u_sub if i == network.substation else network.u_min,
            network.u_sub if i == network.substation else network.u_max,
        )
        for i in range(n)
    )
    q_exchange = lp.add_variable(f"{prefix}qx", -float("inf"), float("inf"))
    p_exchange = lp.add_variable(f"{prefix}px", -float("inf"), float("inf"))

    # Per-node balance coefficient maps: +1 gen block, -1 demand block,
    # +1 flow on the parent-side branch (inflow), -1 on child-side branches.
    p_coeffs: list[dict[str, float]] = [dict() for _ in range(n)]
    q_coeffs: list[dict[str, float]] = [dict() for _ in range(n)]
    reag_p, reag_q = [0.0] * n, [0.0] * n  # fixed REAG output per node, MW and MVAr
    for agg in aggregators:
        if agg.kind == REAG:
            reag_p[agg.node] += agg.fixed_output
            reag_q[agg.node] += agg.fixed_output * agg.tan_phi
        sign = -1.0 if agg.kind == DRAG else 1.0
        for name in blocks[agg.id]:
            p_coeffs[agg.node][name] = sign
            if agg.tan_phi:
                q_coeffs[agg.node][name] = sign * agg.tan_phi
    for j in range(len(network.branches)):
        p_coeffs[inc.child[j]][p_flow[j]] = 1.0
        p_coeffs[inc.parent[j]][p_flow[j]] = -1.0
        q_coeffs[inc.child[j]][q_flow[j]] = 1.0
        q_coeffs[inc.parent[j]][q_flow[j]] = -1.0
    q_coeffs[network.substation][q_exchange] = -1.0
    p_coeffs[network.substation][p_exchange] = -1.0

    balance_p = []
    for i in range(n):
        balance_p.append(
            lp.add_constraint(f"{prefix}bal_p[{i}]", p_coeffs[i], lpmod.EQ,
                              network.load_p[i] - reag_p[i])
        )
        lp.add_constraint(f"{prefix}bal_q[{i}]", q_coeffs[i], lpmod.EQ,
                          network.load_q[i] - reag_q[i])

    base = network.base_mva
    for j, br in enumerate(network.branches):
        lp.add_constraint(
            f"{prefix}volt[{j}]",
            {
                voltage_sq[inc.child[j]]: 1.0,
                voltage_sq[inc.parent[j]]: -1.0,
                p_flow[j]: 2.0 * br.r / base,
                q_flow[j]: 2.0 * br.x / base,
            },
            lpmod.EQ,
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
) -> dict[str, float]:
    """Objective terms: supply blocks at their price, demand blocks at minus theirs."""
    coeffs: dict[str, float] = {}
    for agg in aggregators:
        sign = -1.0 if agg.kind == DRAG else 1.0
        for name, blk in zip(vars.blocks[agg.id], agg.offers.blocks):
            coeffs[name] = sign * blk.price
    return coeffs


def read_solution(
    sol: lpmod.LpSolution, aggregators: list[Aggregator] | tuple[Aggregator, ...],
    vars: DistFlowVars,
) -> DistFlowSolution:
    """The aggregator shares, network state and retail prices of an optimal ``sol``."""
    blocks = {agg.id: tuple(sol.primal[name] for name in vars.blocks[agg.id])
              for agg in aggregators}
    return DistFlowSolution(
        shares={agg.id: agg.fixed_output if agg.kind == REAG else sum(blocks[agg.id])
                for agg in aggregators},
        blocks=blocks,
        retail_prices={i: sol.dual[row] for i, row in enumerate(vars.balance_p)},
        flows_p=tuple(sol.primal[v] for v in vars.p_flow),
        flows_q=tuple(sol.primal[v] for v in vars.q_flow),
        voltages_sq=tuple(sol.primal[v] for v in vars.voltage_sq),
        q_exchange=sol.primal[vars.q_exchange],
    )
