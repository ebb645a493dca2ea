"""Distribution-side market: parametric value function and the bid curve.

The operating cost of serving a given net export is the optimal value of a
small LP over the aggregator blocks and network constraints. As a function
of the export parameter it is convex piecewise linear, so the curve is
recovered exactly by chord-slope probing (the NISE / sandwich method of
Eisner & Severance and Cohon): each probe minimizes cost minus a chord's
slope times export, and either certifies the chord as a segment or returns
an LP vertex that is a breakpoint. One free-export LP per curve serves every
solve: the range, the end costs (export pinned through its bounds) and the
probes, each re-solved from the previous basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import lp as lpmod
from .distflow import build_constraints, dispatch_cost_coeffs
from .lp import InfeasibleError
from .model import DRAG, REAG, Scenario, require_valid


@dataclass(frozen=True)
class Segment:
    q_lo: float
    q_hi: float
    price: float


@dataclass(frozen=True)
class BidCurve:
    """Convex piecewise-linear total cost of net export, plus marginal steps.

    ``breakpoints`` are (export MW, total cost $/h) with strictly increasing
    export; ``prices`` holds one marginal price per segment between them.
    A degenerate (single-point) feasible range has one breakpoint and no
    segments.
    """

    breakpoints: tuple[tuple[float, float], ...]
    prices: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(tuple(bp) for bp in self.breakpoints))
        object.__setattr__(self, "prices", tuple(self.prices))

    @property
    def q_min(self) -> float:
        return self.breakpoints[0][0]

    @property
    def q_max(self) -> float:
        return self.breakpoints[-1][0]

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(
            Segment(self.breakpoints[i][0], self.breakpoints[i + 1][0], self.prices[i])
            for i in range(len(self.prices))
        )

    def cost_at(self, q: float) -> float:
        """Piecewise-linear interpolation; q must lie within the curve domain."""
        if not (self.q_min - 1e-9 <= q <= self.q_max + 1e-9):
            raise ValueError(f"export {q} outside curve domain [{self.q_min}, {self.q_max}]")
        cost = self.breakpoints[0][1]
        for seg in self.segments:
            if q <= seg.q_lo:
                break
            cost += seg.price * (min(q, seg.q_hi) - seg.q_lo)
        return cost

    def violations(self) -> list[str]:
        out = []
        if not self.breakpoints:
            return ["curve has no breakpoints"]
        if len(self.prices) != len(self.breakpoints) - 1:
            out.append("need exactly one price per breakpoint interval")
            return out
        for i in range(1, len(self.breakpoints)):
            if self.breakpoints[i][0] <= self.breakpoints[i - 1][0]:
                out.append(f"breakpoint {i}: export values must be strictly increasing")
        for i in range(1, len(self.prices)):
            if self.prices[i] < self.prices[i - 1] - 1e-7:
                out.append(f"segment {i}: marginal prices must be nondecreasing (convexity)")
        for i, seg in enumerate(self.segments):
            dc = self.breakpoints[i + 1][1] - self.breakpoints[i][1]
            if abs(dc - seg.price * (seg.q_hi - seg.q_lo)) > 1e-4 + 1e-6 * abs(dc):
                out.append(f"segment {i}: stored cost increments disagree with the price")
        return out


@dataclass(frozen=True)
class DsoDispatch:
    """Aggregator shares and network state for one awarded net export."""

    net_export: float
    cost: float
    marginal_price: float
    by_aggregator: dict[str, float]               # MW; consumption positive for demand side
    block_dispatch: dict[str, tuple[float, ...]]
    retail_prices: dict[int, float]               # node -> $/MWh, active balance duals
    flows_p: tuple[float, ...]
    flows_q: tuple[float, ...]
    voltages_sq: tuple[float, ...]
    reactive_exchange: float


def _export_range(prog: lpmod.LinearProgram, p_exchange: str) -> tuple[float, float]:
    """Minimize, then maximize, the free export variable of ``prog``."""
    out = []
    for sense in (1.0, -1.0):
        prog.set_objective({p_exchange: sense})
        sol = lpmod.solve(prog)
        if sol.status != lpmod.OPTIMAL:
            raise InfeasibleError(f"distribution dispatch polytope is {sol.status}")
        out.append(sol.primal[p_exchange])
    return out[0], out[1]


def feasible_range(scenario: Scenario) -> tuple[float, float]:
    """Extreme feasible net exports of the network-plus-blocks polytope."""
    require_valid(scenario)
    prog, dvars = build_constraints(scenario.network, scenario.aggregators, net_export=None)
    return _export_range(prog, dvars.p_exchange)


def value_at(scenario: Scenario, net_export: float) -> DsoDispatch:
    """Minimum-cost aggregator dispatch serving the given net export."""
    require_valid(scenario)
    prog, dvars = build_constraints(scenario.network, scenario.aggregators, net_export=net_export)
    prog.set_objective(dispatch_cost_coeffs(scenario.aggregators, dvars))
    sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        raise InfeasibleError(f"net export {net_export} MW is {sol.status} for this network")

    by_aggregator: dict[str, float] = {}
    block_dispatch: dict[str, tuple[float, ...]] = {}
    for agg in scenario.aggregators:
        if agg.kind == REAG:
            by_aggregator[agg.id] = agg.fixed_output
            block_dispatch[agg.id] = ()
            continue
        names = dvars.demand_blocks[agg.id] if agg.kind == DRAG else dvars.gen_blocks[agg.id]
        values = tuple(sol.primal[name] for name in names)
        block_dispatch[agg.id] = values
        by_aggregator[agg.id] = sum(values)

    return DsoDispatch(
        net_export=net_export,
        cost=sol.objective,
        marginal_price=sol.dual[dvars.balance_p[scenario.network.substation]],
        by_aggregator=by_aggregator,
        block_dispatch=block_dispatch,
        retail_prices={
            i: sol.dual[row] for i, row in enumerate(dvars.balance_p)
        },
        flows_p=tuple(sol.primal[v] for v in dvars.p_flow),
        flows_q=tuple(sol.primal[v] for v in dvars.q_flow),
        voltages_sq=tuple(sol.primal[v] for v in dvars.voltage_sq),
        reactive_exchange=sol.primal[dvars.q_exchange],
    )


def build_bid_curve(scenario: Scenario) -> BidCurve:
    """Recover the exact convex bid curve by chord-slope probing.

    One free-export LP is built and re-solved throughout. Its range comes
    from minimizing and maximizing the export; each end cost is the
    dispatch cost with the export pinned to that end through its bounds,
    which are freed again afterwards. Each interval (a, b) between known
    points of the value function is then probed with the slope m of its
    chord: the LP minimizes dispatch cost - m * export. An optimum on the
    chord means [a, b] is one segment with price m; one below it is an LP
    vertex strictly inside (a, b), a breakpoint to split at. k segments take
    2k - 1 probes, plus two for each probe that lands inside a segment of
    tied block prices.
    """
    require_valid(scenario)
    prog, dvars = build_constraints(scenario.network, scenario.aggregators, net_export=None)
    px = dvars.p_exchange
    q_min, q_max = _export_range(prog, px)
    cost = dispatch_cost_coeffs(scenario.aggregators, dvars)
    prog.set_objective(cost)

    def pinned_cost(q: float) -> float:
        prog.set_bounds(px, q, q)
        sol = lpmod.solve(prog)
        prog.set_bounds(px, -math.inf, math.inf)
        if sol.status != lpmod.OPTIMAL:
            raise InfeasibleError(f"net export {q} MW is {sol.status} for this network")
        return sol.objective

    lo = (q_min, pinned_cost(q_min))
    if q_max - q_min <= max(1e-12, 1e-9 * max(abs(q_min), 1.0)):
        return BidCurve(breakpoints=(lo,), prices=())
    hi = (q_max, pinned_cost(q_max))
    tol = max(scenario.tolerance, 1e-9)

    breakpoints, prices = [lo], []
    stack = [(lo, hi)]  # intervals still to probe, leftmost on top
    while stack:
        a, b = stack.pop()
        (qa, ca), (qb, cb) = a, b
        slope = (cb - ca) / (qb - qa)
        prog.set_objective({**cost, px: -slope})
        sol = lpmod.solve(prog)
        if sol.status != lpmod.OPTIMAL:
            raise InfeasibleError(f"chord probe on [{qa}, {qb}] MW is {sol.status}")
        if sol.objective >= ca - slope * qa - tol * max(1.0, abs(ca), abs(cb)):
            # Blocks tied at the chord slope can put an earlier probe's vertex
            # inside a segment; a collinear neighbor is then extended, not split.
            if prices and abs(slope - prices[-1]) <= tol:
                del breakpoints[-1], prices[-1]
                qa, ca = breakpoints[-1]
                slope = (cb - ca) / (qb - qa)
            breakpoints.append(b)
            prices.append(slope)
            continue
        q = sol.primal[px]
        if not qa < q < qb:
            raise lpmod.SolverError(f"chord probe on [{qa}, {qb}] MW returned export {q}")
        mid = (q, sol.objective + slope * q)
        stack += [(mid, b), (a, mid)]

    curve = BidCurve(breakpoints=tuple(breakpoints), prices=tuple(prices))
    problems = curve.violations()
    if problems:
        raise lpmod.SolverError("assembled bid curve is inconsistent: " + "; ".join(problems))
    return curve
