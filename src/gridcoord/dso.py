"""Distribution-side market: parametric value function and the bid curve.

The operating cost of serving a given net export is the optimal value of a
small LP over the aggregator blocks and network constraints. As a function
of the export parameter it is convex piecewise linear, so the curve is
recovered exactly by chord-slope probing (the NISE / sandwich method of
Eisner & Severance and Cohon): each probe minimizes cost minus a chord's
slope times export, and either certifies the chord as a segment or returns
an LP vertex that is a breakpoint. The basis of a probe that splits also
gives, through the export's cost range (``lp.cost_range``), the slopes of
supporting lines at its breakpoint, and those certify the adjacent segments
without a probe of their own (``build_bid_curve`` says why that is sound).
A curve of k segments then takes k + 3 solves. One free-export LP serves
every solve of a scenario: the range, the probes, and the end costs and the
re-dispatch, which pin the export through its bounds.

Each scenario is compiled once: a private model validates it, derives its
tree incidence and builds that LP on first use (and the joint LP of
``coordination``, when asked). The model lives in a one-slot cache keyed by
the scenario's identity (``is``, not equality or hash), so repeat calls on
one ``Scenario`` object reuse it and a call on another object replaces it.
Every public call still solves: it restarts the LP from the feeder's
spanning-tree basis (declared by ``build_constraints``) and runs the same
solve sequence a fresh compile would, so its answer is bit-for-bit that of a
fresh compile and never depends on earlier calls. Calls on one scenario
from several threads take turns on the model's lock.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

from . import lp as lpmod
from .distflow import DistFlowVars, build_constraints, dispatch_cost_coeffs, read_solution
from .lp import InfeasibleError
from .model import Scenario, derived_incidence, require_valid


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
    segments. ``segments`` and ``violations`` are worked out once per curve
    object, so clearing against one curve many times checks it once.
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

    @cached_property
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
        """What makes the curve invalid, if anything; checked once per curve object."""
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        if not self.breakpoints:
            return ("curve has no breakpoints",)
        if len(self.prices) != len(self.breakpoints) - 1:
            return ("need exactly one price per breakpoint interval",)
        out = []
        for i, (q, cost) in enumerate(self.breakpoints):
            if not (math.isfinite(q) and math.isfinite(cost)):
                out.append(f"breakpoint {i}: export and cost must be finite, got ({q}, {cost})")
        for i, price in enumerate(self.prices):
            if not math.isfinite(price):
                out.append(f"segment {i}: price must be finite, got {price}")
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
        return tuple(out)


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


class _Model:
    """A validated scenario, its incidence and its compiled LPs, each built on first use.

    ``lock`` is held by every solve sequence on the model's LPs, and while
    one is built.
    """

    def __init__(self, scenario: Scenario):
        require_valid(scenario)
        self.scenario = scenario
        self.incidence = derived_incidence(scenario.network)
        self.lock = threading.Lock()
        self._free: tuple[lpmod.LinearProgram, DistFlowVars, dict[int, float]] | None = None
        self.joint = None  # the joint LP, built and kept by ``coordination``

    def free_lp(self) -> tuple[lpmod.LinearProgram, DistFlowVars, dict[int, float]]:
        """The free-export LP, its variables and the dispatch cost; hold ``lock``."""
        if self._free is None:
            s = self.scenario
            prog, dvars = build_constraints(s.network, s.aggregators, incidence=self.incidence)
            self._free = prog, dvars, dispatch_cost_coeffs(s.aggregators, dvars)
        return self._free


_slot: _Model | None = None
_slot_lock = threading.Lock()


def _model_for(scenario: Scenario) -> _Model:
    """The compiled model of ``scenario`` (this very object), compiling it on a miss."""
    global _slot
    with _slot_lock:
        if _slot is None or _slot.scenario is not scenario:
            _slot = _Model(scenario)
        return _slot


def _export_range(prog: lpmod.LinearProgram, px: int) -> tuple[float, float]:
    """Minimize, then maximize, the free export column ``px`` of ``prog``."""
    out = []
    for sense in (1.0, -1.0):
        prog.set_objective({px: sense})
        sol = lpmod.solve(prog)
        if sol.status != lpmod.OPTIMAL:
            raise InfeasibleError(f"distribution dispatch polytope is {sol.status}")
        out.append(float(sol.x[px]))
    return out[0], out[1]


def _pinned_solve(prog: lpmod.LinearProgram, px: int, q: float) -> lpmod.LpSolution:
    """Solve ``prog`` with the export ``px`` pinned to ``q``, then free it again."""
    prog.set_bounds(px, q, q)
    try:
        sol = lpmod.solve(prog)
    finally:  # the compiled LP outlives this call
        prog.set_bounds(px, -math.inf, math.inf)
    if sol.status != lpmod.OPTIMAL:
        raise InfeasibleError(f"net export {q} MW is {sol.status} for this network")
    return sol


def feasible_range(scenario: Scenario) -> tuple[float, float]:
    """Extreme feasible net exports of the network-plus-blocks polytope."""
    model = _model_for(scenario)
    with model.lock:
        prog, dvars, _ = model.free_lp()
        prog.restart()
        return _export_range(prog, dvars.p_exchange)


def value_at(scenario: Scenario, net_export: float) -> DsoDispatch:
    """Minimum-cost aggregator dispatch serving the given net export.

    The scenario's free-export LP is restarted and solved once at the
    dispatch cost, with the export pinned to ``net_export`` through its
    bounds. The substation balance dual (``marginal_price``) is then the
    marginal cost of export: inside a segment of the bid curve, the
    segment's price; at a breakpoint, some value between the two adjacent
    prices (open at the curve's ends), picked by the optimal basis. The
    other retail prices are the remaining active balance duals of the same
    optimal dual solution.
    """
    model = _model_for(scenario)
    with model.lock:
        prog, dvars, cost = model.free_lp()
        prog.restart()
        prog.set_objective(cost)
        sol = _pinned_solve(prog, dvars.p_exchange, net_export)

    out = read_solution(sol, scenario.aggregators, dvars)
    return DsoDispatch(
        net_export=net_export,
        cost=sol.objective,
        marginal_price=out.retail_prices[scenario.network.substation],
        by_aggregator=out.shares,
        block_dispatch=out.blocks,
        retail_prices=out.retail_prices,
        flows_p=out.flows_p,
        flows_q=out.flows_q,
        voltages_sq=out.voltages_sq,
        reactive_exchange=out.q_exchange,
    )


def build_bid_curve(scenario: Scenario) -> BidCurve:
    """Recover the exact convex bid curve by chord-slope probing.

    The scenario's free-export LP is restarted, then re-solved throughout.
    Its range comes from minimizing and maximizing the export; each end cost
    is the dispatch cost with the export pinned to that end through its
    bounds, which are freed again afterwards. Each interval [a, b] between
    known points of the value function is then probed with the slope m of
    its chord: the LP minimizes dispatch cost - m * export. An optimum on
    the chord means [a, b] is one segment with price m; one below it is an
    LP vertex strictly inside (a, b), a breakpoint to split at.

    A split probe's basis also certifies segments without a probe. Its
    vertex q stays optimal while the export's cost -s moves within the
    range ``lp.cost_range`` reads, so every slope s in that range [s-, s+]
    is a subgradient of the value function V at q: V(p) >= V(q) + s (p - q)
    for all p. Take [a, b] with chord slope m and the supporting line of
    slope s+(a) at a. On [a, b], V(p) - m p >= V(a) - m a - (m - s+(a)) (b - a),
    and outside [a, b] convexity keeps V above the chord's line. So a probe
    at slope m would end at most (m - s+(a)) (b - a) below the chord
    intercept V(a) - m a, and the same holds with (s-(b) - m) (b - a) from
    b's side. When either product is within the probe's own slack, the
    probe would have accepted [a, b]: it is taken as a segment unsolved.
    The range ends have no basis of their own, so the first chord is always
    probed. On the curve LPs a split probe's range is exactly the pair of
    adjacent segment prices, so a curve of k segments takes k + 3 solves:
    the range (2), the end costs (2) and k - 1 split probes, or one
    accepting probe when k = 1. Ties between blocks at the chord slope can
    add probes (collinear neighbors are extended, not split), as can a
    degenerate basis whose range is narrower than the segment prices.
    """
    model = _model_for(scenario)
    with model.lock:
        prog, dvars, cost = model.free_lp()
        prog.restart()
        curve = _probe_curve(scenario, prog, dvars.p_exchange, cost)
    problems = curve.violations()
    if problems:
        raise lpmod.SolverError("assembled bid curve is inconsistent: " + "; ".join(problems))
    return curve


_UNSUPPORTED = (math.inf, -math.inf)  # no supporting slopes known: certifies nothing


def _probe_curve(scenario: Scenario, prog: lpmod.LinearProgram, px: int,
                 cost: dict[int, float]) -> BidCurve:
    q_min, q_max = _export_range(prog, px)
    prog.set_objective(cost)

    # Points are (export, cost, (s-, s+)): the slopes of the supporting
    # lines at the point that the basis of its probe certifies.
    lo = (q_min, _pinned_solve(prog, px, q_min).objective, _UNSUPPORTED)
    if q_max - q_min <= max(1e-12, 1e-9 * max(abs(q_min), 1.0)):
        return BidCurve(breakpoints=(lo[:2],), prices=())
    hi = (q_max, _pinned_solve(prog, px, q_max).objective, _UNSUPPORTED)
    tol = max(scenario.tolerance, 1e-9)

    breakpoints, prices = [lo], []
    stack = [(lo, hi)]  # intervals still to probe, leftmost on top
    while stack:
        a, b = stack.pop()
        (qa, ca, sa), (qb, cb, sb) = a, b
        slope = (cb - ca) / (qb - qa)
        # Relative to the end costs, with no floor: it follows the feeder's
        # power unit, and a merged kink moves the curve by at most tol times
        # the larger end cost.
        slack = tol * max(abs(ca), abs(cb))
        if min(slope - sa[1], sb[0] - slope) * (qb - qa) > slack:  # not certified: probe
            prog.set_objective({**cost, px: -slope})
            sol = lpmod.solve(prog)
            if sol.status != lpmod.OPTIMAL:
                raise InfeasibleError(f"chord probe on [{qa}, {qb}] MW is {sol.status}")
            if sol.objective < ca - slope * qa - slack:
                q = float(sol.x[px])
                if not qa < q < qb:
                    raise lpmod.SolverError(
                        f"chord probe on [{qa}, {qb}] MW returned export {q}")
                costs = lpmod.cost_range(prog, sol, px)
                mid = (q, sol.objective + slope * q,
                       _UNSUPPORTED if costs is None else (-costs[1], -costs[0]))
                stack += [(mid, b), (a, mid)]
                continue
        # Blocks tied at the chord slope can put an earlier probe's vertex
        # inside a segment; a collinear neighbor is then extended, not split.
        if prices and abs(slope - prices[-1]) <= tol:
            del breakpoints[-1], prices[-1]
            qa, ca, _ = breakpoints[-1]
            slope = (cb - ca) / (qb - qa)
        breakpoints.append(b)
        prices.append(slope)

    return BidCurve(breakpoints=tuple(bp[:2] for bp in breakpoints), prices=tuple(prices))
