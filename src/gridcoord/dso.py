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
A curve of k segments then takes k + 3 solves. Within a curve, one
free-export LP serves every solve: the range, the end costs (export pinned
through its bounds) and the probes, each re-solved from the previous basis.

Each scenario is compiled once: a private model validates it, derives its
tree incidence and builds, on first use, the free-export LP and the
re-dispatch LP (export folded into the substation balance rhs). The model
lives in a one-slot cache keyed by the scenario's identity (``is``, not
equality or hash), so repeat calls on one ``Scenario`` object reuse it and
a call on another object replaces it. Every public call still solves: it
moves what it needs (the re-dispatch rhs), restarts the LP cold and runs the
same solve sequence a fresh compile would, so its answer is bit-for-bit
that of a fresh compile and never depends on earlier calls. Each LP has its
own lock, so calls on one scenario from several threads take turns.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from . import lp as lpmod
from .distflow import (DistFlowVars, build_constraints, dispatch_cost_coeffs, firm_net_load,
                       read_solution)
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


class _CompiledLp:
    """One DistFlow LP of a scenario and the lock its solve sequences hold."""

    def __init__(self, prog: lpmod.LinearProgram, dvars: DistFlowVars):
        self.prog, self.dvars = prog, dvars
        self.lock = threading.Lock()


class _Model:
    """A validated scenario, its incidence and its two DistFlow LPs, built on first use."""

    def __init__(self, scenario: Scenario):
        require_valid(scenario)
        self.scenario = scenario
        self.incidence = derived_incidence(scenario.network)
        network = scenario.network
        self.substation_net_load = firm_net_load(network, scenario.aggregators)[0][
            network.substation]
        self._lps: dict[bool, _CompiledLp] = {}  # keyed by "export folded into the rhs"
        self._lock = threading.Lock()

    def lp(self, folded: bool) -> _CompiledLp:
        """The free-export LP, or (``folded``) the re-dispatch LP at the dispatch cost."""
        with self._lock:
            if folded not in self._lps:
                s = self.scenario
                prog, dvars = build_constraints(s.network, s.aggregators,
                                                net_export=0.0 if folded else None,
                                                incidence=self.incidence)
                if folded:
                    prog.set_objective(dispatch_cost_coeffs(s.aggregators, dvars))
                self._lps[folded] = _CompiledLp(prog, dvars)
            return self._lps[folded]


_slot: _Model | None = None
_slot_lock = threading.Lock()


def _model_for(scenario: Scenario) -> _Model:
    """The compiled model of ``scenario`` (this very object), compiling it on a miss."""
    global _slot
    with _slot_lock:
        if _slot is None or _slot.scenario is not scenario:
            _slot = _Model(scenario)
        return _slot


def _export_range(prog: lpmod.LinearProgram, p_exchange: str) -> tuple[float, float]:
    """Minimize, then maximize, the free export variable of ``prog``."""
    j = prog.column(p_exchange)
    out = []
    for sense in (1.0, -1.0):
        prog.set_objective({p_exchange: sense})
        sol = lpmod.solve(prog)
        if sol.status != lpmod.OPTIMAL:
            raise InfeasibleError(f"distribution dispatch polytope is {sol.status}")
        out.append(float(sol.x[j]))
    return out[0], out[1]


def feasible_range(scenario: Scenario) -> tuple[float, float]:
    """Extreme feasible net exports of the network-plus-blocks polytope."""
    free = _model_for(scenario).lp(folded=False)
    with free.lock:
        free.prog.restart()
        return _export_range(free.prog, free.dvars.p_exchange)


def value_at(scenario: Scenario, net_export: float) -> DsoDispatch:
    """Minimum-cost aggregator dispatch serving the given net export."""
    model = _model_for(scenario)
    folded = model.lp(folded=True)
    dvars = folded.dvars
    with folded.lock:
        # The substation rhs as build_constraints folds it: net load, then + export.
        folded.prog.set_rhs(dvars.balance_p[scenario.network.substation],
                            model.substation_net_load + net_export)
        folded.prog.restart()
        sol = lpmod.solve(folded.prog)
    if sol.status != lpmod.OPTIMAL:
        raise InfeasibleError(f"net export {net_export} MW is {sol.status} for this network")

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
    free = _model_for(scenario).lp(folded=False)
    with free.lock:
        free.prog.restart()
        curve = _probe_curve(scenario, free.prog, free.dvars)
    problems = curve.violations()
    if problems:
        raise lpmod.SolverError("assembled bid curve is inconsistent: " + "; ".join(problems))
    return curve


_UNSUPPORTED = (math.inf, -math.inf)  # no supporting slopes known: certifies nothing


def _probe_curve(scenario: Scenario, prog: lpmod.LinearProgram, dvars: DistFlowVars) -> BidCurve:
    px = dvars.p_exchange
    j = prog.column(px)
    q_min, q_max = _export_range(prog, px)
    cost = dispatch_cost_coeffs(scenario.aggregators, dvars)
    prog.set_objective(cost)

    def pinned_cost(q: float) -> float:
        prog.set_bounds(px, q, q)
        try:
            sol = lpmod.solve(prog)
        finally:  # the compiled LP outlives this call
            prog.set_bounds(px, -math.inf, math.inf)
        if sol.status != lpmod.OPTIMAL:
            raise InfeasibleError(f"net export {q} MW is {sol.status} for this network")
        return sol.objective

    # Points are (export, cost, (s-, s+)): the slopes of the supporting
    # lines at the point that the basis of its probe certifies.
    lo = (q_min, pinned_cost(q_min), _UNSUPPORTED)
    if q_max - q_min <= max(1e-12, 1e-9 * max(abs(q_min), 1.0)):
        return BidCurve(breakpoints=(lo[:2],), prices=())
    hi = (q_max, pinned_cost(q_max), _UNSUPPORTED)
    tol = max(scenario.tolerance, 1e-9)

    breakpoints, prices = [lo], []
    stack = [(lo, hi)]  # intervals still to probe, leftmost on top
    while stack:
        a, b = stack.pop()
        (qa, ca, sa), (qb, cb, sb) = a, b
        slope = (cb - ca) / (qb - qa)
        slack = tol * max(1.0, abs(ca), abs(cb))
        if min(slope - sa[1], sb[0] - slope) * (qb - qa) > slack:  # not certified: probe
            prog.set_objective({**cost, px: -slope})
            sol = lpmod.solve(prog)
            if sol.status != lpmod.OPTIMAL:
                raise InfeasibleError(f"chord probe on [{qa}, {qb}] MW is {sol.status}")
            if sol.objective < ca - slope * qa - slack:
                q = float(sol.x[j])
                if not qa < q < qb:
                    raise lpmod.SolverError(
                        f"chord probe on [{qa}, {qb}] MW returned export {q}")
                costs = lpmod.cost_range(prog, sol, j)
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
