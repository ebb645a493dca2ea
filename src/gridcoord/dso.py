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
every solve of a scenario: the range, the probes, the end costs, which pin
the export through its bounds, and the re-dispatch. Given the clearing
price, the re-dispatch is one more probe, at that price's slope: its duals,
with the price on the wholesale balance, are a dual solution of the joint
LP, which ``coordination.check_equivalence`` certifies the outcome with.
The re-dispatch is a ``DsoDispatch``, a ``distflow.DistFlowSolution``.

The free-export LP is solved in block space (``_free_lp``). On a radial
tree every branch flow and squared voltage is affine in the block outputs
(``distflow.tree_sensitivities``), so the LP keeps only the block columns,
the export ``px`` and one balance row (sum of sign * block - px = the net
firm load), plus, for each network limit that can bind, one row
``a . blocks - s = -base`` whose slack ``s`` carries the limit as its
bounds. The screen (``_bindable``) drops a limit that the tree variable
cannot reach, by interval arithmetic over the block boxes, and keeps any
it reaches or misses by no more than rounding. A dropped limit is
redundant, so the LP's optimum is the full DistFlow LP's. The
re-dispatch reads the full outcome back through the same sensitivities,
and its duals over every row of the DistFlow fragment
(``TreeSensitivities.row_duals``); the joint LP keeps the whole fragment,
so ``check_equivalence`` scores every original row and limit, and a
screening or mapping fault fails it.

Every compiled LP of a scenario, this module's and ``coordination``'s joint
LP, is reused by one policy, ``compiled(scenario, build)``. A one-slot cache
keyed by the scenario's identity (``is``) holds the scenario, validated once,
a lock, and what each builder built from it; another ``Scenario`` object
replaces it. Each use holds the lock and restarts the LP cold, from the
slack basis, so a public call runs the solve sequence of a fresh compile:
its answer is bit-for-bit a fresh compile's, whatever came before, and
threads take turns.
"""

from __future__ import annotations

import math
import sys
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import lp as lpmod
from .distflow import build_constraints  # noqa: F401  (the benchmark's tracer looks it up here)
from .distflow import (DistFlowSolution, TreeSensitivities, dispatch_cost_coeffs, read_outcome,
                       tree_sensitivities)
from .lp import InfeasibleError
from .model import Scenario, require_valid


@dataclass(frozen=True)
class Segment:
    q_lo: float
    q_hi: float
    price: float


@dataclass(frozen=True)
class BidCurve:
    """Convex piecewise-linear total cost of net export, given by its breakpoints.

    ``breakpoints`` are (export MW, total cost $/h) with strictly increasing
    export. ``prices`` is derived, one marginal price per segment: (c1 - c0) /
    (q1 - q0) over its two breakpoints, NaN if they share an export. A
    degenerate (single-point) feasible range has one breakpoint and no
    segments. ``segments`` and ``violations`` are worked out once per curve
    object, so clearing against one curve many times checks it once.
    """

    breakpoints: tuple[tuple[float, float], ...]
    prices: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        points = tuple(tuple(bp) for bp in self.breakpoints)
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "prices", tuple((c1 - c0) / (q1 - q0) if q1 != q0 else math.nan
                                                 for (q0, c0), (q1, c1) in zip(points, points[1:])))

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
        return tuple(out)


@dataclass(frozen=True)
class DsoDispatch(DistFlowSolution):
    """The DSO's re-dispatch of one awarded net export: its DistFlow outcome and prices."""

    net_export: float
    cost: float
    row_duals: tuple[float, ...]  # the DistFlow fragment's rows (build_constraints'), not the LP's


class _Model:
    """A validated scenario, the lock its LPs are used under, and what each builder built."""

    def __init__(self, scenario: Scenario):
        require_valid(scenario)
        self.scenario = scenario
        self.lock = threading.Lock()
        self.built: dict[Callable, tuple] = {}


_slot: _Model | None = None
_slot_lock = threading.Lock()


@contextmanager
def compiled(scenario: Scenario, build: Callable[[Scenario], tuple]) -> Iterator[tuple]:
    """``build(scenario)``, built on first use for this scenario object, its LP restarted.

    ``build`` returns a tuple whose first item is the ``LinearProgram``. A new
    scenario object is validated (ValidationError) and replaces the cached
    model; the model's lock is held for the ``with`` block.
    """
    global _slot
    with _slot_lock:
        if _slot is None or _slot.scenario is not scenario:
            _slot = _Model(scenario)
        model = _slot
    with model.lock:
        if build not in model.built:
            model.built[build] = build(scenario)
        built = model.built[build]
        built[0].restart()
        yield built


_FreeLp = tuple[lpmod.LinearProgram, TreeSensitivities, int, np.ndarray, dict[int, float]]


def _free_lp(scenario: Scenario) -> _FreeLp:
    """The free-export LP, its tree, export column, kept limits and the dispatch cost.

    Its columns are the blocks (numbered as in the DistFlow fragment), the
    export and one slack per kept limit; its rows the balance, then one per
    kept limit.
    """
    tree = tree_sensitivities(scenario.network, scenario.aggregators)
    kept = _bindable(tree)
    prog = lpmod.LinearProgram()
    for cap in tree.capacity.tolist():
        prog.add_variable(0.0, cap)
    px = prog.add_variable()
    prog.add_constraint({**dict(enumerate(tree.injection.tolist())), px: -1.0}, tree.net_load)
    for t in kept.tolist():
        slack = prog.add_variable(float(tree.lower[t]), float(tree.upper[t]))
        row = {j: a for j, a in enumerate(tree.matrix[t].tolist()) if a}
        prog.add_constraint({**row, slack: -1.0}, -float(tree.base[t]))
    return prog, tree, px, kept, dispatch_cost_coeffs(scenario.aggregators)


def _bindable(tree: TreeSensitivities) -> np.ndarray:
    """The tree variables whose limits the blocks can reach, by index.

    Over the block boxes, tree variable t spans base + the sum of its
    negative reaches to base + the sum of its positive ones. A limit that
    interval does not reach is redundant, and the LP leaves it out. One it
    reaches, touches or misses by no more than rounding is kept: rounding
    is N eps times the magnitudes summed, |base| plus every |reach|, with N
    the count of tree variables and blocks, more than the terms of any sum.
    """
    reach = tree.matrix * tree.capacity
    low = tree.base + np.minimum(reach, 0.0).sum(axis=1)
    high = tree.base + np.maximum(reach, 0.0).sum(axis=1)
    magnitude = np.abs(tree.base) + np.abs(reach).sum(axis=1)
    rounding = sum(tree.matrix.shape) * sys.float_info.epsilon * magnitude
    return np.flatnonzero((low <= tree.lower + rounding) | (high >= tree.upper - rounding))


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
    with compiled(scenario, _free_lp) as (prog, _, px, _, _):
        return _export_range(prog, px)


def value_at(scenario: Scenario, net_export: float, price: float | None = None) -> DsoDispatch:
    """Minimum-cost aggregator dispatch serving the given net export, and its prices.

    Without a ``price``, the scenario's free-export LP is restarted and
    solved once at the dispatch cost, with the export pinned to
    ``net_export`` through its bounds. The substation balance dual
    (``retail_prices[substation]``) is then the marginal cost of export:
    inside a segment of the bid curve, the segment's price; at a breakpoint,
    some value between the two adjacent prices (open at the curve's ends),
    picked by the optimal basis.

    With a ``price``, the clearing price of the award, the LP is solved
    once at ``dispatch cost - price * export`` instead. A clearing price lies
    between the prices of the segments either side of its award, so that
    solve's duals, with the price on the wholesale balance, are optimal
    duals of the joint LP, and the substation price is ``price`` itself.
    Where the award lies inside a segment priced at ``price``, the optimum
    is the whole segment: if the solve's export misses ``net_export`` by
    more than 1e-9 of max(1, |net_export|), the call re-solves, warm, with
    the export pinned and takes that primal, keeping the first solve's duals
    (still optimal, by complementary slackness). A pinned solve never needs
    a second one, so it stays the rule without a price.

    ``row_duals`` holds a dual for every row of the DistFlow fragment, in
    ``build_constraints``' order, read back from the block LP's balance and
    limit duals; ``retail_prices`` are its active balance duals. A
    ``net_export``, or a ``price``, that is not finite raises ValueError.
    """
    if not (math.isfinite(net_export) and (price is None or math.isfinite(price))):
        raise ValueError(f"net export and price must be finite, got {net_export} and {price}")
    with compiled(scenario, _free_lp) as (prog, tree, px, kept, cost):
        if price is None:
            prog.set_objective(cost)
            sol = _pinned_solve(prog, px, net_export)
            dispatch_cost = sol.objective
        else:
            prog.set_objective({**cost, px: -price})
            sol = lpmod.solve(prog)
            if sol.status != lpmod.OPTIMAL:
                raise InfeasibleError(f"dispatch at {price} $/MWh is {sol.status}")
            if abs(sol.x[px] - net_export) > 1e-9 * max(1.0, abs(net_export)):
                sol = replace(sol, x=_pinned_solve(prog, px, net_export).x)
            dispatch_cost = sol.objective + price * float(sol.x[px])

    limits = np.zeros(len(tree.base))
    limits[kept] = sol.y[1:]
    y = tree.row_duals(float(sol.y[0]), limits)
    fills = sol.x[:px]
    return read_outcome(DsoDispatch, scenario.network, scenario.aggregators, fills,
                        tree.base + tree.matrix @ fills, y, net_export=net_export,
                        cost=dispatch_cost, row_duals=tuple(y.tolist()))


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
    with compiled(scenario, _free_lp) as (prog, _, px, _, cost):
        curve = _probe_curve(scenario, prog, px, cost)
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
        return BidCurve(breakpoints=(lo[:2],))
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

    return BidCurve(breakpoints=tuple(bp[:2] for bp in breakpoints))
