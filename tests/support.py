"""Shared test machinery: random scenarios, brute-force oracles, residual checks,
a dual-optimality check of the re-dispatch, unit rescaling, metamorphic network transforms, a forced equivalence
failure and unreadable case files for the CLI, call counters for the compiled-model caches, the
probe-only bid curve (on the DSO's block LP, which the certified curve must
reproduce exactly, or on the full DistFlow LP, which it must match within
the scenario's tolerance), and the clearing LP that the merit-order clearing
must match.

The dispatch oracles here are deliberately independent of the package's LP
path: dispatch problems are solved by enumerating vertex dispatches (every
subset of saturated blocks plus at most one fractional block), and network
equations are re-evaluated from primal values with a fresh tree walk.

``random_scenario`` is the benchmark's ``small_scenario`` (``bench/gen.py``):
a radial tree of at most 12 nodes, convex stacks and loose voltages, drawn
from its seed alone. ``feeder_scenario`` is its 120-node feeder. ``bind``
and ``BINDING``, the binding families, are ``scripts/fingerprint.py``'s.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

import gridcoord.cli as cli
import gridcoord.dso as dso
import gridcoord.lp as lp
from gridcoord.caseio import BUNDLED_CASES, parse_case, resolve_case_path
from gridcoord.distflow import build_constraints, dispatch_cost_coeffs
from gridcoord.dso import BidCurve, value_at
from gridcoord.model import (
    DDGAG,
    DR,
    DRAG,
    REAG,
    Block,
    BlockOfferStack,
    Incidence,
    NetworkModel,
    Scenario,
)


# Loaded by file path: putting bench/ or scripts/ on sys.path would let their
# modules shadow same-named ones for the whole session.
def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_gen = _load("bench_gen", "bench/gen.py")
random_scenario = _gen.small_scenario
feeder_scenario = _gen.feeder_scenario
# The binding families that scripts/fingerprint.py also runs.
_fingerprint = _load("fingerprint", "scripts/fingerprint.py")
bind, BINDING = _fingerprint.bind, _fingerprint.BINDING


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

    Re-derives each node's parent with its own walk over the branch list so
    the check does not reuse the package's incidence code. Flows are read as
    stored, parent to child, whichever way a branch is declared.
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
        drop = 2.0 * (br.r * flows_p[j] + br.x * flows_q[j]) / network.base_mva
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
# Independent dual-optimality check of a re-dispatch
# ---------------------------------------------------------------------------


def redispatch_with_duals(scenario: Scenario, net_export: float, price: float | None = None):
    """``value_at(scenario, net_export, price)`` and its row duals by name.

    The DistFlow fragment's rows are ``bal_p[i]`` and ``bal_q[i]`` for each
    node i in turn, then ``volt[j]`` for each branch j. The call's solves
    are counted: without a price it runs one, with a price one at the
    price's slope, and a second, pinned, only when the first one's export
    misses ``net_export``. The duals are read back from the first solve's,
    which are the block LP's: its balance row's dual is the substation's
    ``bal_p`` dual.
    """
    solves = []
    original = lp.solve

    def recording(*args, **kwargs):
        solves.append(original(*args, **kwargs))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve", recording)
        dispatch = value_at(scenario, net_export, price)
    first = solves[0]
    if price is None:
        assert len(solves) == 1
    else:
        px = dso._free_lp(scenario)[2]
        missed = abs(first.x[px] - net_export) > 1e-9 * max(1.0, abs(net_export))
        assert len(solves) == 1 + missed
    net = scenario.network
    assert dispatch.row_duals[2 * net.substation] == first.y[0]
    names = [f"{row}[{i}]" for i in range(net.n_nodes) for row in ("bal_p", "bal_q")]
    names += [f"volt[{j}]" for j in range(len(net.branches))]
    assert len(names) == len(dispatch.row_duals)
    return dispatch, dict(zip(names, dispatch.row_duals))


def redispatch_dual_violations(scenario: Scenario, dispatch, duals: dict[str, float],
                               tol: float = 1e-7) -> list[str]:
    """Why ``duals`` would not certify ``dispatch`` as an optimal re-dispatch; [] if they do.

    ``duals`` holds the row duals of the DistFlow LP by row name (``bal_p[i]``,
    ``bal_q[i]``, ``volt[j]``), and the dispatch's retail prices must be its
    ``bal_p`` entries. Every reduced cost is rebuilt here from the scenario,
    with the tree oriented by its own walk: each column sitting on one bound
    must have the sign of that bound (>= 0 at a lower, <= 0 at an upper),
    each column strictly inside its bounds a zero reduced cost, and the dual
    objective (the rhs terms plus each reduced cost times the bound its column
    sits on) must equal the dispatch cost within ``tol``. With the dispatch
    primal feasible, that is a complete optimality certificate.
    """
    net = scenario.network
    y_p = [duals[f"bal_p[{i}]"] for i in range(net.n_nodes)]
    y_q = [duals[f"bal_q[{i}]"] for i in range(net.n_nodes)]
    y_v = [duals[f"volt[{j}]"] for j in range(len(net.branches))]
    out = [f"node {i}: retail price {dispatch.retail_prices[i]} is not the dual {y_p[i]}"
           for i in range(net.n_nodes) if dispatch.retail_prices[i] != y_p[i]]

    parent, child = {}, {}  # branch -> its end nearer to / farther from the substation
    order, seen = [net.substation], {net.substation}
    for node in order:
        for j, br in enumerate(net.branches):
            if node in (br.from_node, br.to_node) and j not in parent:
                other = br.to_node if br.from_node == node else br.from_node
                if other not in seen:
                    parent[j], child[j] = node, other
                    seen.add(other)
                    order.append(other)

    # Columns as (name, value, lower, upper, reduced cost); reduced = cost - A' y.
    columns = []
    rhs_p, rhs_q = list(net.load_p), list(net.load_q)
    for agg in scenario.aggregators:
        if agg.kind == REAG:
            rhs_p[agg.node] -= agg.fixed_output
            rhs_q[agg.node] -= agg.fixed_output * agg.tan_phi
        sign = -1.0 if agg.kind == DRAG else 1.0
        for b, (blk, x) in enumerate(zip(agg.offers.blocks, dispatch.aggregator_blocks[agg.id])):
            reduced = sign * (blk.price - y_p[agg.node] - agg.tan_phi * y_q[agg.node])
            columns.append((f"{agg.id}[{b}]", x, 0.0, blk.p_max, reduced))
    for j, br in enumerate(net.branches):
        k, m = child[j], parent[j]
        columns.append((f"pflow[{j}]", dispatch.flows_p[j], -br.pl_max, br.pl_max,
                        -(y_p[k] - y_p[m] + 2.0 * br.r / net.base_mva * y_v[j])))
        columns.append((f"qflow[{j}]", dispatch.flows_q[j], -br.ql_max, br.ql_max,
                        -(y_q[k] - y_q[m] + 2.0 * br.x / net.base_mva * y_v[j])))
    for i in range(net.n_nodes):
        lo, hi = (net.u_sub, net.u_sub) if i == net.substation else (net.u_min, net.u_max)
        reduced = (sum(y_v[j] for j in parent if parent[j] == i)
                   - sum(y_v[j] for j in child if child[j] == i))
        columns.append((f"usq[{i}]", dispatch.voltages_sq[i], lo, hi, reduced))
    columns.append(("qx", dispatch.q_exchange, -math.inf, math.inf, y_q[net.substation]))
    columns.append(("px", dispatch.net_export, dispatch.net_export, dispatch.net_export,
                    y_p[net.substation]))

    dual_objective = sum(y * rhs for y, rhs in zip(y_p + y_q, rhs_p + rhs_q))
    for name, x, lo, hi, reduced in columns:
        at_lo = x <= lo + 1e-9 * max(1.0, abs(lo))
        at_hi = x >= hi - 1e-9 * max(1.0, abs(hi))
        if at_lo:
            dual_objective += reduced * lo
        elif at_hi:
            dual_objective += reduced * hi
        if at_lo and at_hi:
            continue  # a fixed column: any reduced cost
        if (at_lo and reduced < -tol) or (at_hi and reduced > tol) or (
                not (at_lo or at_hi) and abs(reduced) > tol):
            out.append(f"column {name} at {x} in [{lo}, {hi}]: reduced cost {reduced:.3g}")
    if abs(dual_objective - dispatch.cost) > tol:
        out.append(f"dual objective {dual_objective!r} is not the cost {dispatch.cost!r}")
    return out


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
# Forced verification failure, and case files that cannot be read
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


def unreadable_case(tmp_path, which: str) -> Path:
    """A case file that is not JSON text: a 5,001-digit firm load, or UTF-16 bytes."""
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    path = tmp_path / f"{which}.json"
    if which == "long-integer":  # json.dumps would refuse to write the integer itself
        doc["firm_load"] = "FIRM_LOAD"
        path.write_text(json.dumps(doc).replace('"FIRM_LOAD"', "1" * 5001))
    else:
        path.write_bytes(b"\xff\xfe" + json.dumps(doc).encode("utf-16-le"))
    return path


# ---------------------------------------------------------------------------
# Call counters and exact answers, for the compiled-model caches
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, module, name: str) -> list:
    """Record calls to ``module.name`` through every gridcoord module bound to it.

    Returns a list that grows by each call's return value, for as long as
    the monkeypatch lasts.
    """
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "gridcoord" or key.startswith("gridcoord.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def congested_reference() -> Scenario:
    """``paper_reference`` with every branch limited to 2 MW and 2 MVAr.

    The award then congests the branches towards the demand response, and
    four flow limits can bind: the retail prices split (28 $/MWh at nodes 8
    and 9, 22 elsewhere).
    """
    scenario = parse_case("paper_reference")
    net = scenario.network
    branches = tuple(dataclasses.replace(br, pl_max=2.0, ql_max=2.0) for br in net.branches)
    return dataclasses.replace(scenario, network=dataclasses.replace(net, branches=branches))


# Bundled cases and random seeds with their branches declared from the other
# end, or with their node ids reversed (which moves the substation too).
TRANSFORMED = tuple(f"{how}:{base}" for how in ("reversed", "relabelled")
                    for base in (*BUNDLED_CASES, "3", "17"))


def named_scenario(which) -> Scenario:
    """A bundled case by name, ``congested`` (``congested_reference``), a
    ``random_scenario`` by seed, or one of ``TRANSFORMED``."""
    if isinstance(which, int):
        return random_scenario(which)
    how, _, base = which.rpartition(":")
    if base == "congested":
        scenario = congested_reference()
    else:
        scenario = random_scenario(int(base)) if base.isdigit() else parse_case(base)
    if how == "reversed":
        return reverse_branches(scenario)
    if how == "relabelled":
        return relabel_nodes(scenario, range(scenario.network.n_nodes)[::-1])
    return scenario


def count_compiles(monkeypatch) -> list:
    """Count LinearPrograms loaded into a new HiGHS instance."""
    return count_calls(monkeypatch, lp, "_Highs")


def answer(call, *args):
    """``call(*args)``, or the type and message of the InfeasibleError it raised."""
    try:
        return call(*args)
    except lp.InfeasibleError as exc:
        return "InfeasibleError", str(exc)


# ---------------------------------------------------------------------------
# Probe-only bid curve
# ---------------------------------------------------------------------------


def full_free_lp(scenario: Scenario):
    """The free-export LP over the whole DistFlow fragment, its export column and its cost."""
    prog, dvars = build_constraints(scenario.network, scenario.aggregators)
    return prog, dvars.p_exchange, dispatch_cost_coeffs(scenario.aggregators)


def block_free_lp(scenario: Scenario):
    """``dso``'s free-export LP over the blocks, freshly built, its export column and its cost."""
    prog, _, px, _, cost = dso._free_lp(scenario)
    return prog, px, cost


def probe_only_curve(scenario: Scenario, free_lp=full_free_lp) -> BidCurve:
    """The bid curve by chord probes alone, as built before basis certificates.

    Every interval is probed, so a k-segment curve takes 2k + 3 solves, on
    the LP that ``free_lp`` builds. On ``block_free_lp`` it runs the same
    solves in the same order as ``dso.build_bid_curve`` does, except that it
    also solves the probes that the certificates skip. Those probes leave
    the basis where it was, so the two must agree bit for bit. On
    ``full_free_lp``, the default, every network limit is a row or a bound
    of the LP, as in the joint LP, so no limit is screened out.
    """
    prog, px, cost = free_lp(scenario)
    ends = []
    for sense in (1.0, -1.0):
        prog.set_objective({px: sense})
        ends.append(float(lp.solve(prog).x[px]))
    q_min, q_max = ends
    prog.set_objective(cost)

    def pinned_cost(q):
        prog.set_bounds(px, q, q)
        sol = lp.solve(prog)
        prog.set_bounds(px, -math.inf, math.inf)
        return sol.objective

    lo = (q_min, pinned_cost(q_min))
    if q_max - q_min <= max(1e-12, 1e-9 * max(abs(q_min), 1.0)):
        return BidCurve(breakpoints=(lo,))
    hi = (q_max, pinned_cost(q_max))
    tol = max(scenario.tolerance, 1e-9)

    breakpoints, prices = [lo], []
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        (qa, ca), (qb, cb) = a, b
        slope = (cb - ca) / (qb - qa)
        prog.set_objective({**cost, px: -slope})
        sol = lp.solve(prog)
        if sol.objective >= ca - slope * qa - tol * max(abs(ca), abs(cb)):
            if prices and abs(slope - prices[-1]) <= tol:
                del breakpoints[-1], prices[-1]
                qa, ca = breakpoints[-1]
                slope = (cb - ca) / (qb - qa)
            breakpoints.append(b)
            prices.append(slope)
            continue
        q = float(sol.x[px])
        mid = (q, sol.objective + slope * q)
        stack += [(mid, b), (a, mid)]
    return BidCurve(breakpoints=tuple(breakpoints))


# ---------------------------------------------------------------------------
# Clearing LP
# ---------------------------------------------------------------------------


def lp_clearing(wholesale, curves, firm_load) -> lp.LpSolution:
    """The wholesale clearing as an LP, solved by HiGHS.

    One balance row over one bounded variable per wholesale block (+1 supply,
    -1 demand, each at its signed price) and per curve segment at its price,
    with each curve's minimum export taken off the rhs and its cost there
    added to the solution's objective. The balance dual is a clearing price.
    """
    prog = lp.LinearProgram()
    balance: dict[int, float] = {}
    objective: dict[int, float] = {}
    for wp in wholesale:
        sign = -1.0 if wp.kind == DR else 1.0
        for blk in wp.offers.blocks:
            j = prog.add_variable(0.0, blk.p_max)
            balance[j] = sign
            objective[j] = sign * blk.price
    for curve in curves:
        for seg in curve.segments:
            j = prog.add_variable(0.0, seg.q_hi - seg.q_lo)
            balance[j] = 1.0
            objective[j] = seg.price
    prog.add_constraint(balance, firm_load - sum(curve.q_min for curve in curves))
    prog.set_objective(objective)
    sol = lp.solve(prog)
    sol.objective += sum(curve.breakpoints[0][1] for curve in curves)  # stays nan unless optimal
    return sol
