"""End-to-end pipeline, its optimality certificate, and the joint-dispatch oracle.

``run_coordinated`` chains bid-curve construction, wholesale clearing, and
aggregator re-dispatch at the award and its clearing price. ``run_ideal``
solves the whole thing as one LP (aggregators bidding straight into the
wholesale balance, network constraints included); it is the oracle that
tests and the ``ideal`` command run.

``check_equivalence`` certifies the coordinated outcome as an optimum of
that joint LP without solving it. This is the parametric decomposition the
pipeline rests on: the DSO's problem at slope lambda, dispatch cost minus
lambda times export, is the joint LP with its wholesale balance row
dualised at lambda. So the re-dispatch's row duals, with the clearing price
on the balance row, are a dual point of the joint LP, and the outcome
(wholesale block fills, the award as the exchange, and the re-dispatch's
aggregator blocks, flows and voltages) a primal point. A primal point that
is feasible and scores the dual point's Lagrangian bound is optimal by weak
duality. Where tied prices leave the optimum non-unique, any optimal split
passes, so no tie needs detecting. The joint LP is built and kept by
``dso.compiled`` for its rows alone, so the check never compiles it into
HiGHS; when ``run_ideal`` solves it, its start basis is the DistFlow tree
plus the wholesale balance row's logical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp as lpmod
from .distflow import DistFlowVars, build_constraints, dispatch_cost_coeffs, read_solution
from .dso import BidCurve, DsoDispatch, build_bid_curve, compiled, value_at
from .iso import IsoOutcome, add_wholesale, clear, read_wholesale
from .lp import InfeasibleError, SolverError
from .model import Scenario


@dataclass(frozen=True)
class IdealOutcome:
    """Joint dispatch of wholesale participants and aggregators (one LP)."""

    cleared: dict[str, float]             # wholesale id -> MW
    blocks: dict[str, tuple[float, ...]]
    aggregator_dispatch: dict[str, float]
    aggregator_blocks: dict[str, tuple[float, ...]]
    net_export: float                     # distribution -> wholesale exchange
    clearing_price: float
    objective: float
    retail_prices: dict[int, float]
    flows_p: tuple[float, ...]
    flows_q: tuple[float, ...]
    voltages_sq: tuple[float, ...]


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    max_deviation: float                  # max(primal_residual, |duality_gap|)
    primal_residual: float                # coordinated point's worst joint-LP violation
    tolerance: float
    objective_coordinated: float          # the point's joint-LP objective
    dual_objective: float                 # the Lagrangian bound of the coordinated duals
    duality_gap: float                    # objective_coordinated - dual_objective


@dataclass(frozen=True)
class CoordinationResult:
    bid_curve: BidCurve
    iso: IsoOutcome
    dso_dispatch: DsoDispatch
    equivalence: EquivalenceReport | None = None


def run_coordinated(scenario: Scenario) -> CoordinationResult:
    """Bid curve -> wholesale clearing -> re-dispatch at the award and its clearing price."""
    curve = build_bid_curve(scenario)  # validates the scenario, once per object
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    award = outcome.dso_awards[0]
    dispatch = value_at(scenario, award, outcome.clearing_price)
    drift = abs(dispatch.cost - curve.cost_at(award))
    if drift > max(scenario.tolerance, 1e-6):
        raise SolverError(
            f"re-dispatch cost differs from the submitted curve by {drift:g} at {award} MW"
        )
    return CoordinationResult(bid_curve=curve, iso=outcome, dso_dispatch=dispatch)


_Joint = tuple[lpmod.LinearProgram, DistFlowVars, tuple[tuple[int, ...], ...], int]


def _joint_lp(scenario: Scenario) -> _Joint:
    """The scenario's joint LP, its DistFlow indices, wholesale block columns and balance row."""
    prog, dvars = build_constraints(scenario.network, scenario.aggregators)
    objective = dispatch_cost_coeffs(scenario.aggregators, dvars)
    balance: dict[int, float] = {dvars.p_exchange: 1.0}
    block_vars = add_wholesale(prog, scenario.wholesale, balance, objective)
    row = prog.add_constraint(balance, scenario.firm_wholesale_load)
    prog.declare_basic(rows=(row,))  # completes the DistFlow tree basis
    prog.set_objective(objective)
    return prog, dvars, block_vars, row


def run_ideal(scenario: Scenario) -> IdealOutcome:
    """One LP: wholesale stacks, aggregator stacks, and network constraints."""
    with compiled(scenario, _joint_lp) as (prog, dvars, block_vars, balance):
        sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        raise InfeasibleError(f"joint dispatch is {sol.status}")
    cleared, blocks = read_wholesale(sol, scenario.wholesale, block_vars)
    out = read_solution(sol, scenario.aggregators, dvars)
    return IdealOutcome(
        cleared=cleared,
        blocks=blocks,
        aggregator_dispatch=out.shares,
        aggregator_blocks=out.blocks,
        net_export=float(sol.x[dvars.p_exchange]),
        clearing_price=float(sol.y[balance]),
        objective=sol.objective,
        retail_prices=out.retail_prices,
        flows_p=out.flows_p,
        flows_q=out.flows_q,
        voltages_sq=out.voltages_sq,
    )


def _coordinated_point(scenario: Scenario, result: CoordinationResult, joint: _Joint
                       ) -> np.ndarray:
    """The coordinated outcome as a value for every column of the joint LP."""
    prog, dvars, block_vars, _ = joint
    dispatch = result.dso_dispatch
    x = np.full(prog.n_cols, np.nan)  # a column left out fails the check
    x[dvars.p_exchange] = result.iso.dso_awards[0]
    x[dvars.q_exchange] = dispatch.reactive_exchange
    for wp, cols in zip(scenario.wholesale, block_vars):
        x[list(cols)] = result.iso.blocks[wp.id]
    for agg_id, cols in dvars.blocks.items():
        x[list(cols)] = dispatch.block_dispatch[agg_id]
    x[list(dvars.p_flow)] = dispatch.flows_p
    x[list(dvars.q_flow)] = dispatch.flows_q
    x[list(dvars.voltage_sq)] = dispatch.voltages_sq
    return x


def check_equivalence(scenario: Scenario, tolerance: float | None = None) -> CoordinationResult:
    """Run the pipeline and certify its outcome as a joint optimum, solving no joint LP.

    The coordinated outcome is read as a primal point of the joint LP and
    the re-dispatch's row duals, with the clearing price on the wholesale
    balance row, as a dual point. The check passes when the primal point
    violates no row or bound of the joint LP by more than the tolerance and
    its objective is within the tolerance of the dual point's Lagrangian
    bound (``LinearProgram.dual_bound``), which by weak duality no feasible
    point beats. The gap is held to the tolerance on both sides: a point
    that scores below the bound is not feasible, or the duals are not
    optimal. A failed check is a result, not an error; a ``tolerance``
    that is not finite and > 0 raises ValueError.
    """
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    tol = scenario.tolerance if tolerance is None else tolerance
    coordinated = run_coordinated(scenario)
    with compiled(scenario, _joint_lp) as joint:
        prog, _, _, balance = joint
        residual, objective = prog.evaluate(_coordinated_point(scenario, coordinated, joint))
        duals = coordinated.dso_dispatch.row_duals
        assert len(duals) == balance, "the DistFlow rows lead both LPs; the balance row follows"
        bound = prog.dual_bound(np.array(duals + (coordinated.iso.clearing_price,)))
    gap = objective - bound
    deviation = float(np.max((residual, abs(gap))))  # NaN if either is, unlike max()
    report = EquivalenceReport(
        passed=deviation <= tol,
        max_deviation=deviation,
        primal_residual=residual,
        tolerance=tol,
        objective_coordinated=objective,
        dual_objective=bound,
        duality_gap=gap,
    )
    return replace(coordinated, equivalence=report)
