"""End-to-end pipeline, its optimality certificate, and the joint-dispatch oracle.

``run_coordinated`` chains bid-curve construction, wholesale clearing, and
aggregator re-dispatch at the award and its clearing price. ``run_ideal``
solves the whole thing as one LP (aggregators bidding straight into the
wholesale balance, network constraints included); it is the oracle that
tests and the ``ideal`` command run. Its ``IdealOutcome``, like the
re-dispatch's ``dso.DsoDispatch``, is a ``distflow.DistFlowSolution``. The
joint LP is the DistFlow fragment that ``distflow`` writes and reads,
followed by the wholesale block columns and balance row, which this module
alone writes and reads back.

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
HiGHS; ``run_ideal`` solves it cold, from the slack basis, on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import lp as lpmod
from .distflow import (DistFlowSolution, DistFlowVars, build_constraints, dispatch_cost_coeffs,
                       fragment_point, read_outcome)
from .dso import BidCurve, DsoDispatch, build_bid_curve, compiled, value_at
from .iso import IsoOutcome, clear
from .lp import InfeasibleError, SolverError
from .model import DR, Scenario


@dataclass(frozen=True)
class IdealOutcome(DistFlowSolution):
    """Joint dispatch of wholesale participants and aggregators (one LP)."""

    cleared: dict[str, float]             # wholesale id -> MW
    blocks: dict[str, tuple[float, ...]]  # wholesale id -> block fills
    net_export: float                     # distribution -> wholesale exchange
    clearing_price: float
    objective: float


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


_Joint = tuple[lpmod.LinearProgram, DistFlowVars, int]


def _joint_lp(scenario: Scenario) -> _Joint:
    """The scenario's joint LP, where its DistFlow fragment's columns sit, and its balance row.

    Its columns and rows are the fragment's, laid out as ``distflow`` states,
    then one column per wholesale block, participant by participant, and the
    wholesale balance row, where a block supplies +1 (a DR block -1).
    """
    prog, dvars = build_constraints(scenario.network, scenario.aggregators)
    objective = dispatch_cost_coeffs(scenario.aggregators)
    balance: dict[int, float] = {dvars.p_exchange: 1.0}
    for wp in scenario.wholesale:
        sign = -1.0 if wp.kind == DR else 1.0
        for blk in wp.offers.blocks:
            j = prog.add_variable(0.0, blk.p_max)
            balance[j] = sign
            objective[j] = sign * blk.price
    row = prog.add_constraint(balance, scenario.firm_wholesale_load)
    prog.set_objective(objective)
    return prog, dvars, row


def run_ideal(scenario: Scenario) -> IdealOutcome:
    """One LP: wholesale stacks, aggregator stacks, and network constraints."""
    with compiled(scenario, _joint_lp) as (prog, dvars, balance):
        sol = lpmod.solve(prog)
    if sol.status != lpmod.OPTIMAL:
        raise InfeasibleError(f"joint dispatch is {sol.status}")
    fills = iter(sol.x[dvars.p_exchange + 1:].tolist())  # after the active exchange
    blocks = {wp.id: tuple(next(fills) for _ in wp.offers.blocks) for wp in scenario.wholesale}
    return read_outcome(
        IdealOutcome, scenario.network, scenario.aggregators, sol.x[:dvars.tree.start],
        sol.x[dvars.tree], sol.y, blocks=blocks,
        cleared={wp_id: sum(values) for wp_id, values in blocks.items()},
        net_export=float(sol.x[dvars.p_exchange]), clearing_price=float(sol.y[balance]),
        objective=sol.objective)


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
    with compiled(scenario, _joint_lp) as (prog, _, balance):
        point = np.concatenate((fragment_point(coordinated.dso_dispatch,
                                               coordinated.iso.dso_awards[0]),
                                *coordinated.iso.blocks.values()))
        assert len(point) == prog.n_cols, "the fragment's columns lead; the wholesale blocks follow"
        residual, objective = prog.evaluate(point)
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
