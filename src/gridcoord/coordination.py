"""End-to-end pipeline and the joint-dispatch oracle it is checked against.

``run_coordinated`` chains bid-curve construction, wholesale clearing, and
aggregator re-dispatch at the awarded export. ``run_ideal`` solves the whole
thing as one LP (aggregators bidding straight into the wholesale balance,
network constraints included). ``check_equivalence`` certifies that the two
agree: the coordinated outcome, read as a point of the joint LP (wholesale
block fills, the award as the exchange, and the re-dispatch's aggregator
blocks, flows and voltages), must be feasible and reach the joint optimum.
Where tied prices leave the optimum non-unique, any optimal split passes,
so no tie needs detecting; per-participant differences are reported for
information only. The joint LP is compiled once per scenario object and kept
on the DSO's compiled model (``dso._Model``); each solve restarts it from
its start basis: the DistFlow tree plus the wholesale balance row's logical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lp as lpmod
from .distflow import DistFlowVars, build_constraints, dispatch_cost_coeffs, read_solution
from .dso import BidCurve, DsoDispatch, _Model, _model_for, build_bid_curve, value_at
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
class EquivalenceRow:
    name: str
    ideal: float
    coordinated: float

    @property
    def deviation(self) -> float:
        return abs(self.ideal - self.coordinated)


@dataclass(frozen=True)
class EquivalenceReport:
    passed: bool
    max_deviation: float                  # max(primal_residual, objective gap)
    primal_residual: float                # coordinated point's worst joint-LP violation
    tolerance: float
    objective_ideal: float
    objective_coordinated: float
    rows: tuple[EquivalenceRow, ...]


@dataclass(frozen=True)
class CoordinationResult:
    bid_curve: BidCurve
    iso: IsoOutcome
    dso_dispatch: DsoDispatch
    ideal: IdealOutcome | None = None
    equivalence: EquivalenceReport | None = None


def run_coordinated(scenario: Scenario) -> CoordinationResult:
    """Bid curve -> wholesale clearing -> re-dispatch at the award."""
    curve = build_bid_curve(scenario)  # validates the scenario, once per object
    outcome = clear(scenario.wholesale, [curve], scenario.firm_wholesale_load)
    award = outcome.dso_awards[0]
    dispatch = value_at(scenario, award)
    drift = abs(dispatch.cost - curve.cost_at(award))
    if drift > max(scenario.tolerance, 1e-6):
        raise SolverError(
            f"re-dispatch cost differs from the submitted curve by {drift:g} at {award} MW"
        )
    return CoordinationResult(bid_curve=curve, iso=outcome, dso_dispatch=dispatch)


_Joint = tuple[lpmod.LinearProgram, DistFlowVars, tuple[tuple[int, ...], ...], int]


def _joint_lp(model: _Model) -> _Joint:
    """The scenario's joint LP, its DistFlow indices, wholesale block columns and balance row.

    Built on first use and kept on the scenario's model; hold ``model.lock``.
    """
    if model.joint is None:
        scenario = model.scenario
        prog, dvars = build_constraints(scenario.network, scenario.aggregators,
                                        incidence=model.incidence)
        objective = dispatch_cost_coeffs(scenario.aggregators, dvars)
        balance: dict[int, float] = {dvars.p_exchange: 1.0}
        block_vars = add_wholesale(prog, scenario.wholesale, balance, objective)
        row = prog.add_constraint(balance, lpmod.EQ, scenario.firm_wholesale_load)
        prog.declare_basic(rows=(row,))  # completes the DistFlow tree basis
        prog.set_objective(objective)
        model.joint = prog, dvars, block_vars, row
    return model.joint


def _solve_joint(scenario: Scenario, prog: lpmod.LinearProgram, dvars: DistFlowVars,
                 block_vars: tuple[tuple[int, ...], ...], balance: int) -> IdealOutcome:
    prog.restart()  # from the start basis, as on a fresh compile
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


def run_ideal(scenario: Scenario) -> IdealOutcome:
    """One LP: wholesale stacks, aggregator stacks, and network constraints."""
    model = _model_for(scenario)  # validates the scenario, once per object
    with model.lock:
        return _solve_joint(scenario, *_joint_lp(model))


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
    """Run both pipelines and certify the coordinated outcome as a joint optimum.

    The check passes when the coordinated point violates no row or bound of
    the joint LP by more than the tolerance and its objective is within the
    tolerance of the joint optimum. A failed check is a result, not an error.
    """
    model = _model_for(scenario)  # validates the scenario, once per object
    tol = scenario.tolerance if tolerance is None else tolerance
    coordinated = run_coordinated(scenario)
    with model.lock:
        joint = _joint_lp(model)
        ideal = _solve_joint(scenario, *joint)
        residual, objective = joint[0].evaluate(_coordinated_point(scenario, coordinated, joint))
    max_dev = max(residual, abs(objective - ideal.objective))

    rows = [EquivalenceRow("dso_exchange", ideal.net_export, coordinated.iso.dso_awards[0])]
    rows += [EquivalenceRow(wp.id, ideal.cleared[wp.id], coordinated.iso.cleared[wp.id])
             for wp in scenario.wholesale]
    rows += [EquivalenceRow(agg.id, ideal.aggregator_dispatch[agg.id],
                            coordinated.dso_dispatch.by_aggregator[agg.id])
             for agg in scenario.aggregators]
    report = EquivalenceReport(
        passed=max_dev <= tol,
        max_deviation=max_dev,
        primal_residual=residual,
        tolerance=tol,
        objective_ideal=ideal.objective,
        objective_coordinated=objective,
        rows=tuple(rows),
    )
    return replace(coordinated, ideal=ideal, equivalence=report)
