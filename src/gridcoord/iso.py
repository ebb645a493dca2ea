"""Single-period wholesale clearing on one balance bus.

Generators and demand bids enter block by block, through ``add_wholesale``
and ``read_wholesale``, which the joint LP of ``coordination`` uses too;
each distribution operator enters through its convex bid curve, decomposed
into one bounded variable per segment so the LP fills cheap segments first.
The clearing price is the dual of the balance constraint.

The clearing LP of one stack (the wholesale participants and the curves) is
compiled once and kept in a one-slot cache keyed by the identity (``is``) of
every participant and every curve, so a sweep over firm loads against one
curve object reuses it. Each call still solves: it moves the ``balance`` rhs
and restarts the LP cold, so its answer is bit-for-bit that of a fresh
compile and never depends on earlier calls. Calls take turns on the LP's
lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from . import lp as lpmod
from .dso import BidCurve
from .lp import InfeasibleError, SolverError
from .model import DR, WholesaleParticipant


@dataclass(frozen=True)
class IsoOutcome:
    cleared: dict[str, float]            # participant id -> MW, consumption positive for DR
    blocks: dict[str, tuple[float, ...]]
    dso_awards: tuple[float, ...]        # signed net export per submitted curve
    dso_segment_fill: tuple[tuple[float, ...], ...]
    clearing_price: float
    objective: float                     # $/h, includes each curve's cost at its minimum


def add_wholesale(prog: lpmod.LinearProgram, wholesale: tuple[WholesaleParticipant, ...],
                  balance: dict[str, float], objective: dict[str, float]
                  ) -> tuple[tuple[str, ...], ...]:
    """Add each participant's block variables to ``prog``, and their terms
    (+1 supply, -1 demand) to the ``balance`` row and ``objective`` being built.

    Returns each participant's block variables, for ``read_wholesale``.
    """
    block_vars = []
    for wp in wholesale:
        sign = -1.0 if wp.kind == DR else 1.0
        names = []
        for b, blk in enumerate(wp.offers.blocks):
            name = prog.add_variable(f"{wp.id}[{b}]", 0.0, blk.p_max)
            balance[name] = sign
            objective[name] = sign * blk.price
            names.append(name)
        block_vars.append(tuple(names))
    return tuple(block_vars)


def read_wholesale(sol: lpmod.LpSolution, wholesale: tuple[WholesaleParticipant, ...],
                   block_vars: tuple[tuple[str, ...], ...]
                   ) -> tuple[dict[str, float], dict[str, tuple[float, ...]]]:
    """Cleared MW and block fills per participant id, from an optimal ``sol``."""
    blocks = {wp.id: tuple(sol.primal[name] for name in names)
              for wp, names in zip(wholesale, block_vars)}
    return {wp_id: sum(values) for wp_id, values in blocks.items()}, blocks


class _Clearing:
    """The compiled clearing LP of one stack, with the names it reads back."""

    def __init__(self, wholesale: tuple[WholesaleParticipant, ...],
                 curves: tuple[BidCurve, ...]):
        for k, curve in enumerate(curves):
            problems = curve.violations()
            if problems:
                raise ValueError(f"dso curve {k}: " + "; ".join(problems))
        self.wholesale, self.curves = wholesale, curves
        self.lock = threading.Lock()

        prog = self.prog = lpmod.LinearProgram()
        objective: dict[str, float] = {}
        balance: dict[str, float] = {}
        constant = 0.0

        self.block_vars = add_wholesale(prog, wholesale, balance, objective)

        self.seg_vars: list[tuple[str, ...]] = []
        for k, curve in enumerate(curves):
            constant += curve.breakpoints[0][1]
            names = []
            for i, seg in enumerate(curve.segments):
                name = prog.add_variable(f"dso{k}.seg[{i}]", 0.0, seg.q_hi - seg.q_lo)
                balance[name] = 1.0
                objective[name] = seg.price
                names.append(name)
            self.seg_vars.append(tuple(names))

        prog.add_constraint("balance", balance, lpmod.EQ, 0.0)  # rhs set per call
        prog.set_objective(objective, constant=constant)

    def serves(self, wholesale, curves) -> bool:
        return (len(wholesale) == len(self.wholesale) and len(curves) == len(self.curves)
                and all(a is b for a, b in zip(wholesale, self.wholesale))
                and all(a is b for a, b in zip(curves, self.curves)))


_slot: _Clearing | None = None
_slot_lock = threading.Lock()


def _clearing_for(wholesale, curves) -> _Clearing:
    """The compiled LP of this stack (these very objects), compiling it on a miss."""
    global _slot
    with _slot_lock:
        if _slot is None or not _slot.serves(wholesale, curves):
            _slot = _Clearing(tuple(wholesale), tuple(curves))
        return _slot


def clear(
    wholesale: list[WholesaleParticipant] | tuple[WholesaleParticipant, ...],
    dso_curves: list[BidCurve] | tuple[BidCurve, ...],
    firm_load: float,
) -> IsoOutcome:
    """Welfare-maximizing dispatch against the single power balance.

    Raises ValueError on a non-convex curve, InfeasibleError when supply
    cannot cover the firm load, and SolverError on an unbounded problem
    (impossible with bounded stacks, so treated as an internal error).
    """
    stack = _clearing_for(wholesale, dso_curves)
    rhs = firm_load
    for curve in stack.curves:
        rhs -= curve.q_min
    with stack.lock:
        stack.prog.set_rhs("balance", rhs)
        stack.prog.restart()
        sol = lpmod.solve(stack.prog)
    if sol.status == lpmod.INFEASIBLE:
        raise InfeasibleError("clearing infeasible: supply cannot meet the firm load")
    if sol.status == lpmod.UNBOUNDED:
        raise SolverError("internal error: clearing problem unbounded despite bounded stacks")

    cleared, blocks = read_wholesale(sol, stack.wholesale, stack.block_vars)
    awards = []
    fills = []
    for curve, names in zip(stack.curves, stack.seg_vars):
        fill = tuple(sol.primal[name] for name in names)
        fills.append(fill)
        awards.append(curve.q_min + sum(fill))

    return IsoOutcome(
        cleared=cleared,
        blocks=blocks,
        dso_awards=tuple(awards),
        dso_segment_fill=tuple(fills),
        clearing_price=sol.dual["balance"],
        objective=sol.objective,
    )
