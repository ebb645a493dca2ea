"""Single-period wholesale clearing on one balance bus.

Generators and demand bids enter block by block; each distribution operator
enters through its convex bid curve, decomposed into one bounded variable
per segment so the LP fills cheap segments first. The clearing price is the
dual of the balance constraint.
"""

from __future__ import annotations

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
    for k, curve in enumerate(dso_curves):
        problems = curve.violations()
        if problems:
            raise ValueError(f"dso curve {k}: " + "; ".join(problems))

    prog = lpmod.LinearProgram()
    objective: dict[str, float] = {}
    balance: dict[str, float] = {}
    rhs = firm_load
    constant = 0.0

    for wp in wholesale:
        sign = -1.0 if wp.kind == DR else 1.0
        for b, blk in enumerate(wp.offers.blocks):
            name = prog.add_variable(f"{wp.id}[{b}]", 0.0, blk.p_max)
            balance[name] = sign
            objective[name] = sign * blk.price

    seg_vars: list[list[str]] = []
    for k, curve in enumerate(dso_curves):
        rhs -= curve.q_min
        constant += curve.breakpoints[0][1]
        names = []
        for i, seg in enumerate(curve.segments):
            name = prog.add_variable(f"dso{k}.seg[{i}]", 0.0, seg.q_hi - seg.q_lo)
            balance[name] = 1.0
            objective[name] = seg.price
            names.append(name)
        seg_vars.append(names)

    prog.add_constraint("balance", balance, lpmod.EQ, rhs)
    prog.set_objective(objective, constant=constant)
    sol = lpmod.solve(prog)
    if sol.status == lpmod.INFEASIBLE:
        raise InfeasibleError("clearing infeasible: supply cannot meet the firm load")
    if sol.status == lpmod.UNBOUNDED:
        raise SolverError("internal error: clearing problem unbounded despite bounded stacks")

    cleared: dict[str, float] = {}
    blocks: dict[str, tuple[float, ...]] = {}
    for wp in wholesale:
        values = tuple(sol.primal[f"{wp.id}[{b}]"] for b in range(len(wp.offers.blocks)))
        blocks[wp.id] = values
        cleared[wp.id] = sum(values)

    awards = []
    fills = []
    for k, curve in enumerate(dso_curves):
        fill = tuple(sol.primal[name] for name in seg_vars[k])
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
