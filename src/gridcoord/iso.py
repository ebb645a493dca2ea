"""Single-period wholesale clearing on one balance bus, by merit order.

With one balance row over box-bounded blocks the clearing is a continuous
knapsack, so sorting the blocks by price and filling them up to the load
solves it exactly; no LP is built. Every block enters as supply:

- a generator block at its price;
- a demand (DR) block as unserved demand: supply at its bid price, with its
  full size added to the load, so serving the bid leaves the block empty;
- each segment of a distribution operator's convex bid curve at its price,
  with every curve's minimum export ``q_min`` taken off the load.

The sort is stable, so blocks at one price fill in declaration order:
wholesale participants first, then the curves. The clearing price is that
of the last block with positive fill, a dual of the balance row that prices
the marginal block; when no block fills it is the price of the cheapest
block of positive size (the highest valid dual), and with no such block it
is 0.0. Each call computes its answer from its arguments alone; only a
curve keeps its own checks and segments, once worked out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dso import BidCurve
from .lp import InfeasibleError
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

    Fills the blocks in merit order (a stable sort by price, so ties fill
    in declaration order) and prices the balance by the module's rule.
    Nothing is cached between calls but each curve's own checks and
    segments. Raises ValueError on a non-finite ``firm_load`` or a non-convex
    curve, and InfeasibleError when the load left after the curves' minimum
    exports is below 0 or above what the blocks can supply, by more than
    1e-9 of the quantities summed (a load at capacity may round past it).
    """
    if not math.isfinite(firm_load):
        raise ValueError(f"firm load must be finite, got {firm_load}")
    for k, curve in enumerate(dso_curves):
        problems = curve.violations()
        if problems:
            raise ValueError(f"dso curve {k}: " + "; ".join(problems))

    offers: list[tuple[float, float]] = []  # (price, size) per block, declaration order
    load, scale, objective = firm_load, abs(firm_load), 0.0
    for wp in wholesale:
        for blk in wp.offers.blocks:
            offers.append((blk.price, blk.p_max))
            if wp.kind == DR:  # the whole bid served, less what goes unserved
                load += blk.p_max
                objective -= blk.price * blk.p_max
    for curve in dso_curves:
        load -= curve.q_min
        scale += abs(curve.q_min)
        objective += curve.breakpoints[0][1]
        offers += [(seg.price, seg.q_hi - seg.q_lo) for seg in curve.segments]
    capacity = sum(size for _, size in offers)
    slack = 1e-9 * (scale + capacity)  # far above the rounding of the sums above
    if not -slack <= load <= capacity + slack:
        raise InfeasibleError("clearing infeasible: supply cannot meet the firm load")

    fill = [0.0] * len(offers)
    order = sorted((i for i, (_, size) in enumerate(offers) if size > 0),
                   key=lambda i: offers[i][0])
    price = float(offers[order[0]][0]) if order else 0.0
    for i in order:
        if load <= 0.0:
            break
        fill[i] = float(min(offers[i][1], load))
        load -= fill[i]
        price = float(offers[i][0])
    objective += sum(p * x for (p, _), x in zip(offers, fill))

    fills = iter(fill)
    blocks = {wp.id: tuple(blk.p_max - next(fills) if wp.kind == DR else next(fills)
                           for blk in wp.offers.blocks) for wp in wholesale}
    segment_fill = tuple(tuple(next(fills) for _ in curve.prices) for curve in dso_curves)

    return IsoOutcome(
        cleared={wp_id: float(sum(values)) for wp_id, values in blocks.items()},
        blocks=blocks,
        dso_awards=tuple(float(curve.q_min + sum(values))
                         for curve, values in zip(dso_curves, segment_fill)),
        dso_segment_fill=segment_fill,
        clearing_price=price,
        objective=objective,
    )
