"""Market coordination between a wholesale operator and distribution operators.

A distribution operator turns its aggregators' block offers and network
limits into a convex bid curve by parametric programming, the wholesale
market clears with that curve as one participant, and the award is
re-dispatched to the aggregators. The joint (direct participation) dispatch
serves as the equivalence oracle for the whole pipeline.
"""

from .caseio import BUNDLED_CASES, CaseFileError, parse_case
from .coordination import (
    CoordinationResult,
    EquivalenceReport,
    IdealOutcome,
    check_equivalence,
    run_coordinated,
    run_ideal,
)
from .distflow import DistFlowSolution, DistFlowVars, build_constraints
from .dso import (
    BidCurve,
    DsoDispatch,
    Segment,
    build_bid_curve,
    feasible_range,
    value_at,
)
from .iso import IsoOutcome, clear
from .lp import InfeasibleError, LinearProgram, LpSolution, SolverError, solve
from .model import (
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    ValidationError,
    WholesaleParticipant,
    derived_incidence,
    validate,
)

__version__ = "0.1.0"
