"""Minimal LP representation with primal and dual solutions.

Solving goes through scipy's HiGHS binding. On its first solve a
``LinearProgram`` is compiled to column-wise sparse arrays and loaded into
one HiGHS instance that the program keeps. Each constraint is a range row
``row_lower <= a.x <= row_upper``: ``==`` rows are (rhs, rhs), ``<=`` rows
(-inf, rhs) and ``>=`` rows (rhs, +inf). A new objective keeps the loaded
model, so the next solve starts from the previous basis; a new variable or
constraint discards it.

An optimal answer is checked by its residual and duality gap. Any other
verdict is taken from a run without a starting basis and without presolve
(see ``linprog``), so a re-solve and a fresh solve of an LP agree on it.

Duals are reported in shadow price convention: for a minimization, the dual
of any constraint is the right-derivative of the optimal objective with
respect to that constraint's rhs. HiGHS reports row duals that way for all
three relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

try:
    from scipy.optimize._highspy._core import (
        HighsBasisStatus,
        HighsLp,
        HighsModelStatus,
        HighsStatus,
        MatrixFormat,
        _Highs,
    )
except ImportError as exc:  # private scipy module, present from scipy 1.15 on
    raise ImportError(
        "gridcoord needs scipy>=1.15: it solves LPs through the HiGHS binding "
        "scipy.optimize._highspy._core"
    ) from exc

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

DEFAULT_TOLERANCE = 1e-7  # absolute, on constraint residuals and the duality gap

LEQ = "<="
EQ = "=="
GEQ = ">="


class SolverError(RuntimeError):
    """Backend failed to classify the problem (numerical trouble, limits)."""


class InfeasibleError(RuntimeError):
    """Raised by callers that require an optimal solution and got none."""


class LinearProgram:
    """Named variables, {<=,==,>=} constraints, minimize a linear objective."""

    def __init__(self):
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._con_index: dict[str, int] = {}
        # Constraint matrix in coordinate form, one entry per coefficient.
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._rhs: list[float] = []
        self._row_lower: list[float] = []
        self._row_upper: list[float] = []
        self._objective: dict[str, float] = {}
        self.objective_constant = 0.0
        self._backend: _Backend | None = None  # built by the first solve

    @property
    def variables(self) -> list[str]:
        return list(self._var_names)

    @property
    def constraints(self) -> list[str]:
        return list(self._con_index)

    def add_variable(self, name: str, lower: float = -math.inf, upper: float = math.inf) -> str:
        if name in self._var_index:
            raise ValueError(f"variable {name!r} already declared")
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        self._var_index[name] = len(self._var_names)
        self._var_names.append(name)
        self._lower.append(lower)
        self._upper.append(upper)
        self._backend = None
        return name

    def add_constraint(self, name: str, coeffs: dict[str, float], relation: str, rhs: float) -> str:
        if name in self._con_index:
            raise ValueError(f"constraint {name!r} already declared")
        if relation not in (LEQ, EQ, GEQ):
            raise ValueError(f"constraint {name!r}: unknown relation {relation!r}")
        try:
            cols = [self._var_index[var] for var in coeffs]
        except KeyError as exc:
            raise ValueError(
                f"constraint {name!r} references undeclared variable {exc.args[0]!r}") from None
        vals = [float(coef) for coef in coeffs.values()]
        rhs = float(rhs)
        row = len(self._con_index)
        self._con_index[name] = row
        self._rows.extend([row] * len(cols))
        self._cols.extend(cols)
        self._vals.extend(vals)
        self._rhs.append(rhs)
        self._row_lower.append(-math.inf if relation == LEQ else rhs)
        self._row_upper.append(math.inf if relation == GEQ else rhs)
        self._backend = None
        return name

    def set_objective(self, coeffs: dict[str, float], constant: float = 0.0) -> None:
        for var in coeffs:
            if var not in self._var_index:
                raise ValueError(f"objective references undeclared variable {var!r}")
        self._objective = dict(coeffs)
        self.objective_constant = float(constant)


class _Backend:
    """A LinearProgram's arrays and the HiGHS instance they are loaded into.

    The arrays are gridcoord's own copy of the model: the residual and
    duality-gap checks in ``solve`` read them, not HiGHS's echo of them.
    """

    def __init__(self, prog: LinearProgram):
        n, m = len(prog._var_names), len(prog._con_index)
        self.rows = np.array(prog._rows, dtype=np.int32)
        self.cols = np.array(prog._cols, dtype=np.int32)
        self.vals = np.array(prog._vals, dtype=float)
        self.rhs = np.array(prog._rhs, dtype=float)
        self.row_lower = np.array(prog._row_lower, dtype=float)
        self.row_upper = np.array(prog._row_upper, dtype=float)
        self.lower = np.array(prog._lower, dtype=float)
        self.upper = np.array(prog._upper, dtype=float)
        self.col_ids = np.arange(n, dtype=np.int32)

        model = HighsLp()
        model.num_col_, model.num_row_ = n, m
        model.col_cost_ = np.zeros(n)
        model.col_lower_, model.col_upper_ = self.lower, self.upper
        model.row_lower_, model.row_upper_ = self.row_lower, self.row_upper
        matrix = model.a_matrix_
        matrix.format_ = MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = n, m
        order = np.argsort(self.cols, kind="stable")  # rows stay ascending within a column
        matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(self.cols, minlength=n))))
        matrix.index_ = self.rows[order]
        matrix.value_ = self.vals[order]

        self.highs = _Highs()
        self.highs.setOptionValue("output_flag", False)
        if self.highs.passModel(model) == HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")


class _Run(NamedTuple):
    status: HighsModelStatus
    objective: float
    nit: int  # simplex iterations of this run


def linprog(highs: _Highs) -> _Run:
    """Run HiGHS on its loaded model, starting from its current basis.

    A run that does not end optimal is repeated once on a freshly loaded
    copy of the model with presolve off, and that run's status is returned,
    so the verdict does not depend on earlier solves. Warm starts and
    presolve can both misjudge an LP that is not optimal: HiGHS 1.12
    reports ``kUnknown`` on some warm re-solves whose new objective is
    unbounded, and its presolve reports some feasible, unbounded LPs as
    infeasible.

    ``solve`` calls this exactly once per backend solve. It keeps the name
    of the ``scipy.optimize.linprog`` call that preceded the persistent
    instance because the benchmark's tracer (``bench/tracing.py``) wraps
    ``gridcoord.lp.linprog`` as the HiGHS layer and reads ``nit`` from its
    result.
    """
    highs.run()
    info = highs.getInfo()
    nit = info.simplex_iteration_count
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        highs.passModel(highs.getLp())  # drops the basis and all solver state
        highs.setOptionValue("presolve", "off")
        highs.run()
        highs.setOptionValue("presolve", "choose")
        info = highs.getInfo()
        nit += info.simplex_iteration_count
    return _Run(highs.getModelStatus(), info.objective_function_value, nit)


@dataclass
class LpSolution:
    status: str
    objective: float = math.nan
    primal: dict[str, float] = field(default_factory=dict)
    dual: dict[str, float] = field(default_factory=dict)
    duality_gap: float = math.nan
    max_residual: float = math.nan

    def __bool__(self) -> bool:
        return self.status == OPTIMAL


# Running record of solve quality, so a test run can assert the duality gap
# stayed within tolerance on every solve it triggered.
_gap_stats = {"solves": 0, "max_gap": 0.0, "max_residual": 0.0}


def solve_stats() -> dict[str, float]:
    return dict(_gap_stats)


def solve(lp: LinearProgram, tolerance: float = DEFAULT_TOLERANCE) -> LpSolution:
    """Solve ``lp``; Optimal solutions carry primal, duals, and the duality gap.

    Infeasible/unbounded come back as statuses; anything the backend cannot
    classify raises SolverError. Not reentrant: each call updates the
    process-wide ``solve_stats`` and ``lp``'s HiGHS instance, so one
    LinearProgram must not be solved from two threads at once.
    """
    nvar = len(lp._var_names)
    if nvar == 0:
        return LpSolution(status=OPTIMAL, objective=lp.objective_constant,
                          duality_gap=0.0, max_residual=0.0)
    if lp._backend is None:
        lp._backend = _Backend(lp)
    backend = lp._backend
    highs = backend.highs

    c = np.zeros(nvar)
    for var, coef in lp._objective.items():
        c[lp._var_index[var]] = coef
    highs.changeColsCost(nvar, backend.col_ids, c)
    run = linprog(highs)
    if run.status == HighsModelStatus.kInfeasible:
        return LpSolution(status=INFEASIBLE)
    if run.status == HighsModelStatus.kUnbounded:
        return LpSolution(status=UNBOUNDED)
    if run.status != HighsModelStatus.kOptimal:
        raise SolverError(f"backend status {highs.modelStatusToString(run.status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    y = np.array(solution.row_dual)
    reduced = np.array(solution.col_dual)

    # Dual objective: y'b plus reduced-cost terms at the finite bound each
    # nonbasic column sits at; other columns contribute nothing (no 0 * inf).
    status = np.array(highs.getBasis().col_status, dtype=np.int8)
    at_lower = (status == int(HighsBasisStatus.kLower)) & np.isfinite(backend.lower)
    at_upper = (status == int(HighsBasisStatus.kUpper)) & np.isfinite(backend.upper)
    dual_obj = (y @ backend.rhs + reduced[at_lower] @ backend.lower[at_lower]
                + reduced[at_upper] @ backend.upper[at_upper])
    gap = abs(run.objective - float(dual_obj))

    lhs = np.bincount(backend.rows, weights=backend.vals * x[backend.cols],
                      minlength=len(backend.rhs))
    max_residual = float(np.max(np.maximum(backend.row_lower - lhs, lhs - backend.row_upper),
                                initial=0.0))

    _gap_stats["solves"] += 1
    _gap_stats["max_gap"] = max(_gap_stats["max_gap"], gap)
    _gap_stats["max_residual"] = max(_gap_stats["max_residual"], max_residual)
    if max_residual > max(100 * tolerance, 1e-9):
        raise SolverError(f"optimal solution violates constraints by {max_residual:g}")
    if gap > max(100 * tolerance, 1e-9):
        raise SolverError(f"duality gap {gap:g} exceeds tolerance")

    return LpSolution(
        status=OPTIMAL,
        objective=run.objective + lp.objective_constant,
        primal=dict(zip(lp._var_names, x.tolist())),
        dual=dict(zip(lp._con_index, y.tolist())),
        duality_gap=gap,
        max_residual=max_residual,
    )
