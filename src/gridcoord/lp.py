"""Minimal LP representation with primal and dual solutions.

Columns and rows are addressed by the integer index that ``add_variable``
and ``add_constraint`` return, in the order they were added; callers keep
their own indices (``distflow.DistFlowVars``, say).

Solving goes through scipy's HiGHS binding. Only the binding's extension
file is loaded (``_load_core``), so importing gridcoord does not import
``scipy.optimize`` and its start-up cost. A ``LinearProgram`` is compiled
to arrays on first use and, on its first solve, loaded into one HiGHS
instance that it keeps (``_Backend``). The program is in equality
form: minimize c.x subject to A x = b and l <= x <= u. Every row is an
equality ``a.x = rhs`` and every limit is a variable bound; an inequality
is written as an equality plus a slack column bounded on one side
(``a.x + s = b`` with ``s >= 0`` for ``a.x <= b``), a limit on an affine
expression the same way with the slack bounded by the limit. A new
objective or new variable bounds keep the compiled model, so the next solve
starts from the previous basis; a new variable or constraint discards it.
A parameter on a row's rhs is written as a column with pinned bounds
(``set_bounds(j, q, q)``).
Presolve is off for every run (``_Backend.load``), so every cold solve
(the first after a compile, and each after ``restart``) starts from HiGHS's
slack basis and runs the simplex on the LP as written. ``restart`` keeps
the model but drops the basis and all solver state, so the next solve
starts over exactly as on a freshly compiled copy. ``dso.compiled`` keeps
each compiled program across public calls and restarts it at the start of
each: a compiled structure is reused, but no answer depends on the calls
that came before (a warm re-solve can land on another optimal vertex or
dual where the optimum is not unique). Pricing is Devex (see ``_Backend``).

``dual_bound``, the Lagrangian bound of row duals, is the one optimality
certificate. ``solve`` holds an optimal answer to ``SOLVE_BOUND`` by its
residual and by its duality gap, its objective's distance from the
``dual_bound`` of its own duals. Any other verdict is taken from a run on
a freshly loaded model (see ``linprog``), so a re-solve and a fresh solve
of an LP agree on it. ``evaluate`` measures a point found some other way
against the rows and the variable bounds, and scores it; ``dual_bound``
scores row duals found some other way. A point that meets every row and
bound and scores within a tolerance of that bound is optimal within it, so
the pair certifies an outcome without a solve.

Duals are reported in shadow price convention: for a minimization, the dual
of any constraint is the derivative of the optimal objective with respect
to that constraint's rhs where that derivative exists. At a kink of the
optimal value in the rhs, it is some value between the left and the right
derivative, picked by the optimal basis. HiGHS reports row duals that way.
An equality row's dual may take either sign.

An ``LpSolution`` carries its numbers as arrays: ``x`` by column index,
``y`` by row index. The cost vector is built, and lifted by its power of
two, once per new objective (setting an equal one keeps it), and is sent to
HiGHS only when it is not the one HiGHS already holds.
``cost_range`` reads, from the basis and reduced costs of the last optimal
solve, the range of one column's cost over which that basis stays optimal:
one row of B^-1 A, then a ratio test over the nonbasic columns.
It replaces HiGHS's ``getRanging``, which ranges every row and column.

``linprog`` reads the status, objective and iteration count one value at a
time instead of copying HiGHS's whole info record. It keeps its name and
its ``nit`` field because the benchmark's tracer (``bench/tracing.py``)
wraps ``gridcoord.lp.linprog`` by that name as the HiGHS layer and reads
``nit`` as its iteration count.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

_CORE = "scipy.optimize._highspy._core"  # private scipy module, present from scipy 1.15 on


def _load_core():
    """Import scipy's HiGHS extension module without running its packages.

    ``import scipy.optimize._highspy._core`` would first run the
    ``__init__`` of ``scipy`` and ``scipy.optimize``, which takes far longer
    than the extension itself. The file is looked up under scipy's install
    directory instead and registered under its full name, so a later
    ``import scipy.optimize`` reuses this module object. As with ``import``,
    a module already in ``sys.modules`` is reused and a ``None`` entry there
    blocks the import.
    """
    for name in ("scipy", "scipy.optimize", "scipy.optimize._highspy", _CORE):
        if name in sys.modules and sys.modules[name] is None:
            raise ImportError(f"import of {name} halted; None in sys.modules")
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or scipy.submodule_search_locations is None:
        raise ImportError("no scipy package found")
    spec = importlib.machinery.PathFinder.find_spec(
        _CORE, [os.path.join(path, "optimize", "_highspy")
                for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"no {_CORE} in {list(scipy.submodule_search_locations)}")
    core = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


try:
    _core = _load_core()
    HighsLp, HighsModelStatus, HighsStatus, MatrixFormat, _Highs = (
        _core.HighsLp, _core.HighsModelStatus, _core.HighsStatus, _core.MatrixFormat,
        _core._Highs)
except (ImportError, AttributeError) as exc:
    raise ImportError(
        f"gridcoord needs scipy>=1.15: it solves LPs through the HiGHS binding {_CORE}"
    ) from exc

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

SOLVE_BOUND = 1e-5  # absolute, on an optimal solve's constraint residual and duality gap


class SolverError(RuntimeError):
    """Backend failed to classify the problem (numerical trouble, limits)."""


class InfeasibleError(RuntimeError):
    """Raised by callers that require an optimal solution and got none."""


def _check_bounds(lower: float, upper: float) -> None:
    if not (lower <= upper and lower < math.inf and upper > -math.inf):
        raise ValueError(f"bounds [{lower}, {upper}] admit no finite value")


def _check_finite(coeffs: dict[int, float], what: str) -> None:
    """Raise ValueError naming the first index whose coefficient is nan or infinite."""
    if not math.isfinite(sum(coeffs.values())):  # one C-level screen: nan, inf or overflow
        for j, coef in coeffs.items():
            if not math.isfinite(coef):
                raise ValueError(f"{what} {j}: {coef} is not finite")


def _check_indices(indices: Iterable[int], count: int, what: str) -> None:
    for k in indices:
        if not 0 <= k < count:
            raise ValueError(f"undeclared {what} {k!r}")


class LinearProgram:
    """Indexed bounded variables, equality constraints, minimize a linear objective."""

    def __init__(self):
        self._lower: list[float] = []
        self._upper: list[float] = []
        # Constraint matrix in coordinate form, one entry per coefficient.
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._rhs: list[float] = []
        self._objective: dict[int, float] = {}
        self._cost: tuple[np.ndarray, float] | None = None  # built on first use (_lifted_cost)
        self._backend: _Backend | None = None  # built on first use (_compiled)

    @property
    def n_cols(self) -> int:
        return len(self._lower)

    def add_variable(self, lower: float = -math.inf, upper: float = math.inf) -> int:
        """Add a column with bounds [lower, upper] and return its index."""
        _check_bounds(lower, upper)
        self._lower.append(lower)
        self._upper.append(upper)
        self._cost = self._backend = None
        return len(self._lower) - 1

    def add_constraint(self, coeffs: dict[int, float], rhs: float) -> int:
        """Add the row ``sum(coeffs[j] * x[j]) == rhs``, all finite, and return its index."""
        _check_indices(coeffs, self.n_cols, "variable")
        _check_finite(coeffs, "coefficient of variable")
        vals = [float(coef) for coef in coeffs.values()]
        rhs = float(rhs)
        row = len(self._rhs)
        if not math.isfinite(rhs):
            raise ValueError(f"rhs of constraint {row}: {rhs} is not finite")
        self._rows.extend([row] * len(vals))
        self._cols.extend(coeffs)
        self._vals.extend(vals)
        self._rhs.append(rhs)
        self._backend = None
        return row

    def set_objective(self, coeffs: dict[int, float]) -> None:
        """Minimize ``sum(coeffs[j] * x[j])``; a cost that is not finite raises ValueError."""
        _check_indices(coeffs, self.n_cols, "variable")
        if coeffs != self._objective:  # an equal objective keeps its built cost vector
            _check_finite(coeffs, "objective coefficient of variable")
            self._objective = dict(coeffs)
            self._cost = None

    def _lifted_cost(self) -> tuple[np.ndarray, float]:
        """The cost vector HiGHS is given and the power of two it was lifted by.

        HiGHS's reduced-cost tolerance is an absolute 1e-7, so costs below 1
        ($/kWh, say) are lifted by a power of two, which the duals and the
        objective undo exactly. Built once per objective.
        """
        if self._cost is None:
            c = np.zeros(self.n_cols)
            for j, coef in self._objective.items():
                c[j] = coef
            top = float(np.max(np.abs(c), initial=0.0))
            scale = math.ldexp(1.0, 1 - math.frexp(top)[1]) if 0.0 < top < 1.0 else 1.0
            self._cost = (c * scale, scale)
        return self._cost

    def set_bounds(self, j: int, lower: float, upper: float) -> None:
        """Move column j's bounds; a compiled program keeps its model and basis."""
        _check_indices((j,), self.n_cols, "variable")
        _check_bounds(lower, upper)
        self._lower[j], self._upper[j] = float(lower), float(upper)
        backend = self._backend
        if backend is not None:
            backend.lower[j], backend.upper[j] = lower, upper
            if backend.highs is not None:
                backend.highs.changeColBounds(j, backend.lower[j], backend.upper[j])

    def restart(self) -> None:
        """Drop the solver state, so the next solve starts cold; the compiled model stays.

        That solve starts from the slack basis, as the first solve of a
        fresh compile does.
        """
        if self._backend is not None and self._backend.highs is not None:
            self._backend.highs.clearSolver()

    def _compiled(self) -> _Backend:
        if self._backend is None:
            self._backend = _Backend(self)
        return self._backend

    def evaluate(self, x: np.ndarray) -> tuple[float, float]:
        """Largest row-or-bound violation of the point ``x`` and its objective value.

        ``x`` holds one value per column, by index; rows are held to their
        rhs as in the residual of ``solve``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_cols,):
            raise ValueError(f"point has shape {x.shape}, not the program's ({self.n_cols},)")
        b = self._compiled()
        violation = float(np.max((  # NaN if either term is, unlike max()
            np.max(np.maximum(b.lower - x, x - b.upper), initial=0.0),
            b.row_violation(x),
        )))
        values = x.tolist()
        objective = sum(coef * values[j] for j, coef in self._objective.items())
        return violation, objective

    def dual_bound(self, y: np.ndarray) -> float:
        """The Lagrangian bound of the row duals ``y``: no feasible point scores below it.

        ``y`` holds one dual per row, by index, in the shadow-price convention
        of ``solve``. With the reduced costs d = c - A'y, the bound is y.b
        plus the least value of d.x over x within the variable bounds: each
        reduced cost takes the bound its sign presses on (the lower for
        d > 0, the upper for d < 0). Every row is an equality, so a row dual
        of either sign is feasible and its term is exact. A reduced cost
        pressing on an infinite bound makes the bound -inf, unless it is
        rounding noise: one within 1e-12 of |c_j| + sum_i |a_ij y_i| (the
        terms it is summed from) is taken as 0 there. It is the dual
        counterpart of ``evaluate``: a point that meets every row and bound
        and scores the bound is optimal (weak duality).
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (len(self._rhs),):
            raise ValueError(f"duals have shape {y.shape}, not the program's ({len(self._rhs)},)")
        b = self._compiled()
        cost, scale = self._lifted_cost()  # lifted by a power of two, so undone exactly
        cost = cost / scale
        terms = b.vals * y[b.rows]
        reduced = cost - np.bincount(b.cols, weights=terms, minlength=self.n_cols)
        priced = y != 0.0  # zero terms would still regroup the dot product's rounding
        side = np.where(reduced > 0.0, b.lower, b.upper)
        keep = reduced != 0.0
        bound = float(reduced[keep] @ side[keep])
        if not math.isfinite(bound):  # a reduced cost met an infinite side: is it noise?
            noise = 1e-12 * (np.abs(cost) + np.bincount(b.cols, weights=np.abs(terms),
                                                        minlength=self.n_cols))
            keep &= np.isfinite(side) | (np.abs(reduced) > noise)
            bound = float(reduced[keep] @ side[keep])
        return float(y[priced] @ b.rhs[priced]) + bound


class _Backend:
    """A LinearProgram's arrays, and the HiGHS instance its first solve loads them into.

    The arrays are gridcoord's own copy of the model: ``evaluate``,
    ``dual_bound`` and ``solve``'s residual read them, not HiGHS's echo.
    HiGHS is told once, at the load, that presolve is off, so every cold
    run starts from its slack basis on the model as loaded.
    """

    def __init__(self, prog: LinearProgram):
        self.rows = np.array(prog._rows, dtype=np.intp)  # numpy's index type: no cast per use
        self.cols = np.array(prog._cols, dtype=np.intp)
        self.vals = np.array(prog._vals, dtype=float)
        self.rhs = np.array(prog._rhs, dtype=float)
        self.lower = np.array(prog._lower, dtype=float)
        self.upper = np.array(prog._upper, dtype=float)
        self.col_ids = np.arange(prog.n_cols, dtype=np.int32)
        self.cost: np.ndarray | None = None  # the cost vector HiGHS holds, once one is sent
        self.highs: _Highs | None = None  # loaded by the first solve

    def row_violation(self, x: np.ndarray) -> float:
        """Largest amount by which a row misses its rhs at the point x."""
        lhs = np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=len(self.rhs))
        return float(np.max(np.abs(lhs - self.rhs), initial=0.0))

    def load(self) -> _Highs:
        """Pass the arrays, under today's bounds, to a new HiGHS instance, and keep it."""
        n, m = len(self.lower), len(self.rhs)
        model = HighsLp()
        model.num_col_, model.num_row_ = n, m
        model.col_cost_ = np.zeros(n)
        model.col_lower_, model.col_upper_ = self.lower, self.upper
        model.row_lower_ = model.row_upper_ = self.rhs
        matrix = model.a_matrix_
        matrix.format_ = MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = n, m
        order = np.argsort(self.cols, kind="stable")  # rows stay ascending within a column
        matrix.start_ = np.concatenate(([0], np.cumsum(np.bincount(self.cols, minlength=n))))
        matrix.index_ = self.rows[order]
        matrix.value_ = self.vals[order]

        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        # Devex pricing: from the slack basis the 1,000-node joint LP took
        # 89-95 ms under Devex and 110-139 ms under HiGHS's default pricing
        # (median runs on a shared 2-CPU machine).
        # A rebuild always refactors: by default HiGHS keeps an updated
        # factor that its test solve passes, and under Devex the x read off
        # it can miss a row by 1e-13, which 1e8 duals ($/MWh x 1e6) turn
        # into a duality gap beyond the bound in ``solve``.
        highs.setOptionValue("simplex_dual_edge_weight_strategy", 1)
        highs.setOptionValue("no_unnecessary_rebuild_refactor", False)
        if highs.passModel(model) == HighsStatus.kError:
            raise SolverError("HiGHS rejected the model")
        self.highs = highs
        return highs


class _Run(NamedTuple):
    status: HighsModelStatus
    objective: float
    nit: int  # simplex iterations of this run


def linprog(highs: _Highs) -> _Run:
    """Run HiGHS on its loaded model, starting from its current basis.

    A run that does not end optimal is repeated once on a freshly loaded
    copy of the model, from the slack basis, and that run's status is
    returned, so the verdict does not depend on earlier solves: HiGHS 1.12
    reports ``kUnknown`` on some warm re-solves whose new objective is
    unbounded. Presolve, off since the load, would report some feasible,
    unbounded LPs as infeasible.

    ``solve`` calls this exactly once per backend solve; see the module
    docstring for why it keeps its name and ``nit``.
    """
    highs.run()
    nit = highs.getInfoValue("simplex_iteration_count")[1]
    if highs.getModelStatus() != HighsModelStatus.kOptimal:
        highs.passModel(highs.getLp())  # drops the basis and all solver state
        highs.run()
        nit += highs.getInfoValue("simplex_iteration_count")[1]
    return _Run(highs.getModelStatus(), highs.getObjectiveValue(), nit)


def _empty() -> np.ndarray:
    return np.zeros(0)


@dataclass(eq=False)
class LpSolution:
    """A solve's status and, when optimal, its values by column and row index.

    ``x`` (primal values) follows the program's columns, ``y`` (row duals)
    its rows.
    """

    status: str
    objective: float = math.nan
    duality_gap: float = math.nan
    max_residual: float = math.nan
    x: np.ndarray = field(default_factory=_empty, repr=False)
    y: np.ndarray = field(default_factory=_empty, repr=False)


# Running record of solve quality, so a test run can assert the duality gap
# stayed within tolerance on every solve it triggered.
_gap_stats = {"solves": 0, "max_gap": 0.0, "max_residual": 0.0}


def solve_stats() -> dict[str, float]:
    return dict(_gap_stats)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve ``lp``; Optimal solutions carry primal, duals, and the duality gap.

    Infeasible/unbounded come back as statuses; anything the backend cannot
    classify raises SolverError. Not reentrant: each call updates the
    process-wide ``solve_stats`` and ``lp``'s HiGHS instance, so one
    LinearProgram must not be solved from two threads at once.
    """
    nvar = lp.n_cols
    if nvar == 0:  # every row is a constant 0 against its rhs
        if any(rhs != 0.0 for rhs in lp._rhs):
            return LpSolution(status=INFEASIBLE)
        return LpSolution(status=OPTIMAL, objective=0.0, duality_gap=0.0, max_residual=0.0,
                          y=np.zeros(len(lp._rhs)))
    backend = lp._compiled()
    highs = backend.highs or backend.load()

    cost, scale = lp._lifted_cost()
    if backend.cost is not cost:
        highs.changeColsCost(nvar, backend.col_ids, cost)
        backend.cost = cost
    run = linprog(highs)
    if run.status == HighsModelStatus.kInfeasible:
        return LpSolution(status=INFEASIBLE)
    if run.status == HighsModelStatus.kUnbounded:
        return LpSolution(status=UNBOUNDED)
    if run.status != HighsModelStatus.kOptimal:
        raise SolverError(f"backend status {highs.modelStatusToString(run.status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    y = np.array(solution.row_dual) / scale
    gap = abs(run.objective / scale - lp.dual_bound(y))
    max_residual = backend.row_violation(x)

    _gap_stats["solves"] += 1
    _gap_stats["max_gap"] = max(_gap_stats["max_gap"], gap)
    _gap_stats["max_residual"] = max(_gap_stats["max_residual"], max_residual)
    if not max_residual <= SOLVE_BOUND:  # so a NaN fails too
        raise SolverError(f"optimal solution violates constraints by {max_residual:g}")
    if not gap <= SOLVE_BOUND:
        raise SolverError(f"duality gap {gap:g} exceeds tolerance")

    return LpSolution(
        status=OPTIMAL,
        objective=run.objective / scale,
        duality_gap=gap,
        max_residual=max_residual,
        x=x, y=y,
    )


def cost_range(lp: LinearProgram, sol: LpSolution, j: int) -> tuple[float, float] | None:
    """Costs of column ``j`` over which the basis of ``sol`` stays optimal.

    ``sol`` must be the last solve of ``lp`` and optimal. Moving column j's
    cost by d, with j basic in row r of the basis B, moves every reduced
    cost by -d times row r of B^-1 A (alpha, ``getReducedRow``). The basis
    stays optimal while each nonbasic column keeps the reduced-cost sign of
    the bound it sits on (>= 0 at a lower bound, <= 0 at an upper, 0 for a
    free column left at 0); fixed columns may take any. The row duals move
    too, but every row is an equality, whose dual may take either sign, so
    no row limits the range. The widest such interval of d comes from a
    ratio test over the columns. Returns the costs at its ends, or None when
    column j is nonbasic: such a column's cost range is one-sided and says
    nothing about where the optimum moves.
    """
    backend = lp._backend
    highs = backend.highs
    if highs.getNumNz() == 0:  # HiGHS solves such an LP without factorizing a basis
        return None
    basic = highs.getBasicVariables()[1]  # row i is coded as -1 - i
    r = np.flatnonzero(basic == j)
    if r.size == 0:
        return None
    alpha = highs.getReducedRow(int(r[0]))[1]

    at_lower, at_upper = sol.x == backend.lower, sol.x == backend.upper
    basic_cols = basic[basic >= 0]
    # A free column HiGHS left nonbasic at 0 pins its reduced cost to 0.
    off_bound = ~(at_lower | at_upper)
    off_bound[basic_cols] = False
    cost, scale = lp._lifted_cost()
    c = float(cost[j]) / scale
    if alpha[off_bound].any():
        return c, c
    # The sign each reduced cost must keep: +1 for >= 0, -1 for <= 0, 0
    # for any (basic and fixed columns).
    sign = at_lower * 1.0 - at_upper
    sign[basic_cols] = 0.0
    # Each entry of v + d * w must stay >= 0; HiGHS's own tolerance can
    # leave an entry of v a hair below 0, which is read as 0.
    v = np.maximum(sign * np.array(highs.getSolution().col_dual) / scale, 0.0)
    w = sign * -alpha
    up, down = w < 0.0, w > 0.0
    return (c + float(np.max(v[down] / -w[down], initial=-math.inf)),
            c + float(np.min(v[up] / -w[up], initial=math.inf)))
