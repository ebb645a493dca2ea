import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridcoord.lp as lp
from gridcoord.caseio import parse_case
from gridcoord.distflow import build_constraints, dispatch_cost_coeffs

from support import dso_cost_oracle


def test_min_x_above_three():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 10.0)
    surplus = prog.add_variable(0.0)
    floor = prog.add_constraint({x: 1.0, surplus: -1.0}, 3.0)  # x - s = 3, s >= 0: x >= 3
    prog.set_objective({x: 1.0})
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    # Shadow price convention: raising the rhs of x >= 3 raises the optimum 1:1.
    assert sol.y[floor] == pytest.approx(1.0, abs=1e-9)


def test_max_x_below_five():
    prog = lp.LinearProgram()
    x = prog.add_variable()
    slack = prog.add_variable(0.0)
    cap = prog.add_constraint({x: 1.0, slack: 1.0}, 5.0)  # x + s = 5, s >= 0: x <= 5
    prog.set_objective({x: -1.0})
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)
    assert sol.y[cap] == pytest.approx(-1.0, abs=1e-9)


def test_equality_dual_matches_marginal_cost():
    prog = lp.LinearProgram()
    a = prog.add_variable(0.0, 10.0)
    b = prog.add_variable(0.0, 10.0)
    demand = prog.add_constraint({a: 1.0, b: 1.0}, 4.0)
    prog.set_objective({a: 2.0, b: 3.0})
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(8.0)
    assert sol.y[demand] == pytest.approx(2.0)


def test_infeasible_and_unbounded_statuses():
    prog = lp.LinearProgram()
    x = prog.add_variable()
    surplus, slack = prog.add_variable(0.0), prog.add_variable(0.0)
    prog.add_constraint({x: 1.0, surplus: -1.0}, 2.0)  # x >= 2
    prog.add_constraint({x: 1.0, slack: 1.0}, 1.0)  # x <= 1
    prog.set_objective({x: 1.0})
    assert lp.solve(prog).status == lp.INFEASIBLE

    prog = lp.LinearProgram()
    x = prog.add_variable(0.0)
    prog.set_objective({x: -1.0})
    assert lp.solve(prog).status == lp.UNBOUNDED


def test_malformed_input_is_a_validation_failure():
    prog = lp.LinearProgram()
    x = prog.add_variable()
    with pytest.raises(ValueError, match="undeclared variable 1"):
        prog.add_constraint({x + 1: 1.0}, 0.0)
    with pytest.raises(ValueError, match="undeclared variable -1"):
        prog.set_objective({-1: 1.0})
    with pytest.raises(TypeError):  # every row is an equality: there is no relation to give
        prog.add_constraint({x: 1.0}, "<=", 0.0)
    with pytest.raises(ValueError, match="no finite value"):
        prog.add_variable(2.0, 1.0)
    assert prog.n_cols == 1 and prog._rhs == []  # nothing refused was added


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("lower, upper", [
    (2.0, 1.0), (NAN, 1.0), (0.0, NAN), (NAN, NAN), (INF, INF), (-INF, -INF), (INF, -INF),
])
def test_bounds_that_admit_no_finite_value_are_refused(lower, upper):
    prog = lp.LinearProgram()
    with pytest.raises(ValueError, match=r"admit no finite value"):
        prog.add_variable(lower, upper)
    x = prog.add_variable(0.0, 1.0)
    prog.set_objective({x: -1.0})
    assert lp.solve(prog).objective == -1.0
    with pytest.raises(ValueError, match=r"admit no finite value"):
        prog.set_bounds(x, lower, upper)
    assert (prog._lower, prog._upper) == ([0.0], [1.0])
    assert lp.solve(prog).objective == -1.0  # the compiled model kept its bounds too


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_a_coefficient_rhs_or_cost_that_is_not_finite_is_refused_by_index(bad):
    prog = lp.LinearProgram()
    x, y = prog.add_variable(0.0, 1.0), prog.add_variable(0.0, 1.0)
    with pytest.raises(ValueError, match=f"^rhs of constraint 0: {bad} is not finite$"):
        prog.add_constraint({x: 1.0}, bad)
    with pytest.raises(ValueError, match=f"^coefficient of variable 1: {bad} is not finite$"):
        prog.add_constraint({x: 1.0, y: bad}, 0.5)
    with pytest.raises(ValueError,
                       match=f"^objective coefficient of variable 1: {bad} is not finite$"):
        prog.set_objective({x: 1.0, y: bad})
    assert prog._rhs == [] and prog._vals == [] and prog._objective == {}  # nothing was added
    prog.add_constraint({x: 1.0, y: 1.0}, 0.5)
    prog.set_objective({x: -1.0, y: 1.0})
    assert lp.solve(prog).objective == -0.5


def test_finite_coefficients_whose_sum_overflows_are_accepted():
    prog = lp.LinearProgram()
    x, y = prog.add_variable(0.0, 1.0), prog.add_variable(0.0, 1.0)
    prog.add_constraint({x: 1e308, y: 1e308}, 1.0)
    prog.set_objective({x: 1e308, y: 1e308})
    assert prog._vals == [1e308, 1e308] and prog._objective == {x: 1e308, y: 1e308}


def test_dso_problem_objective_matches_brute_force_enumeration():
    # Independent oracle: enumerate vertex dispatches of the aggregator stack.
    scenario = parse_case("paper_reference")
    expected = dso_cost_oracle(scenario, 1.2)
    assert expected == pytest.approx(-32.0)  # 1*10 + 1.2*15 + 0.5*20 - 2.5*28

    prog, dvars = build_constraints(scenario.network, scenario.aggregators)
    prog.set_bounds(dvars.p_exchange, 1.2, 1.2)
    prog.set_objective(dispatch_cost_coeffs(scenario.aggregators))
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert sol.duality_gap <= 1e-7


def _random_box_lp(rng):
    """Random LP that is feasible by construction (constraints anchored at a point).

    Each row is a <= row, written as an equality with a slack column
    ``s >= 0``. Returns the program with its objective coefficients and the
    bounds of every column, the slacks' last.
    """
    prog = lp.LinearProgram()
    n = int(rng.integers(2, 6))
    anchor = rng.uniform(-2.0, 2.0, n)
    bounds = [(float(anchor[i] - rng.uniform(0.5, 3)), float(anchor[i] + rng.uniform(0.5, 3)))
              for i in range(n)]
    cols = [prog.add_variable(lo, hi) for lo, hi in bounds]
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {cols[i]: float(rng.normal()) for i in range(n) if rng.random() < 0.8}
        if not coeffs:
            continue
        lhs_at_anchor = sum(c * anchor[j] for j, c in coeffs.items())
        coeffs[prog.add_variable(0.0)] = 1.0
        bounds.append((0.0, math.inf))
        prog.add_constraint(coeffs, lhs_at_anchor + float(rng.uniform(0, 2)))
    objective = {j: float(rng.normal()) for j in cols}
    prog.set_objective(objective)
    return prog, objective, bounds


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_strong_duality_on_random_feasible_lps(seed):
    prog, _, _ = _random_box_lp(np.random.default_rng(seed))
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.duality_gap <= 1e-7
    assert sol.duality_gap == abs(sol.objective - prog.dual_bound(sol.y))  # the one certificate
    assert sol.max_residual <= 1e-7


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
def test_objective_scaling_rescales_optimum_and_keeps_argmin(seed, scale):
    prog, objective, bounds = _random_box_lp(np.random.default_rng(seed))
    base = lp.solve(prog)

    scaled, _, _ = _random_box_lp(np.random.default_rng(seed))  # identical rebuild
    scaled.set_objective({k: scale * v for k, v in objective.items()})
    re = lp.solve(scaled)
    assert re.objective == pytest.approx(scale * base.objective, rel=1e-7, abs=1e-7)
    # The scaled problem's argmin is optimal for the original objective too.
    for (lo, hi), value in zip(bounds, re.x.tolist(), strict=True):
        assert lo - 1e-9 <= value <= hi + 1e-9
    check = sum(objective.get(j, 0.0) * v for j, v in enumerate(re.x.tolist()))
    assert check == pytest.approx(base.objective, rel=1e-7, abs=1e-6)


@pytest.mark.parametrize("factor", [1.0, 1e-3, 1e3])  # $/MWh, $/kWh, k$/MWh
def test_offers_a_hundredth_of_a_cent_apart_clear_in_merit_order_in_any_price_unit(factor):
    # Two supplies 1e-4 $/MWh apart: in $/kWh their costs differ by 1e-7,
    # HiGHS's own reduced-cost tolerance.
    prog = lp.LinearProgram()
    offers = {"cheap": (9.36, 30.7524), "dear": (0.759, 30.7525), "dearest": (1.22, 34.4185)}
    cols = {name: prog.add_variable(0.0, p_max) for name, (p_max, _) in offers.items()}
    balance = prog.add_constraint(dict.fromkeys(cols.values(), 1.0), 9.731)
    prog.set_objective({cols[name]: price * factor for name, (_, price) in offers.items()})
    sol = lp.solve(prog)
    assert sol.x[cols["cheap"]] == 9.36
    assert sol.x[cols["dear"]] == pytest.approx(0.371, abs=1e-12)
    assert sol.x[cols["dearest"]] == 0.0
    assert sol.y[balance] == pytest.approx(30.7525 * factor, rel=1e-12)


@pytest.mark.parametrize("bad", ["residual", "gap"])
def test_a_nan_residual_or_gap_is_a_solver_error(monkeypatch, bad):
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 1.0)
    prog.add_constraint({x: 1.0, prog.add_variable(0.0): 1.0}, 1.0)
    prog.set_objective({x: 1.0})
    if bad == "residual":
        monkeypatch.setattr(lp._Backend, "row_violation", lambda self, x: math.nan)
        match = "violates constraints by nan"
    else:  # a NaN objective makes the gap NaN
        run = lp.linprog
        monkeypatch.setattr(lp, "linprog", lambda highs: run(highs)._replace(objective=math.nan))
        match = "duality gap nan"
    with pytest.raises(lp.SolverError, match=match):
        lp.solve(prog)


def test_solve_measures_its_gap_by_the_dual_bound_of_its_duals(monkeypatch):
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 1.0)
    prog.add_constraint({x: 1.0, prog.add_variable(0.0): 1.0}, 1.0)
    prog.set_objective({x: 1.0})  # optimum 0 at x = 0
    monkeypatch.setattr(lp.LinearProgram, "dual_bound", lambda self, y: -1e-6)
    # The suite holds every solve to 1e-7 (conftest.py), so this gap fails it.
    with pytest.raises(lp.SolverError, match="duality gap 1e-06 exceeds tolerance"):
        lp.solve(prog)
    monkeypatch.setattr(lp, "SOLVE_BOUND", 1e-5)
    assert lp.solve(prog).duality_gap == 1e-6
    monkeypatch.setattr(lp.LinearProgram, "dual_bound", lambda self, y: -1.0)
    with pytest.raises(lp.SolverError, match="duality gap 1 exceeds tolerance"):
        lp.solve(prog)


@pytest.fixture(scope="module")
def bound_in_a_module_fixture():
    return lp.SOLVE_BOUND


def test_the_suites_hold_is_in_force_in_module_fixtures(bound_in_a_module_fixture):
    # Module fixtures solve before any test's own fixtures are set up.
    assert bound_in_a_module_fixture == 1e-7


LEQ, EQ, GEQ = "<=", "==", ">="
SLACK_SIGN = {LEQ: 1.0, EQ: 0.0, GEQ: -1.0}  # a.x + sign * s = b with s >= 0


def _random_lp_data(rng, anchored):
    """Random LP as plain arrays: ==, <= and >= rows, some infinite bounds.

    Anchored LPs have every row satisfied at a point inside the bounds, so
    they are feasible; the others may be infeasible. Either may be unbounded.
    """
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    anchor = rng.uniform(-2.0, 2.0, n)
    lower = anchor - rng.uniform(0.5, 3.0, n)
    upper = anchor + rng.uniform(0.5, 3.0, n)
    lower[rng.random(n) < 0.3] = -np.inf
    upper[rng.random(n) < 0.3] = np.inf
    a = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.8)
    relations = [str(r) for r in rng.choice([LEQ, EQ, GEQ], m)]
    if anchored:
        rhs = a @ anchor + np.array([SLACK_SIGN[r] for r in relations]) * rng.uniform(0.0, 2.0, m)
    else:
        rhs = rng.normal(scale=3.0, size=m)
    return a, relations, rhs, lower, upper


def _equality_form(data):
    """``data``'s LP as ``A x = b`` and bounds: one slack column per <= or >= row.

    A <= row reads a.x + s = b and a >= row a.x - s = b, with s >= 0.
    Returns A, b, and the lower and upper bounds, by column: the original
    columns first, then the slacks in row order.
    """
    a, relations, rhs, lower, upper = data
    rows = [i for i, r in enumerate(relations) if r != EQ]
    slacks = np.zeros((len(rhs), len(rows)))
    slacks[rows, range(len(rows))] = [SLACK_SIGN[relations[i]] for i in rows]
    return (np.hstack((a, slacks)), rhs, np.concatenate((lower, np.zeros(len(rows)))),
            np.concatenate((upper, np.full(len(rows), np.inf))))


def _build_lp(data, c):
    """``data``'s LP in equality form, with the costs ``c`` on its original columns."""
    a, rhs, lower, upper = _equality_form(data)
    prog = lp.LinearProgram()
    cols = [prog.add_variable(float(lo), float(up)) for lo, up in zip(lower, upper)]
    for i in range(len(rhs)):
        prog.add_constraint({j: float(a[i, j]) for j in cols if a[i, j] != 0.0}, float(rhs[i]))
    prog.set_objective(dict(zip(cols, map(float, c))))
    return prog


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_resolve_after_new_objective_matches_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    data = _random_lp_data(rng, anchored=True)
    n = len(data[3])
    prog = _build_lp(data, rng.normal(size=n))
    lp.solve(prog)
    for _ in range(4):  # each re-solve starts from the previous one's basis
        c = rng.normal(size=n)
        prog.set_objective({j: float(c[j]) for j in range(n)})
        warm, fresh = lp.solve(prog), lp.solve(_build_lp(data, c))
        assert warm.status == fresh.status
        if fresh.status == lp.OPTIMAL:
            assert warm.objective == pytest.approx(fresh.objective, abs=1e-7)
            assert warm.duality_gap == pytest.approx(fresh.duality_gap, abs=1e-7)
            assert warm.max_residual <= 1e-7


def test_an_equal_objective_keeps_the_cost_vector_and_a_new_one_replaces_it():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 10.0)
    y = prog.add_variable(0.0, 10.0)
    prog.add_constraint({x: 1.0, y: 1.0, prog.add_variable(0.0): -1.0}, 4.0)  # x + y >= 4
    prog.set_objective({x: 1.0, y: 2.0})
    lp.solve(prog)
    sent = prog._backend.cost
    prog.set_objective({y: 2.0, x: 1.0})  # equal coefficients
    assert lp.solve(prog).objective == pytest.approx(4.0)
    assert prog._backend.cost is sent  # not built or sent to HiGHS again
    prog.set_objective({x: 3.0, y: 2.0})
    assert lp.solve(prog).objective == pytest.approx(8.0)
    assert prog._backend.cost is not sent


def test_new_variable_or_constraint_after_a_solve_takes_effect():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 10.0)
    y = prog.add_variable(0.0, 10.0)
    prog.add_constraint({x: 1.0, y: 1.0, prog.add_variable(0.0): -1.0}, 4.0)  # x + y >= 4
    prog.set_objective({x: 1.0, y: 2.0})
    assert lp.solve(prog).objective == pytest.approx(4.0)

    # x <= 1, binding: y takes the rest
    cap_x = prog.add_constraint({x: 1.0, prog.add_variable(0.0): 1.0}, 1.0)
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(7.0)
    assert sol.x[[x, y]].tolist() == pytest.approx([1.0, 3.0])
    assert sol.y[cap_x] == pytest.approx(-1.0)

    z = prog.add_variable(0.0, 3.0)
    prog.set_objective({x: 1.0, y: 2.0, z: -1.0})
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(4.0)
    assert sol.x[z] == pytest.approx(3.0)

    prog.add_constraint({z: 1.0, prog.add_variable(0.0): 1.0}, 2.0)  # z <= 2
    assert lp.solve(prog).objective == pytest.approx(5.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
@example(seed=487, anchored=False)  # unbounded; the oracle's own run cannot tell
def test_solve_agrees_with_scipy_linprog(seed, anchored):
    # Public API, used here only as an oracle. Presolve is off because it
    # reports some feasible, unbounded LPs as infeasible (see lp.linprog).
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    data = _random_lp_data(rng, anchored)
    a, relations, rhs, lower, upper = data
    c = rng.normal(size=len(lower))
    sign = np.array([SLACK_SIGN[r] for r in relations])
    ub, eq = sign != 0.0, sign == 0.0
    rows = dict(A_ub=sign[ub, None] * a[ub] if ub.any() else None,
                b_ub=sign[ub] * rhs[ub] if ub.any() else None,
                A_eq=a[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                bounds=list(zip(lower, upper)), method="highs", options={"presolve": False})
    oracle = linprog(c, **rows)
    prog = _build_lp(data, c)
    if oracle.status == 4:  # the oracle's pivots could not tell infeasible from unbounded
        try:
            status = lp.solve(prog).status
        except lp.SolverError:
            return
        # Another pricing rule may tell: then the feasibility LP must agree.
        feasible = linprog(np.zeros_like(c), **rows).status == 0
        assert status == (lp.UNBOUNDED if feasible else lp.INFEASIBLE)
        return
    sol = lp.solve(prog)
    assert sol.status == {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[oracle.status]
    if sol.status == lp.OPTIMAL:
        assert sol.objective == pytest.approx(oracle.fun, abs=1e-7)


def test_cost_range_of_a_basic_column_and_none_for_a_nonbasic_one():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 5.0)
    y = prog.add_variable(0.0, 5.0)
    surplus = prog.add_variable(0.0)
    prog.add_constraint({x: 1.0, y: 1.0, surplus: -1.0}, 1.0)  # x + y >= 1
    prog.set_objective({x: 1.0, y: 2.0})
    sol = lp.solve(prog)
    assert sol.x.tolist() == [1.0, 0.0, 0.0]
    # x serves the floor while its cost lies in [0, 2]: below 0 it fills up
    # to its bound, above 2 y takes over. y and the surplus sit on their
    # bounds: no interval.
    assert lp.cost_range(prog, sol, x) == pytest.approx((0.0, 2.0), abs=1e-12)
    assert lp.cost_range(prog, sol, y) is None
    assert lp.cost_range(prog, sol, surplus) is None


def test_cost_range_is_one_cost_when_a_free_column_is_left_nonbasic():
    # x + z = 1 at equal costs: every split is optimal. With z free and held
    # nonbasic at 0, any change to x's cost makes z worth moving at once.
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 10.0)
    z = prog.add_variable()
    prog.add_constraint({x: 1.0, z: 1.0}, 1.0)
    prog.set_objective({x: 1.0, z: 1.0})
    lp.solve(prog)
    highs, status = prog._backend.highs, lp._core.HighsBasisStatus
    basis = highs.getBasis()
    basis.col_status = [status.kBasic, status.kZero]
    basis.row_status = [status.kLower]
    assert highs.setBasis(basis) == lp.HighsStatus.kOk
    sol = lp.solve(prog)  # the re-solve starts, and stays, at that basis
    assert sol.x.tolist() == [1.0, 0.0]
    assert list(highs.getBasis().col_status) == [status.kBasic, status.kZero]
    assert lp.cost_range(prog, sol, x) == (1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cost_range_matches_highs_ranging(seed):
    # HiGHS's getRanging ranges every row and column at once; it is the oracle.
    rng = np.random.default_rng(seed)
    a, relations, rhs, lower, upper = _random_lp_data(rng, anchored=True)
    n = len(lower)
    fixed = rng.random(n) < 0.2
    # A free column is fixed at 0: bounds [inf, inf] admit no value, and are refused.
    lower[fixed] = upper[fixed] = np.where(np.isfinite(lower), lower,
                                           np.where(np.isfinite(upper), upper, 0.0))[fixed]
    c = rng.normal(size=n)
    c *= rng.uniform(0.05, 0.95) / np.max(np.abs(c))  # below 1: lp.solve lifts it
    prog = _build_lp((a, relations, rhs, lower, upper), c)
    try:
        sol = lp.solve(prog)
    except lp.SolverError:
        return
    if sol.status != lp.OPTIMAL:
        return
    highs = prog._backend.highs
    ranges = [lp.cost_range(prog, sol, j) for j in range(prog.n_cols)]  # slacks too
    if highs.getNumNz() == 0:  # no basis factorization to read
        assert ranges == [None] * prog.n_cols
        return
    status = highs.getBasis().col_status
    costs = np.array(highs.getLp().col_cost_)
    top = int(np.argmax(np.abs(c)))
    scale = costs[top] / c[top]
    assert scale > 1.0
    ok, ranging = highs.getRanging()
    assert ok == lp.HighsStatus.kOk
    for j in range(prog.n_cols):
        if status[j] != lp._core.HighsBasisStatus.kBasic:
            assert ranges[j] is None  # a nonbasic column's segment gets probed
            continue
        down = ranging.col_cost_dn.value_[j] / scale
        up = ranging.col_cost_up.value_[j] / scale
        assert ranges[j] == pytest.approx((down, up), rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_evaluate_measures_row_and_bound_violation_and_objective(seed):
    rng = np.random.default_rng(seed)
    data = _random_lp_data(rng, anchored=True)
    c = rng.normal(size=len(data[3]))
    prog = _build_lp(data, c)
    a, rhs, lower, upper = _equality_form(data)

    x = rng.normal(scale=3.0, size=prog.n_cols)  # most draws break some row or bound
    worst = max([0.0, *(lower - x), *(x - upper), *np.abs(a @ x - rhs)])
    violation, objective = prog.evaluate(x)
    assert violation == pytest.approx(worst, abs=1e-12)
    assert objective == pytest.approx(float(c @ x[:len(c)]), abs=1e-12)

    sol = lp.solve(prog)
    if sol.status == lp.OPTIMAL:
        violation, objective = prog.evaluate(sol.x)
        assert sol.max_residual <= violation <= 1e-7
        assert objective == pytest.approx(sol.objective, abs=1e-9)


def test_bounds_set_after_an_unsolved_program_was_scored_are_scored():
    prog = lp.LinearProgram()
    x, y = prog.add_variable(0.0, 4.0), prog.add_variable(0.0)
    prog.add_constraint({x: 1.0, y: 1.0}, 3.0)
    prog.set_objective({x: 1.0, y: 2.0})
    assert prog.evaluate(np.array([4.0, -1.0])) == (1.0, 2.0)  # y below its lower bound 0
    assert prog.dual_bound(np.array([1.0])) == 3.0  # the optimum, x = 3 and y = 0
    assert prog.dual_bound(np.array([2.0])) == 2.0  # x's reduced cost -1 at its upper bound 4
    prog.set_bounds(x, 0.0, 2.0)
    assert prog.evaluate(np.array([4.0, -1.0])) == (2.0, 2.0)  # x above its upper bound 2
    assert prog.dual_bound(np.array([2.0])) == 4.0  # the new optimum, x = 2 and y = 1
    prog.set_bounds(x, 0.0, math.inf)
    assert prog.dual_bound(np.array([2.0])) == -math.inf
    assert prog._backend.highs is None  # scored, never passed to HiGHS
    assert lp.solve(prog).x.tolist() == [3.0, 0.0]


def test_a_new_column_or_row_after_a_solve_is_scored():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 4.0)
    prog.add_constraint({x: 1.0}, 3.0)
    prog.set_objective({x: 1.0})
    assert lp.solve(prog).objective == 3.0
    z = prog.add_variable(0.0, 1.0)
    assert prog.evaluate(np.array([3.0, 5.0])) == (4.0, 3.0)  # z above its upper bound 1
    prog.add_constraint({x: 1.0, z: -1.0}, 2.0)
    assert prog.evaluate(np.array([3.0, 1.0])) == (0.0, 3.0)
    assert prog.evaluate(np.array([3.0, 0.0])) == (1.0, 3.0)  # misses the new row by 1
    assert prog.dual_bound(np.array([1.0, 0.0])) == 3.0
    sol = lp.solve(prog)
    assert sol.objective == 3.0 and sol.x.tolist() == [3.0, 1.0]


def test_evaluate_refuses_a_point_without_one_value_per_column():
    prog = lp.LinearProgram()
    prog.add_variable(0.0, 1.0)
    prog.add_variable(0.0, 1.0)
    with pytest.raises(ValueError, match=r"shape \(1,\), not the program's \(2,\)"):
        prog.evaluate(np.array([0.5]))


def test_evaluate_reports_a_nan_row_term_as_a_nan_violation():
    prog = lp.LinearProgram()
    x, y = prog.add_variable(0.0, 10.0), prog.add_variable(0.0, 10.0)
    prog.add_constraint({x: 1e308, y: -1e308}, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # the row reads inf - inf
        violation, _ = prog.evaluate(np.array([10.0, 10.0]))  # inside the bounds
    assert math.isnan(violation)
    prog.set_objective({x: 1.0})
    violation, objective = prog.evaluate(np.array([NAN, 1.0]))
    assert math.isnan(violation) and math.isnan(objective)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dual_bound_is_the_optimum_at_an_optimal_dual_and_below_it_elsewhere(seed):
    rng = np.random.default_rng(seed)
    prog, _, _ = _random_box_lp(rng)
    sol = lp.solve(prog)
    assert prog.dual_bound(sol.y) == pytest.approx(sol.objective, abs=1e-9)
    moved = np.minimum(sol.y + rng.normal(size=len(sol.y)), 0.0)  # <= rows: duals <= 0
    bound = prog.dual_bound(moved)
    assert -math.inf < bound <= sol.objective + 1e-9  # weak duality


def test_dual_bound_at_the_solvers_duals_is_the_optimum_on_random_lps():
    # HiGHS leaves some reduced costs of free or half-bounded columns at
    # +-1e-16 instead of 0 (69 of these 246 optimal LPs); that is rounding
    # noise, not a dual pressing on an infinite side.
    optimal = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        data = _random_lp_data(rng, anchored=True)
        prog = _build_lp(data, rng.normal(size=len(data[3])))
        sol = lp.solve(prog)
        if sol.status == lp.OPTIMAL:
            optimal += 1
            assert prog.dual_bound(sol.y) == pytest.approx(sol.objective, abs=1e-9), seed
            assert sol.duality_gap == abs(sol.objective - prog.dual_bound(sol.y)), seed
    assert optimal == 246


def test_dual_bound_takes_a_reduced_cost_of_rounding_size_as_zero():
    prog = lp.LinearProgram()
    x = prog.add_variable()  # free
    prog.add_constraint({x: 3.0}, 3.0)
    prog.set_objective({x: 0.1})
    exact = 0.1 / 3.0
    for y in (exact, math.nextafter(exact, 0.0), math.nextafter(exact, 1.0)):
        assert prog.dual_bound(np.array([y])) == pytest.approx(0.1, abs=1e-15)
    assert prog.dual_bound(np.array([exact * (1.0 + 1e-9)])) == -math.inf


def test_dual_bound_is_minus_infinity_for_a_dual_pressing_on_an_infinite_side():
    prog = lp.LinearProgram()
    x = prog.add_variable()  # free
    z = prog.add_variable(0.0, 2.0)
    prog.add_constraint({x: 1.0, z: 1.0, prog.add_variable(0.0): -1.0}, 3.0)  # x + z >= 3
    prog.set_objective({x: 1.0, z: 2.0})
    sol = lp.solve(prog)
    assert sol.y.tolist() == [1.0]
    assert prog.dual_bound(np.array([1.0])) == sol.objective == 3.0
    # x's reduced cost 1 - 0.5 presses on its lower bound, -inf.
    assert prog.dual_bound(np.array([0.5])) == -math.inf

    boxed = lp.LinearProgram()
    x = boxed.add_variable(0.0, 10.0)
    boxed.add_constraint({x: 1.0, boxed.add_variable(0.0): -1.0}, 3.0)  # x >= 3
    boxed.set_objective({x: 1.0})
    assert boxed.dual_bound(np.array([0.5])) == 1.5  # 0.5 * 3 + 0.5 * 0 + 0.5 * 0
    # A dual below 0 on x >= 3 gives its surplus column a reduced cost of -1,
    # which presses on the surplus's infinite upper bound.
    assert boxed.dual_bound(np.array([-1.0])) == -math.inf


def test_dual_bound_refuses_duals_without_one_value_per_row():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 1.0)
    prog.add_constraint({x: 1.0}, 1.0)
    with pytest.raises(ValueError, match=r"shape \(2,\), not the program's \(1,\)"):
        prog.dual_bound(np.array([0.0, 0.0]))


def test_missing_highs_binding_fails_at_import_naming_the_scipy_floor():
    code = "import sys; sys.modules['scipy.optimize._highspy._core'] = None; import gridcoord"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode != 0
    assert "ImportError: gridcoord needs scipy>=1.15" in run.stderr


def _python(code, *path_first):
    """Run ``code`` in a fresh interpreter that sees this process's sys.path."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([*map(str, path_first), *(p for p in sys.path if p)])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("package", ["scipy", "scipy.optimize", "scipy.optimize._highspy"])
def test_blocked_scipy_package_fails_at_import_naming_the_scipy_floor(package):
    run = _python(f"import sys; sys.modules[{package!r}] = None; import gridcoord")
    assert run.returncode != 0
    assert "ImportError: gridcoord needs scipy>=1.15" in run.stderr


def test_scipy_without_the_highs_extension_fails_at_import_naming_the_scipy_floor(tmp_path):
    package = tmp_path / "scipy" / "optimize" / "_highspy"
    package.mkdir(parents=True)
    for directory in (package, package.parent, package.parent.parent):
        (directory / "__init__.py").write_text("")
    run = _python("import gridcoord", tmp_path)
    assert run.returncode != 0
    assert "ImportError: gridcoord needs scipy>=1.15" in run.stderr


_CORE = "scipy.optimize._highspy._core"


def test_import_loads_the_highs_extension_alone_and_scipy_optimize_reuses_it():
    code = f"""
import sys
import gridcoord, gridcoord.cli
loaded = [name for name in ("scipy", "scipy.optimize", "scipy.sparse") if name in sys.modules]
assert not loaded, loaded
import gridcoord.lp
import scipy.optimize
assert sys.modules["{_CORE}"] is gridcoord.lp._core
res = scipy.optimize.linprog([1.0], bounds=[(2.0, 5.0)])
assert res.status == 0 and abs(res.x[0] - 2.0) < 1e-9, res
"""
    run = _python(code)
    assert run.returncode == 0, run.stderr


def test_import_after_scipy_optimize_reuses_its_highs_extension():
    code = f"""
import sys
import scipy.optimize
core = sys.modules["{_CORE}"]
import gridcoord.lp
assert gridcoord.lp._core is core and sys.modules["{_CORE}"] is core
"""
    run = _python(code)
    assert run.returncode == 0, run.stderr


def _outcome(prog):
    """(status, objective, duality gap) of a solve, or SolverError's name."""
    try:
        sol = lp.solve(prog)
    except lp.SolverError:
        return "SolverError", None, None
    return sol.status, sol.objective, sol.duality_gap


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_resolve_after_new_bounds_matches_a_fresh_build(seed):
    rng = np.random.default_rng(seed)
    a, relations, rhs, lower, upper = _random_lp_data(rng, anchored=True)
    n = len(lower)
    c = rng.normal(size=n)
    prog = _build_lp((a, relations, rhs, lower, upper), c)
    lp.solve(prog)
    j = int(rng.integers(n))
    pin = float(rng.uniform(-2.0, 2.0))
    moved = (pin - float(rng.uniform(0.0, 2.0)), pin + float(rng.uniform(0.0, 2.0)))
    # Pin, move, then free the variable again; each re-solve is warm.
    for lo, hi in [(pin, pin), moved, (lower[j], upper[j])]:
        prog.set_bounds(j, float(lo), float(hi))
        new_lower, new_upper = lower.copy(), upper.copy()
        new_lower[j], new_upper[j] = lo, hi
        warm = _outcome(prog)
        fresh = _outcome(_build_lp((a, relations, rhs, new_lower, new_upper), c))
        assert warm[0] == fresh[0]
        if fresh[0] == lp.OPTIMAL:
            assert warm[1] == pytest.approx(fresh[1], abs=1e-7)
            assert warm[2] == pytest.approx(fresh[2], abs=1e-7)


def test_pin_that_makes_a_row_binding_moves_the_optimum():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 10.0)
    y = prog.add_variable(0.0, 5.0)
    cap = prog.add_constraint({y: 1.0, x: -1.0, prog.add_variable(0.0): 1.0}, 2.0)  # y - x <= 2
    prog.set_objective({y: -1.0})
    assert lp.solve(prog).objective == pytest.approx(-5.0)
    backend = prog._backend

    prog.set_bounds(x, 1.0, 1.0)  # y <= x + 2 = 3 now binds
    sol = lp.solve(prog)
    assert prog._backend is backend  # the loaded model was kept
    assert sol.objective == pytest.approx(-3.0)
    assert sol.x.tolist() == pytest.approx([1.0, 3.0, 0.0])  # the slack at 0: y - x = 2
    assert sol.y[cap] == pytest.approx(-1.0)
    assert sol.max_residual <= 1e-7
    assert sol.duality_gap <= 1e-7

    prog.set_bounds(x, 0.0, 10.0)
    assert lp.solve(prog).objective == pytest.approx(-5.0)


def test_set_bounds_rejects_crossed_bounds_and_undeclared_columns():
    prog = lp.LinearProgram()
    x = prog.add_variable(0.0, 1.0)
    with pytest.raises(ValueError, match="no finite value"):
        prog.set_bounds(x, 2.0, 1.0)
    with pytest.raises(ValueError, match="undeclared variable 1"):
        prog.set_bounds(x + 1, 0.0, 1.0)
    with pytest.raises(ValueError, match="undeclared variable -1"):
        prog.set_bounds(-1, 0.0, 1.0)


def test_program_without_variables_is_infeasible_on_a_violated_constant_row():
    prog = lp.LinearProgram()
    prog.add_constraint({}, 5.0)
    assert lp.solve(prog).status == lp.INFEASIBLE
    prog.add_variable(0.0, 1.0)  # the same row next to a variable
    assert lp.solve(prog).status == lp.INFEASIBLE

    for rhs in (1e-3, -1e-3):
        prog = lp.LinearProgram()
        prog.add_constraint({}, 0.0)
        prog.add_constraint({}, rhs)
        assert lp.solve(prog).status == lp.INFEASIBLE


def test_program_without_variables_reports_zero_duals_when_feasible():
    prog = lp.LinearProgram()
    prog.add_constraint({}, 0.0)
    prog.add_constraint({}, -0.0)
    prog.set_objective({})
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == 0.0
    assert sol.y.tolist() == [0.0, 0.0]


def _solution(sol):
    """Everything a solve returns, comparable with ``==``; SolverError's name as is."""
    if isinstance(sol, str):
        return sol
    return repr(sol), sol.x.tolist(), sol.y.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_restart_after_pinned_bounds_matches_a_fresh_build_exactly(seed, anchored):
    rng = np.random.default_rng(seed)
    a, relations, rhs, lower, upper = _random_lp_data(rng, anchored)
    c = rng.normal(size=len(lower))
    prog = _build_lp((a, relations, rhs, lower, upper), c)
    prog.restart()  # nothing compiled yet: a no-op
    _outcome(prog)
    for _ in range(3):  # a cold restart each time, on the kept model
        q = float(rng.normal(scale=3.0))
        prog.set_bounds(0, q, q)  # a parameter, as a pinned column
        prog.restart()
        backend = prog._backend
        try:
            kept = lp.solve(prog)
        except lp.SolverError:
            kept = "SolverError"
        assert prog._backend is backend  # the loaded model was kept
        new_lower, new_upper = lower.copy(), upper.copy()
        new_lower[0] = new_upper[0] = q
        try:
            fresh = lp.solve(_build_lp((a, relations, rhs, new_lower, new_upper), c))
        except lp.SolverError:
            fresh = "SolverError"
        assert _solution(kept) == _solution(fresh)
        assert repr(kept) == repr(fresh)


def test_a_restart_reads_the_start_statuses_off_the_bounds_at_its_solve():
    # x carries no cost, so it stays nonbasic on the bound it starts at.
    x, y = 0, 1  # the columns of ``program``

    def program(lower, upper):
        prog = lp.LinearProgram()
        assert prog.add_variable(lower, upper) == x
        assert prog.add_variable() == y
        prog.add_constraint({x: 1.0, y: 1.0}, 1.0)
        return prog

    prog = program(-math.inf, 3.0)
    assert lp.solve(prog).x.tolist() == [3.0, -2.0]  # at its only finite bound
    prog.restart()
    prog.set_bounds(x, -4.0, 5.0)  # moved after the restart: a hot start would keep
    # x at its upper bound, 5; the slack basis puts it at its lower bound
    assert (lp.solve(prog).x.tolist() == lp.solve(program(-4.0, 5.0)).x.tolist()
            == [-4.0, 5.0])


def _cold_outcome(prog):
    """A solve's solution, or SolverError's name, with the iterations and final basis."""
    try:
        sol = lp.solve(prog)
    except lp.SolverError:
        sol = "SolverError"
    highs = prog._backend.highs
    basis = highs.getBasis()
    return (_solution(sol), highs.getInfoValue("simplex_iteration_count")[1],
            [int(s) for s in basis.col_status], [int(s) for s in basis.row_status])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_a_restart_takes_a_fresh_builds_pivots_to_its_final_basis(seed, anchored):
    # The bounds are moved after the restart: the cold solve must start as a
    # fresh build's does, from the bounds in force at that solve.
    rng = np.random.default_rng(seed)
    a, relations, rhs, lower, upper = _random_lp_data(rng, anchored)
    c = rng.normal(size=len(lower)) * (rng.random(len(lower)) < 0.6)  # a zero cost keeps
    # a nonbasic column on whichever bound it starts at

    def build(lo, up):
        return _build_lp((a, relations, rhs, lo, up), c)

    prog = build(lower, upper)
    _cold_outcome(prog)
    for _ in range(4):
        j = int(rng.integers(len(lower)))
        q = float(rng.normal(scale=2.0))
        new_lower, new_upper = lower.copy(), upper.copy()
        new_lower[j], new_upper[j] = rng.choice([(q, q), (q, np.inf), (-np.inf, q),
                                                 (q - 1.0, q + 1.0), (-np.inf, np.inf)])
        prog.restart()
        for k in range(len(lower)):
            prog.set_bounds(k, float(new_lower[k]), float(new_upper[k]))
        kept, fresh = _cold_outcome(prog), _cold_outcome(build(new_lower, new_upper))
        assert kept == fresh
        lower, upper = new_lower, new_upper
