import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcoord.lp as lp
from gridcoord.caseio import parse_case
from gridcoord.distflow import build_constraints, dispatch_cost_coeffs

from support import dso_cost_oracle


def test_min_x_above_three():
    prog = lp.LinearProgram()
    prog.add_variable("x", 0.0, 10.0)
    prog.add_constraint("floor", {"x": 1.0}, lp.GEQ, 3.0)
    prog.set_objective({"x": 1.0})
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    # Shadow price convention: raising the rhs of x >= 3 raises the optimum 1:1.
    assert sol.dual["floor"] == pytest.approx(1.0, abs=1e-9)


def test_max_x_below_five():
    prog = lp.LinearProgram()
    prog.add_variable("x")
    prog.add_constraint("cap", {"x": 1.0}, lp.LEQ, 5.0)
    prog.set_objective({"x": -1.0})
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(-5.0, abs=1e-9)
    assert sol.dual["cap"] == pytest.approx(-1.0, abs=1e-9)


def test_equality_dual_matches_marginal_cost():
    prog = lp.LinearProgram()
    prog.add_variable("a", 0.0, 10.0)
    prog.add_variable("b", 0.0, 10.0)
    prog.add_constraint("demand", {"a": 1.0, "b": 1.0}, lp.EQ, 4.0)
    prog.set_objective({"a": 2.0, "b": 3.0})
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(8.0)
    assert sol.dual["demand"] == pytest.approx(2.0)


def test_infeasible_and_unbounded_statuses():
    prog = lp.LinearProgram()
    prog.add_variable("x")
    prog.add_constraint("lo", {"x": 1.0}, lp.GEQ, 2.0)
    prog.add_constraint("hi", {"x": 1.0}, lp.LEQ, 1.0)
    prog.set_objective({"x": 1.0})
    assert lp.solve(prog).status == lp.INFEASIBLE

    prog = lp.LinearProgram()
    prog.add_variable("x", 0.0)
    prog.set_objective({"x": -1.0})
    assert lp.solve(prog).status == lp.UNBOUNDED


def test_malformed_input_is_a_validation_failure():
    prog = lp.LinearProgram()
    prog.add_variable("x")
    with pytest.raises(ValueError, match="undeclared"):
        prog.add_constraint("c", {"y": 1.0}, lp.LEQ, 0.0)
    with pytest.raises(ValueError, match="lower"):
        prog.add_variable("z", 2.0, 1.0)
    with pytest.raises(ValueError, match="already declared"):
        prog.add_variable("x")


def test_dso_problem_objective_matches_brute_force_enumeration():
    # Independent oracle: enumerate vertex dispatches of the aggregator stack.
    scenario = parse_case("paper_reference")
    expected = dso_cost_oracle(scenario, 1.2)
    assert expected == pytest.approx(-32.0)  # 1*10 + 1.2*15 + 0.5*20 - 2.5*28

    prog, dvars = build_constraints(scenario.network, scenario.aggregators, net_export=1.2)
    prog.set_objective(dispatch_cost_coeffs(scenario.aggregators, dvars))
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert sol.duality_gap <= 1e-7


def _random_box_lp(rng):
    """Random LP that is feasible by construction (constraints anchored at a point).

    Returns the program with its objective coefficients and variable bounds.
    """
    prog = lp.LinearProgram()
    n = int(rng.integers(2, 6))
    anchor = rng.uniform(-2.0, 2.0, n)
    bounds = {f"x{i}": (float(anchor[i] - rng.uniform(0.5, 3)),
                        float(anchor[i] + rng.uniform(0.5, 3))) for i in range(n)}
    names = [prog.add_variable(name, lo, hi) for name, (lo, hi) in bounds.items()]
    for k in range(int(rng.integers(1, 5))):
        coeffs = {names[i]: float(rng.normal()) for i in range(n) if rng.random() < 0.8}
        if not coeffs:
            continue
        lhs_at_anchor = sum(c * anchor[int(name[1:])] for name, c in coeffs.items())
        prog.add_constraint(f"c{k}", coeffs, lp.LEQ, lhs_at_anchor + float(rng.uniform(0, 2)))
    objective = {name: float(rng.normal()) for name in names}
    prog.set_objective(objective)
    return prog, objective, bounds


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_strong_duality_on_random_feasible_lps(seed):
    prog, _, _ = _random_box_lp(np.random.default_rng(seed))
    sol = lp.solve(prog)
    assert sol.status == lp.OPTIMAL
    assert sol.duality_gap <= 1e-7
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
    for name, value in re.primal.items():
        lo, hi = bounds[name]
        assert lo - 1e-9 <= value <= hi + 1e-9
    check = sum(objective.get(k, 0.0) * v for k, v in re.primal.items())
    assert check == pytest.approx(base.objective, rel=1e-7, abs=1e-6)


def test_objective_constant_passes_through():
    prog = lp.LinearProgram()
    prog.add_variable("x", 1.0, 2.0)
    prog.set_objective({"x": 1.0}, constant=10.0)
    assert lp.solve(prog).objective == pytest.approx(11.0)


def test_solve_stats_track_gap():
    before = lp.solve_stats()
    prog = lp.LinearProgram()
    prog.add_variable("x", 0.0, 1.0)
    prog.set_objective({"x": 1.0})
    sol = lp.solve(prog)
    after = lp.solve_stats()
    assert after["solves"] - before["solves"] == 1
    assert after["max_gap"] == max(before["max_gap"], sol.duality_gap)
    assert after["max_residual"] == max(before["max_residual"], sol.max_residual)
    assert after["max_gap"] <= 1e-7


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
    relations = [str(r) for r in rng.choice([lp.LEQ, lp.EQ, lp.GEQ], m)]
    if anchored:
        slack = {lp.LEQ: 1.0, lp.EQ: 0.0, lp.GEQ: -1.0}
        rhs = a @ anchor + np.array([slack[r] for r in relations]) * rng.uniform(0.0, 2.0, m)
    else:
        rhs = rng.normal(scale=3.0, size=m)
    return a, relations, rhs, lower, upper


def _build_lp(data, c):
    a, relations, rhs, lower, upper = data
    prog = lp.LinearProgram()
    names = [prog.add_variable(f"x{j}", float(lower[j]), float(upper[j])) for j in range(len(c))]
    for i, relation in enumerate(relations):
        coeffs = {names[j]: float(a[i, j]) for j in range(len(c)) if a[i, j] != 0.0}
        prog.add_constraint(f"r{i}", coeffs, relation, float(rhs[i]))
    prog.set_objective(dict(zip(names, map(float, c))))
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
        prog.set_objective({f"x{j}": float(c[j]) for j in range(n)})
        warm, fresh = lp.solve(prog), lp.solve(_build_lp(data, c))
        assert warm.status == fresh.status
        if fresh.status == lp.OPTIMAL:
            assert warm.objective == pytest.approx(fresh.objective, abs=1e-7)
            assert warm.duality_gap == pytest.approx(fresh.duality_gap, abs=1e-7)
            assert warm.max_residual <= 1e-7


def test_new_variable_or_constraint_after_a_solve_takes_effect():
    prog = lp.LinearProgram()
    prog.add_variable("x", 0.0, 10.0)
    prog.add_variable("y", 0.0, 10.0)
    prog.add_constraint("floor", {"x": 1.0, "y": 1.0}, lp.GEQ, 4.0)
    prog.set_objective({"x": 1.0, "y": 2.0})
    assert lp.solve(prog).objective == pytest.approx(4.0)

    prog.add_constraint("cap_x", {"x": 1.0}, lp.LEQ, 1.0)  # binding: y takes the rest
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(7.0)
    assert sol.primal == pytest.approx({"x": 1.0, "y": 3.0})
    assert sol.dual["cap_x"] == pytest.approx(-1.0)

    prog.add_variable("z", 0.0, 3.0)
    prog.set_objective({"x": 1.0, "y": 2.0, "z": -1.0})
    sol = lp.solve(prog)
    assert sol.objective == pytest.approx(4.0)
    assert sol.primal["z"] == pytest.approx(3.0)

    prog.add_constraint("cap_z", {"z": 1.0}, lp.LEQ, 2.0)
    assert lp.solve(prog).objective == pytest.approx(5.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_solve_agrees_with_scipy_linprog(seed, anchored):
    # Public API, used here only as an oracle. Presolve is off because it
    # reports some feasible, unbounded LPs as infeasible (see lp.linprog).
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    data = _random_lp_data(rng, anchored)
    a, relations, rhs, lower, upper = data
    c = rng.normal(size=len(lower))
    sign = np.array([{lp.LEQ: 1.0, lp.GEQ: -1.0}.get(r, 0.0) for r in relations])
    ub, eq = sign != 0.0, sign == 0.0
    oracle = linprog(c, A_ub=sign[ub, None] * a[ub] if ub.any() else None,
                     b_ub=sign[ub] * rhs[ub] if ub.any() else None,
                     A_eq=a[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                     bounds=list(zip(lower, upper)), method="highs",
                     options={"presolve": False})
    prog = _build_lp(data, c)
    if oracle.status == 4:  # HiGHS could not tell infeasible from unbounded
        with pytest.raises(lp.SolverError):
            lp.solve(prog)
        return
    sol = lp.solve(prog)
    assert sol.status == {0: lp.OPTIMAL, 2: lp.INFEASIBLE, 3: lp.UNBOUNDED}[oracle.status]
    if sol.status == lp.OPTIMAL:
        assert sol.objective == pytest.approx(oracle.fun, abs=1e-7)


def test_missing_highs_binding_fails_at_import_naming_the_scipy_floor():
    code = "import sys; sys.modules['scipy.optimize._highspy._core'] = None; import gridcoord"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode != 0
    assert "ImportError: gridcoord needs scipy>=1.15" in run.stderr
