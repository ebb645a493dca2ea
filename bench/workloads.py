"""The benchmark's three workloads, their batches and their correctness checks.

A workload is set up once per run (``prepare``) and then runs its fixed
batch of ops again and again in a closed loop: one op in flight, the next
sent when the previous one returns. Every op yields a fingerprint (the
numbers it produced), which ``check`` compares against the references in
``reference.json``, generated at the program commit the benchmark was
written at. gridcoord functions are looked up on their modules at call
time, so the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gridcoord.caseio as caseio
import gridcoord.cli as cli
import gridcoord.coordination as coordination
import gridcoord.dso as dso
import gridcoord.iso as iso
from gridcoord.model import GEN

import gen

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

SMALL_BATCH = 100  # random scenarios per small_cases batch, after the bundled cases
SMALL_POOL = 500   # the batch starts at seed % SMALL_POOL
FEEDER_POOL = 8    # large_feeder uses feeder seed % FEEDER_POOL


@dataclass
class Op:
    key: str                      # names the op's entry in reference.json
    run: Callable[[], dict]       # returns the op's fingerprint; may raise
    tolerance: float


@dataclass
class Prepared:
    ops: list[Op]
    first: Op | None = None  # batch step run before the ops; if it fails, they fail too


def curve_fingerprint(curve) -> dict:
    return {"breakpoints": [list(bp) for bp in curve.breakpoints], "prices": list(curve.prices)}


def result_fingerprint(result) -> dict:
    """Numbers a check_equivalence op produced, plus the two self-checks."""
    award = result.iso.dso_awards[0]
    return {
        **curve_fingerprint(result.bid_curve),
        "objective": result.iso.objective,
        "award": award,
        "price": result.iso.clearing_price,
        "redispatch_cost": result.dso_dispatch.cost,
        "curve_cost": result.bid_curve.cost_at(award),
        "passed": result.equivalence.passed,
    }


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))


def check(fp: dict, ref: dict | None, tol: float) -> list[str]:
    """Problems with one op's fingerprint; an empty list means the op is correct.

    An op fails if it raised, if its equivalence report did not pass, if its
    re-dispatch cost differs from the curve's cost at the award, or if any
    number differs from the reference by more than ``tol`` (relative above
    magnitude 1). An op that failed when the references were made fails
    every time.
    """
    if ref is None:
        return ["no reference result"]
    if "error" in ref:
        return [f"failed when the references were made: {ref['error']}"]
    if "error" in fp:
        return [fp["error"]]
    problems = []
    if not fp.get("passed", True):
        problems.append("equivalence report did not pass")
    if "curve_cost" in fp and not _close(fp["redispatch_cost"], fp["curve_cost"], tol):
        problems.append(f"re-dispatch cost {fp['redispatch_cost']} != curve cost "
                        f"{fp['curve_cost']} at the award")
    for key, want in ref.items():
        got = fp.get(key)
        if key == "breakpoints":
            if len(got) != len(want) or not all(
                    _close(g, w, tol) for gp, wp in zip(got, want) for g, w in zip(gp, wp)):
                problems.append(f"breakpoints differ: {got} vs {want}")
        elif key == "prices":
            if len(got) != len(want) or not all(_close(g, w, tol) for g, w in zip(got, want)):
                problems.append(f"prices differ: {got} vs {want}")
        elif isinstance(want, float) and not _close(got, want, tol):
            problems.append(f"{key} {got} differs from reference {want}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(reference: dict, key: str) -> dict | None:
    group, _, rest = key.partition(":")
    if key == "sweep:curve":
        return reference["sweep"]["curve"]
    if group == "sweep":
        phase, index = rest.split(":")
        rows = reference["sweep"]["phases"].get(phase)
        if rows is None:
            return None
        entry = rows[int(index)]
        return entry if isinstance(entry, dict) else dict(zip(SWEEP_FIELDS, entry))
    return reference[group].get(rest)


def guard(fn: Callable[[], dict]) -> dict:
    try:
        return fn()
    except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
        return {"error": f"{type(exc).__name__}: {exc}"}


# --- small_cases -------------------------------------------------------------

class _CliCapture:
    """Keeps the CoordinationResult behind ``cli.main(["verify", ...])``.

    Installed as ``gridcoord.cli.check_equivalence``; it calls through the
    ``gridcoord.coordination`` module attribute, so the tracer, when
    installed, still records the call as a child of ``cli.main``.
    """

    def __init__(self):
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = coordination.check_equivalence(*args, **kwargs)
        return self.last


_capture = _CliCapture()


def _cli_verify_op(name: str, out: Path) -> dict:
    _capture.last = None
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--case", name, "--out", str(out)])
    if code != 0 or _capture.last is None:
        return {"error": f"gridcoord verify --case {name} exited with {code}"}
    return result_fingerprint(_capture.last)


def small_op(seed: int) -> Op:
    scenario = gen.small_scenario(seed)
    return Op(f"small:{seed}", lambda: result_fingerprint(
        coordination.check_equivalence(scenario)), scenario.tolerance)


def prepare_small_cases(seed: int) -> Prepared:
    cli.check_equivalence = _capture
    ops = []
    for name in caseio.BUNDLED_CASES:
        out = OUT_DIR / "cli" / name
        out.mkdir(parents=True, exist_ok=True)
        tol = caseio.parse_case(name).tolerance
        ops.append(Op(f"cases:{name}", lambda name=name, out=out: _cli_verify_op(name, out), tol))
    start = seed % SMALL_POOL
    ops.extend(small_op(s) for s in range(start, start + SMALL_BATCH))
    guard(ops[len(caseio.BUNDLED_CASES)].run)  # warm-up
    return Prepared(ops)


# --- large_feeder ------------------------------------------------------------

def prepare_large_feeder(seed: int) -> Prepared:
    k = seed % FEEDER_POOL
    scenario = gen.feeder_scenario(k)
    # Warm up on a small scenario: the same code path at a fortieth of the
    # cost of a feeder op, so set-up can be repeated in a run.
    guard(lambda: result_fingerprint(coordination.check_equivalence(gen.small_scenario(k))))
    return Prepared([Op(f"feeder:{k}", lambda: result_fingerprint(
        coordination.check_equivalence(scenario)), scenario.tolerance)])


# --- award_sweep -------------------------------------------------------------

SWEEP_FIELDS = ("award", "price", "objective", "redispatch_cost")


def _sweep_op(scenario, state: dict, load: float) -> dict:
    curve = state["curve"]
    outcome = iso.clear(scenario.wholesale, [curve], load)
    award = outcome.dso_awards[0]
    dispatch = dso.value_at(scenario, award)
    return {"award": award, "price": outcome.clearing_price, "objective": outcome.objective,
            "redispatch_cost": dispatch.cost, "curve_cost": curve.cost_at(award)}


def sweep_supply_max(scenario) -> float:
    """Generator capacity plus the DSO's export limit by capacity sums."""
    gen_cap = sum(wp.offers.capacity for wp in scenario.wholesale if wp.kind == GEN)
    return gen_cap + gen.capacity_export_range(scenario.aggregators, scenario.network.load_p)[1]


def prepare_award_sweep(seed: int) -> Prepared:
    scenario = caseio.parse_case("paper_reference")
    phase = seed % gen.SWEEP_PHASES
    loads = gen.sweep_loads(sweep_supply_max(scenario), phase)
    state: dict = {}

    def build_curve() -> dict:
        state.pop("curve", None)
        state["curve"] = dso.build_bid_curve(scenario)
        return curve_fingerprint(state["curve"])

    first = Op("sweep:curve", build_curve, scenario.tolerance)
    ops = [Op(f"sweep:{phase}:{i}", lambda load=load: _sweep_op(scenario, state, load),
              scenario.tolerance) for i, load in enumerate(loads)]
    guard(first.run)  # warm-up: the curve and one op
    guard(ops[0].run)
    return Prepared(ops, first=first)


PREPARE = {
    "small_cases": prepare_small_cases,
    "large_feeder": prepare_large_feeder,
    "award_sweep": prepare_award_sweep,
}
