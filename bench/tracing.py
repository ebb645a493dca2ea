"""Out-of-program tracing: spans around gridcoord's public functions.

``Tracer.install`` swaps each traced function for a wrapper at every module
attribute that refers to it, which is where callers resolve it (for example
``gridcoord.dso.build_constraints`` as well as
``gridcoord.distflow.build_constraints``), and ``uninstall`` puts the
originals back. Nothing under ``src/`` changes. A wrapper records one span
(name, start, end, parent) per call and passes the call through untouched,
so traced and untraced runs compute the same results.

Spans stay in memory; ``write`` saves them as JSON lines and ``rollup``
turns them into per-function and per-module counts and times. Self time is
a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Traced functions, by the module that defines them. ``lp.linprog`` is
# scipy's solver as resolved inside gridcoord.lp; only that binding is
# wrapped, scipy itself is left alone.
TRACED = (
    ("caseio", "parse_case"),
    ("model", "require_valid"),
    ("model", "derived_incidence"),
    ("distflow", "build_constraints"),
    ("distflow", "dispatch_cost_coeffs"),
    ("lp", "solve"),
    ("lp", "linprog"),
    ("dso", "feasible_range"),
    ("dso", "value_at"),
    ("dso", "build_bid_curve"),
    ("iso", "clear"),
    ("coordination", "run_coordinated"),
    ("coordination", "run_ideal"),
    ("coordination", "check_equivalence"),
    ("cli", "main"),
)
LAYERS = ("caseio", "model", "distflow", "lp", "dso", "iso", "coordination", "cli")


def _note(name: str, result) -> int:
    """Per-call figure kept with the span: HiGHS iterations for linprog,
    1 for a non-optimal lp.solve, the segment count for a bid curve."""
    if name == "lp.linprog":
        return int(getattr(result, "nit", 0))
    if name == "lp.solve":
        return 0 if result.status == "optimal" else 1
    if name == "dso.build_bid_curve":
        return len(result.prices)
    return 0


class Tracer:
    """Records spans while installed; each install starts a new batch of spans."""

    def __init__(self):
        # One list per install; one row per span:
        # [id (index in its batch), parent id (-1 at top), name, start, end, note, raised]
        self.batches: list[list[list]] = []
        self._patched: list[tuple[object, str, object]] = []

    @staticmethod
    def _wrap(name: str, fn, spans: list[list], stack: list[int]):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, 0, False]
            spans.append(row)
            stack.append(row[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[6] = True
                raise
            finally:
                row[4] = clock()
                stack.pop()
            row[5] = _note(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each gridcoord module attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        spans: list[list] = []
        stack: list[int] = []  # ids of the open spans, innermost last
        self.batches.append(spans)
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "gridcoord" or key.startswith("gridcoord.")) and m is not None]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[f"gridcoord.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, spans, stack)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Save every span as one JSON line, tagged with its batch number."""
        with open(path, "w") as fh:
            for batch, spans in enumerate(self.batches):
                for sid, parent, name, start, end, note, raised in spans:
                    fh.write(json.dumps({"batch": batch, "id": sid, "parent": parent,
                                         "name": name, "start": start, "end": end,
                                         "note": note, "raised": raised}) + "\n")


def rollup(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per traced function: calls, busy_s, self_s, solves, note sum, raised.

    ``busy_s`` counts only outermost spans of a name, so a function that
    re-enters itself is not counted twice. ``solves`` is the number of
    lp.solve spans below the function's spans.
    """
    child_time = defaultdict(float)
    for sid, parent, _, start, end, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "solves": 0, "note": 0, "raised": 0})
    for sid, parent, name, start, end, note, raised in spans:
        stats = out[name]
        stats["calls"] += 1
        stats["self_s"] += (end - start) - child_time[sid]
        stats["note"] += note
        stats["raised"] += int(raised)
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][2])
            p = spans[p][1]
        if name not in ancestors:
            stats["busy_s"] += end - start
        if name == "lp.solve":
            for a in ancestors:
                out[a]["solves"] += 1
    return dict(out)


def module_self_time(per_function: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed over each layer's traced functions."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, stats in per_function.items():
        out[name.split(".", 1)[0]] += stats["self_s"]
    return out
