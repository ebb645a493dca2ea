"""Case-file reading.

Cases are JSON documents (schema below); three fixtures ship with the
package and can be named in place of a path: ``paper_reference``,
``paper_as_printed``, and ``voltage_binding``.

    {
      "network": {"base_mva", "u_min", "u_max", "u_sub", "substation",
                  "nodes":    [{"id", "lp", "lq"}, ...],
                  "branches": [{"from", "to", "r", "x", "pl_max", "ql_max"}, ...]},
      "aggregators": [{"id", "kind", "node", "tan_phi", "blocks", "fixed_output"}, ...],
      "wholesale":   [{"id", "kind", "blocks": [{"p_max", "price"}, ...]}, ...],
      "firm_load", "sweep_step", "tolerance"
    }

``sweep_step`` is accepted but ignored: the bid curve is built exactly,
with no step to tune.

Parse errors come in three distinct flavors: CaseSyntaxError (a file that
is not JSON text, with line/column where the JSON is malformed; bytes that
are not UTF-8, an integer longer than Python converts, and nesting deeper
than Python's recursion limit name the file alone), CaseSchemaError (wrong
shape, with the JSON path), and model.ValidationError (structurally sound
but invariant-breaking scenario). A UTF-8 byte-order mark is skipped.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .model import (
    AGGREGATOR_KINDS,
    WHOLESALE_KINDS,
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    WholesaleParticipant,
    require_valid,
)

BUNDLED_CASES = ("paper_reference", "paper_as_printed", "voltage_binding")


class CaseFileError(ValueError):
    pass


class CaseSyntaxError(CaseFileError):
    pass


class CaseSchemaError(CaseFileError):
    pass


def resolve_case_path(case: str | Path) -> Path:
    path = Path(case)
    if path.exists():
        return path
    stem = str(case).removesuffix(".json")
    if stem in BUNDLED_CASES:
        return Path(str(resources.files("gridcoord").joinpath(f"cases/{stem}.json")))
    raise CaseFileError(f"case file not found: {case}")


_MISSING = object()


def _get(obj, key, kind, path, default=_MISSING):
    if not isinstance(obj, dict):
        raise CaseSchemaError(f"{path}: expected an object")
    if key not in obj:
        if default is not _MISSING:
            return default
        raise CaseSchemaError(f"{path}.{key}: missing required field")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CaseSchemaError(f"{path}.{key}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:  # a JSON integer past float range
            raise CaseSchemaError(f"{path}.{key}: number out of float range") from None
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise CaseSchemaError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, kind):
        raise CaseSchemaError(f"{path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_blocks(raw, path) -> BlockOfferStack:
    if not isinstance(raw, list):
        raise CaseSchemaError(f"{path}: expected a list of blocks")
    blocks = []
    for i, item in enumerate(raw):
        blocks.append(
            Block(
                p_max=_get(item, "p_max", float, f"{path}[{i}]"),
                price=_get(item, "price", float, f"{path}[{i}]"),
            )
        )
    return BlockOfferStack(tuple(blocks))


def scenario_from_dict(doc: dict) -> Scenario:
    """Schema check and construction; does not run scenario validation."""
    net = _get(doc, "network", dict, "$")
    raw_nodes = _get(net, "nodes", list, "network")
    n = len(raw_nodes)
    load_p = [0.0] * n
    load_q = [0.0] * n
    seen = set()
    for i, item in enumerate(raw_nodes):
        node_id = _get(item, "id", int, f"network.nodes[{i}]")
        if not (0 <= node_id < n) or node_id in seen:
            raise CaseSchemaError(
                f"network.nodes[{i}].id: ids must be dense 0..{n - 1} without repeats"
            )
        seen.add(node_id)
        load_p[node_id] = _get(item, "lp", float, f"network.nodes[{i}]", 0.0)
        load_q[node_id] = _get(item, "lq", float, f"network.nodes[{i}]", 0.0)

    branches = []
    for j, item in enumerate(_get(net, "branches", list, "network")):
        path = f"network.branches[{j}]"
        branches.append(
            Branch(
                from_node=_get(item, "from", int, path),
                to_node=_get(item, "to", int, path),
                r=_get(item, "r", float, path),
                x=_get(item, "x", float, path),
                pl_max=_get(item, "pl_max", float, path),
                ql_max=_get(item, "ql_max", float, path),
            )
        )

    network = NetworkModel(
        n_nodes=n,
        load_p=tuple(load_p),
        load_q=tuple(load_q),
        branches=tuple(branches),
        substation=_get(net, "substation", int, "network"),
        u_min=_get(net, "u_min", float, "network"),
        u_max=_get(net, "u_max", float, "network"),
        u_sub=_get(net, "u_sub", float, "network"),
        base_mva=_get(net, "base_mva", float, "network", 1.0),
    )

    aggregators = []
    for i, item in enumerate(_get(doc, "aggregators", list, "$")):
        path = f"aggregators[{i}]"
        kind = _get(item, "kind", str, path)
        if kind not in AGGREGATOR_KINDS:
            raise CaseSchemaError(f"{path}.kind: expected one of {AGGREGATOR_KINDS}, got {kind!r}")
        aggregators.append(
            Aggregator(
                id=_get(item, "id", str, path),
                kind=kind,
                node=_get(item, "node", int, path),
                offers=_parse_blocks(_get(item, "blocks", list, path, []), f"{path}.blocks"),
                tan_phi=_get(item, "tan_phi", float, path, 0.0),
                fixed_output=_get(item, "fixed_output", float, path, 0.0),
            )
        )

    wholesale = []
    for i, item in enumerate(_get(doc, "wholesale", list, "$")):
        path = f"wholesale[{i}]"
        kind = _get(item, "kind", str, path)
        if kind not in WHOLESALE_KINDS:
            raise CaseSchemaError(f"{path}.kind: expected one of {WHOLESALE_KINDS}, got {kind!r}")
        wholesale.append(
            WholesaleParticipant(
                id=_get(item, "id", str, path),
                kind=kind,
                offers=_parse_blocks(_get(item, "blocks", list, path), f"{path}.blocks"),
            )
        )

    return Scenario(
        network=network,
        aggregators=tuple(aggregators),
        wholesale=tuple(wholesale),
        firm_wholesale_load=_get(doc, "firm_load", float, "$"),
        sweep_step=_get(doc, "sweep_step", float, "$", 0.1),
        tolerance=_get(doc, "tolerance", float, "$", 1e-6),
    )


def parse_case(case: str | Path) -> Scenario:
    """Load, schema-check, and validate a case file (or bundled case name)."""
    path = resolve_case_path(case)
    try:
        doc = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise CaseSyntaxError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, too many digits, nested too deep
        raise CaseSyntaxError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CaseSchemaError(f"{path}: top level must be an object")
    scenario = scenario_from_dict(doc)
    require_valid(scenario)
    return scenario
