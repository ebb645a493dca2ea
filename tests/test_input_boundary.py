"""Malformed input at the command line ends in a documented exit code, never a traceback.

One deterministic fuzz test: mutations of the bundled case file and of a
written curve file (JSON and CSV) go through ``cli.main`` in-process, on all
five subcommands. Every run must exit 0-4 with no exception and no warning
(pytest makes warnings errors). An exit 1 must print exactly one
``gridcoord: error:`` line, which names the file or the field. The
``@example`` rows are inputs the boundary once got wrong: a traceback, a
warning, a message naming neither, or a sound file refused.
"""

import codecs
import contextlib
import copy
import io
import json
import math
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gridcoord.caseio import resolve_case_path
from gridcoord.cli import main

CASE = json.loads(resolve_case_path("paper_reference").read_text())


def _paths(node, prefix=()):
    """The path of every value inside ``node``, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


VALUES = {  # a mutation by name -> the value it writes at its path
    "string": "x", "null": None, "list": [], "object": {}, "boolean": True, "zero": 0,
    "negative": -1, "dangling-node": 99, "tiny": 5e-324, "huge": 1e308, "-huge": -1e308,
    "nan": math.nan, "401-digits": 10**400,
}


def _cycle(doc):  # branch 2 (2 -> 3) closes the loop 0-1-2-0 and cuts node 3 off
    doc["network"]["branches"][2]["to"] = 0


def _extra_branch(doc):  # one branch too many for a tree: 3 -> 0 closes a loop
    doc["network"]["branches"].append({**doc["network"]["branches"][0], "from": 3, "to": 0})


DOCUMENT_EDITS = {"cycle": _cycle, "extra-branch": _extra_branch}

TEXT_EDITS = {  # a mutation of the file's text by name -> the bytes it writes
    "bom": lambda text: codecs.BOM_UTF8 + text.encode(),
    "blank-line": lambda text: (text + "\n").encode(),
    "utf-16": lambda text: text.encode("utf-16"),
    "deep": lambda _: ("[" * 200000 + "]" * 200000).encode(),
    # the first number after a key: Python converts up to 4,300 digits to an int
    "4300-digits": lambda text: re.sub(r'(?<=": )[-+.e0-9]+', "9" * 4300, text, 1).encode(),
    "4301-digits": lambda text: re.sub(r'(?<=": )[-+.e0-9]+', "9" * 4301, text, 1).encode(),
}

JSON_EDITS = ("drop", *VALUES, *TEXT_EDITS)
CSV_CELLS = ("", "nan", "inf", "-1e308", "1" * 400, "true", "x", "1,2")
CSV_EDITS = ("drop", *CSV_CELLS, *TEXT_EDITS)

# How a message names a field of a case: its JSON path, as model and caseio spell it.
FIELD = re.compile(r"gridcoord: error: (\$|network|aggregators|wholesale|firm_load|tolerance"
                   r"|sweep_step)[.\[:]")


def _edited_json(doc, path, edit) -> bytes:
    if edit in TEXT_EDITS:
        return TEXT_EDITS[edit](json.dumps(doc, indent=1))
    doc = copy.deepcopy(doc)
    if edit in DOCUMENT_EDITS:
        DOCUMENT_EDITS[edit](doc)
        return json.dumps(doc).encode()
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    if edit == "drop":
        del node[key]
    else:
        node[key] = VALUES[edit]
    return json.dumps(doc).encode()


def _edited_csv(text, path, edit) -> bytes:
    if edit in TEXT_EDITS:
        return TEXT_EDITS[edit](text)
    (row, column), lines = path, text.splitlines()
    if edit == "drop":
        del lines[row]
    else:
        cells = lines[row].split(",")
        cells[column % len(cells)] = edit
        lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A directory holding the bundled case's curve files, CSV and JSON, as dso-bid writes them."""
    out = tmp_path_factory.mktemp("written")
    for fmt in ("csv", "json"):
        assert main(["dso-bid", "--case", "paper_reference", "--out", str(out),
                     "--format", fmt]) == 0
    return out


def _run(argv, named):
    """Run the CLI: a documented exit code and, on exit 1, one line naming ``named`` or a field."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4), (code, err)
    if code == 1:
        assert err.startswith("gridcoord: error: ") and err.count("\n") == 1, err
        assert str(named) in err or FIELD.match(err), err


TARGETS = st.one_of(
    st.tuples(st.just("case"), st.sampled_from(tuple(_paths(CASE))), st.sampled_from(
        JSON_EDITS + tuple(DOCUMENT_EDITS))),
    st.tuples(st.just("curve.json"), st.tuples(st.integers(0, 5), st.sampled_from(
        ("q_mw", "total_cost", "marginal_price"))), st.sampled_from(JSON_EDITS)),
    st.tuples(st.just("curve.csv"), st.tuples(st.integers(0, 6), st.integers(0, 2)),
              st.sampled_from(CSV_EDITS)),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(target=TARGETS)
@example(target=("case", (), "bom"))
@example(target=("case", (), "deep"))
@example(target=("case", (), "utf-16"))
@example(target=("case", (), "4300-digits"))
@example(target=("case", (), "4301-digits"))
@example(target=("case", ("network", "branches", 0, "r"), "huge"))
@example(target=("case", ("network", "branches", 0, "x"), "huge"))
@example(target=("case", ("aggregators", 3, "tan_phi"), "huge"))
@example(target=("case", ("aggregators", 5, "tan_phi"), "-huge"))
@example(target=("case", ("aggregators", 5, "blocks", 0, "price"), "huge"))
@example(target=("case", ("aggregators", 3, "blocks", 0, "price"), "-huge"))
@example(target=("case", ("network", "base_mva"), "tiny"))
@example(target=("case", ("aggregators", 0, "kind"), "string"))
@example(target=("case", ("aggregators", 0, "node"), "dangling-node"))
@example(target=("case", (), "cycle"))
@example(target=("case", (), "extra-branch"))
@example(target=("curve.csv", (), "bom"))
@example(target=("curve.csv", (), "blank-line"))
@example(target=("curve.csv", (), "utf-16"))
@example(target=("curve.json", (), "bom"))
@example(target=("curve.json", (), "deep"))
@example(target=("curve.json", (), "4300-digits"))
@example(target=("curve.json", (), "4301-digits"))
def test_malformed_input_ends_in_a_documented_exit_code_naming_the_file_or_field(
        written, tmp_path_factory, target):
    kind, path, edit = target
    tmp = tmp_path_factory.mktemp("run")
    case, curve = "paper_reference", written / "bid_curve.csv"
    if kind == "case":
        case = tmp / "case.json"
        case.write_bytes(_edited_json(CASE, path, edit))
    elif kind == "curve.json":
        curve = tmp / "bid_curve.json"
        records = json.loads((written / "bid_curve.json").read_text())
        curve.write_bytes(_edited_json(records, path, edit))
    else:
        curve = tmp / "bid_curve.csv"
        curve.write_bytes(_edited_csv((written / "bid_curve.csv").read_text(), path, edit))
    commands = ("dso-bid", "iso-clear", "coordinate", "ideal", "verify") if kind == "case" else (
        "iso-clear",)  # the only reader of a curve file
    for command in commands:
        extra = ["--curve", str(curve)] if command == "iso-clear" else []
        _run([command, "--case", str(case), *extra, "--out", str(tmp / "out")],
             case if kind == "case" else curve)
