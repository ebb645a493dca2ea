import json

import pytest

from gridcoord.caseio import (
    BUNDLED_CASES,
    CaseFileError,
    CaseSchemaError,
    CaseSyntaxError,
    parse_case,
    resolve_case_path,
    scenario_from_dict,
)
from gridcoord.model import (
    Aggregator,
    Block,
    BlockOfferStack,
    Branch,
    NetworkModel,
    Scenario,
    ValidationError,
    WholesaleParticipant,
    validate,
)

from support import unreadable_case


def test_bundled_cases_resolve_and_parse():
    for name in BUNDLED_CASES:
        assert resolve_case_path(name).exists()
        parse_case(name)


def test_reference_fixture_shape():
    scenario = parse_case("paper_reference")
    assert len(scenario.wholesale) == 6
    assert len(scenario.aggregators) == 6
    assert scenario.network.n_nodes == 10
    assert len(scenario.network.branches) == 9
    assert scenario.firm_wholesale_load == 5.0


def test_as_printed_fixture_differs_only_in_demand_capacity():
    ref = parse_case("paper_reference")
    printed = parse_case("paper_as_printed")
    dr3_ref = next(wp for wp in ref.wholesale if wp.id == "DR3")
    dr3_printed = next(wp for wp in printed.wholesale if wp.id == "DR3")
    assert dr3_ref.offers.blocks[0].p_max == 10.0
    assert dr3_printed.offers.blocks[0].p_max == 20.0
    assert ref.aggregators == printed.aggregators


def test_empty_file_is_a_syntax_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(CaseSyntaxError, match=r":1:1"):
        parse_case(path)


@pytest.mark.parametrize("which", ["long-integer", "utf-16"])
def test_a_file_that_is_not_json_text_is_a_syntax_error_naming_it(tmp_path, which):
    path = unreadable_case(tmp_path, which)
    with pytest.raises(CaseSyntaxError) as info:
        parse_case(path)
    assert str(info.value).startswith(f"{path}: ")


def test_a_case_file_with_a_utf8_byte_order_mark_reads_as_without_it(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + resolve_case_path("paper_reference").read_bytes())
    assert parse_case(path) == parse_case("paper_reference")


def test_json_nested_too_deep_is_a_syntax_error_naming_the_file(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(CaseSyntaxError) as info:
        parse_case(path)
    assert str(info.value).startswith(f"{path}: maximum recursion depth exceeded")


@pytest.mark.parametrize("section", ["aggregators", "wholesale"])
def test_an_unknown_participant_kind_is_a_schema_error_naming_the_field(tmp_path, section):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc[section][0]["kind"] = "XX"
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseSchemaError, match=rf"^{section}\[0\]\.kind: expected one of .*'XX'$"):
        parse_case(path)


def test_schema_error_names_the_offending_field(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["aggregators"][0]["blocks"][0]["price"] = "twenty"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseSchemaError, match=r"aggregators\[0\].blocks\[0\].price"):
        parse_case(path)


def test_an_integer_beyond_float_range_is_a_schema_error(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["firm_load"] = 10**400
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # 401 digits, which json reads back as an int
    with pytest.raises(CaseSchemaError, match=r"\$\.firm_load: number out of float range"):
        parse_case(path)


def test_missing_field_is_a_schema_error(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    del doc["network"]["u_min"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CaseSchemaError, match="network.u_min"):
        parse_case(path)


def test_invariant_breakage_is_a_validation_error(tmp_path):
    doc = json.loads(resolve_case_path("paper_reference").read_text())
    doc["aggregators"][0]["blocks"] = [
        {"p_max": 1.0, "price": 20.0},
        {"p_max": 1.0, "price": 10.0},  # decreasing supply prices
    ]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="nondecreasing"):
        parse_case(path)


def test_unknown_case_name(tmp_path):
    with pytest.raises(CaseFileError, match="not found"):
        parse_case(tmp_path / "nope.json")


def test_every_field_is_read(tmp_path):
    # Every field the reader reads, each set away from its default; node ids
    # out of order and a branch declared toward the substation.
    doc = {
        "network": {
            "base_mva": 10.0, "u_min": 0.9, "u_max": 1.1, "u_sub": 1.05, "substation": 1,
            "nodes": [{"id": 1, "lp": 0.0, "lq": 0.0},
                      {"id": 0, "lp": 0.5, "lq": -0.25},
                      {"id": 2, "lp": 0.75, "lq": 0.125}],
            "branches": [
                {"from": 1, "to": 0, "r": 0.01, "x": 0.02, "pl_max": 3.0, "ql_max": 1.5},
                {"from": 2, "to": 1, "r": 0.03, "x": 0.04, "pl_max": 2.5, "ql_max": 1.25},
            ],
        },
        "aggregators": [
            {"id": "G", "kind": "DDGAG", "node": 0, "tan_phi": 0.2,
             "blocks": [{"p_max": 1.0, "price": 12.0}, {"p_max": 0.5, "price": 15.0}]},
            {"id": "D", "kind": "DRAG", "node": 2, "tan_phi": 0.1,
             "blocks": [{"p_max": 0.4, "price": 30.0}]},
            {"id": "R", "kind": "REAG", "node": 2, "blocks": [], "fixed_output": 0.6},
        ],
        "wholesale": [
            {"id": "G1", "kind": "Gen", "blocks": [{"p_max": 5.0, "price": 20.0}]},
            {"id": "DR1", "kind": "DR", "blocks": [{"p_max": 2.0, "price": 40.0},
                                                   {"p_max": 1.0, "price": 35.0}]},
        ],
        "firm_load": 3.0,
        "sweep_step": 0.05,
        "tolerance": 1e-7,
    }
    expected = Scenario(
        network=NetworkModel(
            n_nodes=3,
            load_p=(0.5, 0.0, 0.75),
            load_q=(-0.25, 0.0, 0.125),
            branches=(Branch(1, 0, r=0.01, x=0.02, pl_max=3.0, ql_max=1.5),
                      Branch(2, 1, r=0.03, x=0.04, pl_max=2.5, ql_max=1.25)),
            substation=1, u_min=0.9, u_max=1.1, u_sub=1.05, base_mva=10.0,
        ),
        aggregators=(
            Aggregator("G", "DDGAG", 0, BlockOfferStack((Block(1.0, 12.0), Block(0.5, 15.0))),
                       tan_phi=0.2),
            Aggregator("D", "DRAG", 2, BlockOfferStack((Block(0.4, 30.0),)), tan_phi=0.1),
            Aggregator("R", "REAG", 2, BlockOfferStack(()), fixed_output=0.6),
        ),
        wholesale=(
            WholesaleParticipant("G1", "Gen", BlockOfferStack((Block(5.0, 20.0),))),
            WholesaleParticipant("DR1", "DR", BlockOfferStack((Block(2.0, 40.0),
                                                               Block(1.0, 35.0)))),
        ),
        firm_wholesale_load=3.0,
        sweep_step=0.05,
        tolerance=1e-7,
    )
    assert validate(expected) == []
    path = tmp_path / "full.json"
    path.write_text(json.dumps(doc))
    assert parse_case(path) == expected


def test_omitted_optional_fields_get_their_defaults():
    doc = {
        "network": {
            "u_min": 0.9, "u_max": 1.1, "u_sub": 1.0, "substation": 0,
            "nodes": [{"id": 0}, {"id": 1}],
            "branches": [{"from": 0, "to": 1, "r": 0.01, "x": 0.01,
                          "pl_max": 1.0, "ql_max": 1.0}],
        },
        "aggregators": [{"id": "R", "kind": "REAG", "node": 1}],
        "wholesale": [{"id": "G1", "kind": "Gen", "blocks": [{"p_max": 5.0, "price": 20.0}]}],
        "firm_load": 1.0,
    }
    assert scenario_from_dict(doc) == Scenario(
        network=NetworkModel(
            n_nodes=2, load_p=(0.0, 0.0), load_q=(0.0, 0.0),
            branches=(Branch(0, 1, r=0.01, x=0.01, pl_max=1.0, ql_max=1.0),),
            substation=0, u_min=0.9, u_max=1.1, u_sub=1.0, base_mva=1.0,
        ),
        aggregators=(Aggregator("R", "REAG", 1, BlockOfferStack(()), tan_phi=0.0,
                                fixed_output=0.0),),
        wholesale=(WholesaleParticipant("G1", "Gen", BlockOfferStack((Block(5.0, 20.0),))),),
        firm_wholesale_load=1.0,
        sweep_step=0.1,
        tolerance=1e-6,
    )
