"""Paths the other tests do not run: error paths in the loaders, the model,
the analytics, the scenarios and the CLI, and ``dump_portfolio`` on a
portfolio held as columns."""

import dataclasses
import io

import pytest

from geostress import (
    Portfolio,
    builtin_scenarios,
    compose_compound,
    dump_portfolio,
    group_el,
    load_portfolio,
    normalize_weights,
    parse_scenario,
    run_scenario,
    top_contributors,
    validate_portfolio,
)
from geostress.cli import main
from geostress.errors import (
    InvalidWeights,
    Misalignment,
    NegativeParameter,
    ScenarioParseError,
    SchemaMismatch,
    UnknownField,
)
from geostress.ingest import PORTFOLIO_HEADER
from geostress.model import InstrumentColumns
from test_cli import run_cli
from test_golden import INPUTS, gen
from test_model import inst


def test_dump_of_a_loaded_portfolio_is_its_file_and_keeps_its_columns(tmp_path):
    path = gen.generate(str(tmp_path), 1, 2000, 50, 5)["paths"][INPUTS[0]]
    with open(path, "rb") as source:
        data = source.read()
    portfolio = load_portfolio(io.BytesIO(data))
    assert dump_portfolio(portfolio) == data
    assert type(vars(portfolio)["instruments"]) is InstrumentColumns


def test_a_header_with_every_column_in_another_order():
    header = ",".join(reversed(PORTFOLIO_HEADER))
    with pytest.raises(SchemaMismatch, match=f"header {header} != expected"):
        load_portfolio(io.BytesIO(f"{header}\n".encode()))


def test_codes_of_contexts_that_miss_a_row(fixture_linked):
    short = dataclasses.replace(fixture_linked, contexts=fixture_linked.contexts[:-1])
    with pytest.raises(Misalignment, match="contexts do not match"):
        short.codes


@pytest.mark.parametrize("weights, message, rule", [
    ((1.0,), "expected 2 weights, got 1", "one weight per instrument"),
    ((1.5, -0.5), "weights must be >= 0", "each w >= 0"),
])
def test_provided_weights_of_the_wrong_count_or_sign(weights, message, rule):
    portfolio = Portfolio(instruments=(inst("a"), inst("b")), weights=weights)
    with pytest.raises(InvalidWeights, match=message):
        normalize_weights(portfolio)
    assert [(v.field, v.rule) for v in validate_portfolio(portfolio)] == [("weights", rule)]


def test_group_el_by_an_unknown_key_and_top_zero(fixture_linked):
    rows = run_scenario(fixture_linked, builtin_scenarios()[0])[0].rows
    with pytest.raises(ValueError, match="unknown grouping key 'county'"):
        group_el(rows, fixture_linked, by="county")
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        top_contributors(rows, 0)


def test_run_with_top_k_zero_exits_2(fixture_files, tmp_path, capsys):
    code, out = run_cli(fixture_files, tmp_path, "--builtin", "all", "--top-k", "0")
    assert code == 2 and not out.exists()
    assert capsys.readouterr() == ("", "error: --top-k must be >= 1\n")


def test_scenarios_print_maps_an_unexpected_error_to_exit_3(capsys, monkeypatch):
    def broken(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr("geostress.cli.serialize_scenario", broken)
    assert main(["scenarios", "print"]) == 3
    assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")


@pytest.mark.parametrize("fields, error, message", [
    ('"lambda": "x"', ScenarioParseError, "lambda: expected a number, got 'x'"),
    ('"betas": {"x": 1}', UnknownField, "betas.x"),
])
def test_scenario_value_of_the_wrong_type_or_name(fields, error, message):
    with pytest.raises(error, match=message):
        parse_scenario('{"id": "s", "kind": "compound", %s}' % fields)


def test_scenario_with_an_empty_id():
    with pytest.raises(ScenarioParseError, match="id must be a nonempty string"):
        parse_scenario('{"id": "", "kind": "compound"}')


def test_compose_compound_with_negative_financing():
    builtins = {s.id: s for s in builtin_scenarios()}
    with pytest.raises(NegativeParameter, match="financing_tightening: must be >= 0, got -0.1"):
        compose_compound(builtins["physical"], builtins["orderly"], financing_tightening=-0.1)
