"""Each loaded number is checked once: ``load_portfolio`` checks its number
columns and hands them out read-only, so ``LinkedPortfolio.codes`` trusts
those exact columns and does not test them again. A copy, a hand-built
portfolio or a column that can be written is checked as before. Every
sequence the codes hold, and so every sequence a run reads, is a tuple or a
read-only column, so no write after the check reaches a report. Each
instrument field's domain is declared once, in ``model.DOMAINS``."""

import argparse
import dataclasses
import io
import math
import pickle
from operator import attrgetter

import pytest

from conftest import FRAGILITY, make_hazard_field, make_portfolio, make_registry
from geostress import (
    Channel,
    FragilityTable,
    Portfolio,
    builtin_scenarios,
    cli,
    ingest,
    link_exposures,
    load_portfolio,
    model,
    normalize_weights,
    run_scenario,
    validate_portfolio,
)
from geostress.errors import DomainError, InvariantViolation
from geostress.ingest import ContextColumns, LinkCodes
from geostress.model import DOMAINS, InstrumentColumns
from test_columns_only import _GOOD, _columns
from test_context_columns import _load_linked
from test_golden import INPUTS, gen

_SCENARIO = builtin_scenarios()[3]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return gen.generate(str(tmp_path_factory.mktemp("inputs")), 1, 2000, 20, 5)["paths"]


def _copy(obj):
    return pickle.loads(pickle.dumps(obj))


def _runs(linked):
    return [repr(run_scenario(linked, scenario)) for scenario in builtin_scenarios()]


def _rows(**changes):
    """Four good rows, one per conftest geo unit; ``changes`` go to the last one."""
    rows = [dataclasses.replace(_GOOD, id=f"i{k}", geo_id=f"g{k + 1}") for k in range(4)]
    rows[-1] = dataclasses.replace(rows[-1], **changes)
    return tuple(rows)


def _link(instruments, weights=None):
    return link_exposures(Portfolio(instruments, weights), make_hazard_field(),
                          FragilityTable(entries=dict(FRAGILITY)), make_registry())


def _outcome(evaluate):
    try:
        return repr(evaluate())
    except Exception as exc:  # the outcome under test may be any error
        return f"{type(exc).__name__}: {exc}"


def _cli_linked(paths, pinned, cpus):
    """The portfolio at ``paths`` as ``stress run`` loads and links it on ``cpus`` CPUs."""
    return pinned(cpus, cli._load_linked, argparse.Namespace(**{n: paths[n] for n in INPUTS}))


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("codes_built", [False, True], ids=["before-codes", "after-codes"])
def test_loaded_portfolios_pickle(paths, pinned, codes_built, cpus):
    linked = _cli_linked(paths, pinned, cpus)
    if codes_built:
        linked.codes
    expected = _runs(linked)
    for original in (linked.portfolio, linked):
        copy = _copy(original)
        assert copy == original and repr(copy) == repr(original)
    copy = _copy(linked)
    assert _runs(copy) == expected
    assert _runs(linked) == expected
    # The copy's number columns view the unpickled bytes: read-only as well.
    with pytest.raises(TypeError):
        copy.codes.columns.ead[0] = -1e6
    assert type(copy.codes.columns.ead.obj) is bytes
    with pytest.raises(TypeError):  # the hazard column too
        copy.codes.contexts.hazards[0] = -1e6
    assert type(copy.codes.contexts.hazards.obj) is bytes


def test_a_loaded_column_cannot_be_written_after_a_run(paths):
    linked = _load_linked(paths)
    before = repr(run_scenario(linked, _SCENARIO))
    columns = linked.codes.columns
    assert columns is vars(linked.portfolio)["instruments"]  # trusted as loaded: no copy
    for name in DOMAINS:
        with pytest.raises(TypeError):
            getattr(columns, name)[0] = -1e6
        assert type(getattr(columns, name).obj) is bytes  # nothing writable behind the view
    assert repr(run_scenario(linked, _SCENARIO)) == before


def test_a_hand_built_column_written_after_a_run_does_not_reach_a_report():
    columns = _columns(_rows())
    linked = _link(columns)
    before = repr(run_scenario(linked, _SCENARIO))
    with pytest.raises(TypeError):  # the codes hold a read-only copy of the array
        linked.codes.columns.ead[0] = -1e6
    columns.ead[0] = -1e6  # the caller's own array
    assert repr(run_scenario(linked, _SCENARIO)) == before
    message = "ead must be >= 0 and finite, got -1000000.0"
    with pytest.raises(DomainError, match=message):  # a new link checks what it is given
        run_scenario(_link(columns), _SCENARIO)


def test_the_linked_fragility_cannot_be_written_after_a_run(tmp_path):
    # cli_json's inputs: gen.py seed 1, 15,000 instruments, 50 geo units, 5 sectors. A write
    # to the fragility column that codes checked once used to reach the next run: its
    # total_el went to 13,232,301,303.17 with no error.
    linked = _load_linked(gen.generate(str(tmp_path), 1, 15_000, 50, 5)["paths"])
    before = run_scenario(linked, _SCENARIO)[0].total_el
    assert f"{before:,.2f}" == "13,489,757,035.15"
    with pytest.raises(TypeError):
        linked.codes.contexts.fragility[0] = -1e6
    assert type(linked.codes.contexts.fragility.obj) is bytes  # nothing writable behind it
    assert run_scenario(linked, _SCENARIO)[0].total_el == before
    copy = _copy(linked)  # pickled with its codes: the copy's column is read-only as well
    with pytest.raises(TypeError):
        copy.codes.contexts.fragility[0] = -1e6
    assert run_scenario(copy, _SCENARIO)[0].total_el == before


# Every sequence the codes hold, by its path from ``linked.codes``.
_HELD = [*(f"columns.{name}" for name in InstrumentColumns._fields), "weights",
         *(f"contexts.{name}" for name in ContextColumns._fields),
         *(f.name for f in dataclasses.fields(LinkCodes)[3:])]
_PORTFOLIOS = ["loaded-1-cpu", "loaded-2-cpus", "instruments", "list-codes"]


def _linked(kind, paths, pinned):
    """A loaded portfolio as ``stress run`` links it, on one or two CPUs; or the conftest
    portfolio from ``Instrument`` rows, or from columns with list codes and float arrays."""
    if kind.startswith("loaded"):
        return _cli_linked(paths, pinned, 1 if kind == "loaded-1-cpu" else 2)
    instruments = make_portfolio().instruments
    return _link(instruments if kind == "instruments" else _columns(instruments))


@pytest.mark.parametrize("path", _HELD)
@pytest.mark.parametrize("kind", _PORTFOLIOS)
def test_no_write_after_a_run_reaches_the_next(paths, pinned, kind, path):
    linked = _linked(kind, paths, pinned)
    before = repr(run_scenario(linked, _SCENARIO))
    held = attrgetter(path)(linked.codes)
    assert type(held) is tuple or model._frozen(held)
    value = held[0]
    assert type(value) in (int, float, str, Channel)  # a value, not a nested column
    with pytest.raises(TypeError):
        held[0] = value + 1 if type(value) in (int, float) else None
    assert repr(run_scenario(linked, _SCENARIO)) == before


def test_on_two_cpus_the_codes_copy_no_column_the_link_made(paths, pinned):
    linked = _cli_linked(paths, pinned, 2)
    made = vars(linked)["contexts"]
    assert linked.codes.contexts.hazards is made.hazards
    assert all(map(model._frozen, (made.hazards, made.fragility)))
    assert all(a is b for a, b in zip(linked.codes.contexts, made))
    assert linked.codes.columns is vars(linked.portfolio)["instruments"]


def test_the_trust_record_holds_only_loaded_columns(paths):
    held = list(model._CHECKED.values())  # alive until the end: no id is reused
    normalized = normalize_weights(Portfolio(_rows(), (0.25,) * 4))  # checked, kept alive
    with open(paths["portfolio"], "rb") as source:
        columns = vars(load_portfolio(source))["instruments"]
    added = [v for v in model._CHECKED.values() if not any(v is h for h in held)]
    assert sorted(map(id, added)) == sorted(id(getattr(columns, name)) for name in DOMAINS)
    assert normalized.weights == (0.25,) * 4


def test_codes_test_only_the_number_columns_no_load_checked(paths, monkeypatch):
    tested = []
    check = ingest._check_columns
    monkeypatch.setattr(ingest, "_check_columns",
                        lambda **columns: (tested.append(sorted(columns)), check(**columns))[1])
    numbers = sorted(DOMAINS)
    linked = _load_linked(paths)
    linked.codes
    dataclasses.replace(linked, weight_source="provided").codes  # the same columns
    assert tested == [["fragility"], ["fragility"]]
    tested.clear()
    # A pickled copy is checked as no load checked it.
    copy = dataclasses.replace(linked, portfolio=_copy(linked.portfolio))
    copy.codes
    assert tested == [numbers, ["fragility"]]
    held = vars(copy.portfolio)["instruments"]
    assert all(getattr(copy.codes.columns, name) is getattr(held, name)  # read-only already
               for name in DOMAINS)
    tested.clear()
    loaded = vars(linked.portfolio)["instruments"]
    mixed = loaded._replace(ead=_columns(linked.portfolio.instruments).ead)  # one array
    relinked = dataclasses.replace(linked, portfolio=Portfolio(mixed, linked.portfolio.weights))
    assert relinked.codes.columns.pd0 is loaded.pd0  # only the array is copied
    assert relinked.codes.columns.ead is not mixed.ead
    assert tested == [numbers, ["fragility"]]


@pytest.mark.parametrize("weights, checks", [
    # Given weights: normalize_weights checks them, and each build of codes checks them again.
    ((0.25, 0.25, 0.25, 0.25), 3),
    ([0.25, 0.25, 0.25, 0.25], 3),
    (None, 2),  # derived weights: each build of codes checks them
])
def test_provided_weights_are_checked_once(monkeypatch, weights, checks):
    calls = []
    check = model._check_weights

    def counted(*args):
        calls.append(args)
        check(*args)
    monkeypatch.setattr(model, "_check_weights", counted)
    monkeypatch.setattr(ingest, "_check_weights", counted)
    linked = _link(_rows(), weights)
    run_scenario(linked, _SCENARIO)
    run_scenario(dataclasses.replace(linked, weight_source="x"), _SCENARIO)  # same portfolio
    assert len(calls) == checks


def _loaded(rows):
    lines = ["id,geo_id,sector,ead,pd0,lgd0,value,adaptation"] + [
        ",".join([r.id, r.geo_id, r.sector, *(repr(getattr(r, name)) for name in
                                            ("ead", "pd0", "lgd0", "value", "adaptation"))])
        for r in rows]
    return load_portfolio(io.BytesIO("\n".join(lines).encode()), filename="p.csv")


@pytest.mark.parametrize("name", list(DOMAINS))
def test_each_field_takes_its_declared_domain_everywhere(name):
    bound = DOMAINS[name]
    for value in (0.0, bound if bound == 1.0 else 1e300):  # the edges pass
        rows = _rows(**{name: value})
        assert validate_portfolio(Portfolio(rows)) == []
        expected = _outcome(lambda: run_scenario(_link(rows), _SCENARIO))
        assert expected.startswith("(StressResult(")
        assert _outcome(lambda: run_scenario(_link(_columns(rows)), _SCENARIO)) == expected
        assert _outcome(lambda: run_scenario(_link(_loaded(rows).instruments), _SCENARIO)) == (
            expected)
    rule = "∈ [0,1]" if bound == 1.0 else ">= 0 and finite"
    text = "must lie in [0,1]" if bound == 1.0 else "must be >= 0 and finite"
    for value in (-1.0, math.nan, math.inf, -0.5 if bound == math.inf else 1.5):
        rows = _rows(**{name: value})
        assert [(v.field, v.rule) for v in validate_portfolio(Portfolio(rows))] == [
            (name, f"{name} {rule}")]
        for given in (rows, _columns(rows)):  # weights given, so none derives from a bad value
            assert _outcome(lambda: run_scenario(_link(given, (0.25,) * 4), _SCENARIO)) == (
                f"DomainError: {name} {text}, got {value}")


def test_a_row_with_two_faults_names_them_in_each_owners_order():
    rows = _rows(ead=-1.0, adaptation=-2.0)
    assert [v.field for v in validate_portfolio(Portfolio(rows))] == ["ead", "adaptation"]
    with pytest.raises(InvariantViolation, match="ead: ead >= 0 and finite; instrument 'i3': "
                                                 "adaptation: adaptation >= 0"):
        _loaded(rows)
    for given in (rows, _columns(rows)):  # the codes name adaptation first, as they always have
        assert _outcome(lambda: run_scenario(_link(given), _SCENARIO)) == (
            "DomainError: adaptation must be >= 0 and finite, got -2.0")


def test_a_loaded_column_sum_that_overflows_is_no_fault():
    rows = tuple(dataclasses.replace(row, ead=1.7e308) for row in _rows())
    columns = vars(_loaded(rows))["instruments"]
    assert list(columns.ead) == [1.7e308] * 4
    assert all(type(getattr(columns, name)) is memoryview for name in DOMAINS)
    assert type(columns) is InstrumentColumns
