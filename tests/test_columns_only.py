"""One representation: instruments, contexts and result rows are held as
columns however they were given, so a portfolio built from rows, one built
from columns, one loaded and one copied by ``dataclasses.replace`` take the
same checks and give the same outcome; and ``stress validate`` rejects what
every ``stress run`` rejects whatever its scenarios, with the same line."""

import contextlib
import dataclasses
import io
import math
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FRAGILITY, make_hazard_field, make_registry
from geostress import (
    FragilityTable,
    Instrument,
    Portfolio,
    builtin_scenarios,
    cli,
    link_exposures,
    run_scenario,
)
from geostress.ingest import ContextColumns
from geostress.model import InstrumentColumns, RowColumns
from test_context_columns import _load_linked
from test_golden import INPUTS, gen
from test_pipeline import _outcome

NUMBERS = ("ead", "pd0", "lgd0", "value", "adaptation")


def _columns(instruments):
    """Instruments as columns, built here as ``load_portfolio`` builds them:
    first-appearance codes and float arrays."""
    geo_ids = tuple(dict.fromkeys(i.geo_id for i in instruments))
    sectors = tuple(dict.fromkeys(i.sector for i in instruments))
    return InstrumentColumns(
        tuple(i.id for i in instruments),
        geo_ids, [geo_ids.index(i.geo_id) for i in instruments],
        sectors, [sectors.index(i.sector) for i in instruments],
        *(array("d", [getattr(i, name) for i in instruments]) for name in NUMBERS),
    )


def _run(instruments, weights, scenario):
    """The outcome of linking and running a portfolio of ``instruments``, given
    as rows or as columns: the results' repr, or the error."""
    def evaluate():
        linked = link_exposures(Portfolio(instruments, weights), make_hazard_field(),
                                FragilityTable(entries=dict(FRAGILITY)), make_registry())
        return run_scenario(linked, scenario)
    return _outcome(evaluate)


_field = (st.floats(min_value=0.0, max_value=1.0)
          | st.floats(min_value=0.0, max_value=1e6)
          | st.sampled_from([0.0, -1.0, -5.0, 1.5, 1.7e308, math.nan, math.inf, -math.inf]))
_instruments = st.lists(
    st.builds(
        Instrument,
        id=st.just(""),  # numbered below, so ids stay unique
        geo_id=st.sampled_from(["g1", "g2", "g3", "g4"]),
        sector=st.sampled_from(["agriculture", "retail", "mining"]),
        **{name: _field for name in NUMBERS},
    ),
    min_size=1,
    max_size=6,
)
_GOOD = Instrument("good", "g1", "retail", 100.0, 0.05, 0.4, 120.0, 0.2)


@settings(max_examples=300, deadline=None)
@given(instruments=_instruments, provided=st.booleans(),
       scenario=st.sampled_from(builtin_scenarios()))
@example(instruments=[_GOOD, dataclasses.replace(_GOOD, pd0=1.5)], provided=True,
         scenario=builtin_scenarios()[3])
@example(instruments=[_GOOD, dataclasses.replace(_GOOD, lgd0=-1.0)], provided=True,
         scenario=builtin_scenarios()[3])
@example(instruments=[_GOOD, dataclasses.replace(_GOOD, ead=-5.0)], provided=True,
         scenario=builtin_scenarios()[3])
@example(instruments=[_GOOD, dataclasses.replace(_GOOD, ead=math.nan)], provided=True,
         scenario=builtin_scenarios()[3])
def test_rows_and_columns_give_the_same_outcome(instruments, provided, scenario):
    rows = tuple(dataclasses.replace(inst, id=f"i{k}") for k, inst in enumerate(instruments))
    weights = (1.0 / len(rows),) * len(rows) if provided else None
    assert _run(rows, weights, scenario) == _run(_columns(rows), weights, scenario)


def test_out_of_domain_columns_fail_with_the_field_named():
    rows = (_GOOD, dataclasses.replace(_GOOD, id="bad", pd0=1.5))
    outcome = _run(_columns(rows), (0.5, 0.5), builtin_scenarios()[3])
    assert outcome == "DomainError: pd0 must lie in [0,1], got 1.5"


def test_replace_and_reads_keep_the_columns(tmp_path):
    paths = gen.generate(str(tmp_path), 5, 1200, 4, 5)["paths"]
    linked = _load_linked(paths)
    copy = dataclasses.replace(linked, weight_source="provided")
    linked.portfolio.instruments, copy.contexts  # reads build rows beside the columns
    for held in (linked, copy):
        assert type(vars(held)["contexts"]) is ContextColumns
        assert type(vars(held.portfolio)["instruments"]) is InstrumentColumns
    assert copy.portfolio is linked.portfolio
    assert copy.codes.contexts == linked.codes.contexts
    for scenario in builtin_scenarios():
        result, report = run_scenario(linked, scenario)
        copied, copied_report = run_scenario(copy, scenario)
        assert type(vars(result)["rows"]) is RowColumns
        assert repr(copied) == repr(result)
        assert copied_report.weight_source == "provided"
        assert repr(dataclasses.replace(copied_report, weight_source=linked.weight_source)) == (
            repr(report))
    portfolio = dataclasses.replace(linked.portfolio, weights=None)
    assert type(vars(portfolio)["instruments"]) is InstrumentColumns
    assert portfolio.instruments == linked.portfolio.instruments


def _spoil(path, change):
    """Rewrite each data row of the portfolio CSV at ``path`` by ``change(k, cells)``."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    columns = header.split(",")
    rows = []
    for k, line in enumerate(lines):
        cells = dict(zip(columns, line.split(",")))
        change(k, cells)
        rows.append(",".join(cells[c] for c in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "change, line",
    [
        (lambda k, cells: cells.update(ead="1.7e308") if k < 2 else None,
         "error: NonFiniteSum: HHI basis sums to inf\n"),
        (lambda k, cells: cells.update(ead="0.0"),
         "error: AllZero: HHI needs at least one strictly positive entry\n"),
        (lambda k, cells: cells.update(pd0="0.0"),
         "error: AllZero: HHI needs at least one strictly positive entry\n"),
    ],
    ids=["two-eads-at-1.7e308", "every-ead-0", "every-pd0-0"],
)
def test_validate_rejects_what_every_run_rejects(tmp_path, change, line):
    paths = gen.generate(str(tmp_path), 1, 2000, 20, 5)["paths"]
    _spoil(paths["portfolio"], change)
    flags = [flag for name in INPUTS for flag in (f"--{name}", paths[name])]
    out = str(tmp_path / "report.json")
    assert _main(["run", *flags, "--builtin", "all", "--out", out]) == (2, "", line)
    assert _main(["validate", *flags]) == (2, "", line)
    assert not (tmp_path / "report.json").exists()
