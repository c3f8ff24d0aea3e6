"""The columnar portfolio loader against a row-by-row reference.

``reference_load_portfolio`` is the loader as it was before the portfolio
was held as columns: one ``Instrument`` per row, each row's numbers
checked on their own, then ``validate_portfolio`` over the instruments.
The columnar loader must load what it loads, and reject what it rejects
with the same exception type and message, wherever a chunk of rows ends.
"""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_rows
from geostress import (
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    cli,
    ingest,
    link_exposures,
    load_portfolio,
    validate_portfolio,
)
from geostress.errors import InvariantViolation, UnresolvedGeo
from geostress.model import InstrumentColumns

HEADER = "id,geo_id,sector,ead,pd0,lgd0,value,adaptation"
NUMBER_COLUMNS = range(3, 8)


def reference_load_portfolio(source, filename: str = "portfolio.csv") -> Portfolio:
    """Load a portfolio CSV one row at a time, into instruments."""
    instruments = []
    for lineno, row in reference_rows(source, filename, ingest.PORTFOLIO_HEADER):
        inst_id, geo_id, sector = row[0], row[1], row[2]
        ead, pd0, lgd0, value, adaptation = ingest._portfolio_numbers(row[3:], filename, lineno)
        instruments.append(Instrument(inst_id, geo_id, sector, ead, pd0, lgd0, value, adaptation))
    portfolio = Portfolio(instruments=tuple(instruments))
    violations = validate_portfolio(portfolio)
    if violations:
        raise InvariantViolation(f"{filename}: " + "; ".join(str(v) for v in violations))
    return portfolio


def _outcome(loader, data: bytes):
    try:
        portfolio = loader(io.BytesIO(data), filename="p.csv")
    except Exception as exc:  # the outcome under test may be any error
        return type(exc), str(exc)
    return "loaded", portfolio.instruments, portfolio.weights


def _assert_same_outcome(data: bytes, chunk_rows: int) -> None:
    expected = _outcome(reference_load_portfolio, data)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        assert _outcome(load_portfolio, data) == expected


def _text(rows: list[list[str]]) -> bytes:
    return "\n".join([HEADER, *(",".join(row) for row in rows), ""]).encode()


_fraction = st.floats(min_value=0.0, max_value=1.0)
_amount = st.floats(min_value=0.0, max_value=1e12)


@st.composite
def _rows(draw) -> list[list[str]]:
    """A valid portfolio of 1 to 12 rows, numbers written as ``repr``."""
    n = draw(st.integers(min_value=1, max_value=12))
    rows = []
    for k in range(n):
        numbers = draw(st.tuples(_amount, _fraction, _fraction, _amount, _amount))
        rows.append([f"n{k}", f"g{draw(st.integers(0, 3))}", f"s{draw(st.integers(0, 2))}",
                     *map(repr, numbers)])
    return rows


_BAD_TOKENS = ["abc", "nan", "-inf", "1e999", " 1", "1 ", "1_0", "", "0x1", "١", "1,5"]
_SPOILS = ["token", "negative", "above-one", "duplicate-id", "empty-id", "short-row", "long-row"]


def _spoil(rows: list[list[str]], kind: str, row: int, column: int, token: str, other: int):
    """Spoil one cell, or the shape of one row, of a valid portfolio."""
    cells = rows[row]
    if kind == "token":
        cells[column] = token
    elif kind == "negative":
        cells[column] = "-" + cells[column].lstrip("-") if cells[column] != "0.0" else "-1.0"
    elif kind == "above-one":
        cells[4 + column % 2] = "1.5"  # pd0 or lgd0
    elif kind == "duplicate-id":
        cells[0] = rows[other % len(rows)][0]
    elif kind == "empty-id":
        cells[0] = ""
    elif kind == "short-row":
        del cells[column]
    else:
        cells.append("1")
    return rows


@settings(max_examples=300, deadline=None)
@given(
    rows=_rows(),
    kind=st.sampled_from(_SPOILS),
    where=st.integers(min_value=0),
    column=st.sampled_from(NUMBER_COLUMNS),
    token=st.sampled_from(_BAD_TOKENS),
    other=st.integers(min_value=0, max_value=11),
    chunk_rows=st.sampled_from([3, 4096]),
)
def test_a_spoiled_portfolio_fails_as_the_reference_does(
    rows, kind, where, column, token, other, chunk_rows
):
    data = _text(_spoil(rows, kind, where % len(rows), column, token, other))
    _assert_same_outcome(data, chunk_rows)


@settings(max_examples=100, deadline=None)
@given(rows=_rows(), chunk_rows=st.sampled_from([1, 3, 4096]))
def test_a_valid_portfolio_loads_as_the_reference_does(rows, chunk_rows):
    _assert_same_outcome(_text(rows), chunk_rows)


def _valid_rows(n: int) -> list[list[str]]:
    return [[f"n{k}", f"g{k % 4}", f"s{k % 3}", "100.0", "0.02", "0.4", "120.0", "0.1"]
            for k in range(n)]


@pytest.mark.parametrize("row", range(8))
@pytest.mark.parametrize("chunk_rows", [3, 4])
def test_a_bad_cell_on_either_side_of_a_chunk_boundary(row, chunk_rows):
    for token in ("nan", "x", "-1.0"):
        rows = _valid_rows(8)
        rows[row][6] = token
        _assert_same_outcome(_text(rows), chunk_rows)


@pytest.mark.parametrize("chunk_rows", [2, 3, 4096])
def test_a_bad_number_above_a_short_row_is_named_first(chunk_rows):
    rows = _valid_rows(6)
    rows[1][3] = "1e999"
    del rows[2][5]
    data = _text(rows)
    assert _outcome(reference_load_portfolio, data)[1].startswith("p.csv:3: malformed row: ead")
    _assert_same_outcome(data, chunk_rows)


@pytest.mark.parametrize("chunk_rows", [3, 4096])
def test_a_chunk_whose_column_sum_overflows_loads(chunk_rows):
    rows = _valid_rows(6)
    for cells in rows[:3]:
        cells[3] = cells[6] = "1.7e308"  # ead and value: finite, but their sums are not
    data = _text(rows)
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        loaded = load_portfolio(io.BytesIO(data))
    assert loaded.instruments[0].ead == 1.7e308
    _assert_same_outcome(data, chunk_rows)


def test_a_loaded_portfolio_holds_columns_and_reads_as_the_reference(fixture_files):
    with open(fixture_files["portfolio"], "rb") as fh:
        loaded = load_portfolio(fh)
    with open(fixture_files["portfolio"], "rb") as fh:
        expected = reference_load_portfolio(fh)
    assert type(vars(loaded)["instruments"]) is InstrumentColumns
    assert loaded.instruments == expected.instruments
    assert all(type(inst) is Instrument for inst in loaded.instruments)
    assert type(vars(loaded)["instruments"]) is tuple  # built once, on first read
    assert loaded == expected and repr(loaded) == repr(expected)


def test_stress_run_builds_no_instrument(fixture_files, tmp_path, capsys, monkeypatch):
    built = []
    init = Instrument.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instrument, "__init__", counted)
    argv = ["run", "--builtin", "all", "--out", str(tmp_path / "report.json")]
    argv += [flag for name, path in fixture_files.items() for flag in (f"--{name}", str(path))]
    assert cli.main(argv) == 0
    assert "compound: total_el=" in capsys.readouterr().out
    assert built == []


def test_an_unresolved_geo_names_the_first_row_located_there():
    rows = _valid_rows(3)
    rows[1][1] = "g0"
    rows[2][1] = "nowhere"  # geo code 1, first on row 2
    portfolio = load_portfolio(io.BytesIO(_text(rows)))
    hazards = HazardField({(f"g{k}", h): 0.1 for k in range(4) for h in HazardType})
    fragility = FragilityTable({f"g{k}": 0.1 for k in range(4)})
    registry = [GeoUnit(f"g{k}", f"g{k}", Channel.OTHER) for k in range(4)]
    with pytest.raises(UnresolvedGeo) as raised:
        link_exposures(portfolio, hazards, fragility, registry)
    assert str(raised.value) == str(UnresolvedGeo("n2", "nowhere"))
