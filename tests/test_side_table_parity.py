"""The chunked side-table loaders against row-by-row references.

The references are the hazard, fragility and registry loaders as they
were before they read chunks: one row at a time through
``conftest.reference_rows``, each row checked on its own. The loaders
must load what the references load, and reject what they reject with
the same exception type and message, wherever a chunk of rows ends.
"""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_rows
from geostress import (
    FragilityTable,
    HazardField,
    ingest,
    load_fragility,
    load_geounits,
    load_hazard_table,
)
from geostress.errors import (
    DuplicateKey,
    MalformedRow,
    NegativeFragility,
    NegativeIntensity,
    UnknownHazardToken,
)
from geostress.model import (
    CHANNEL_BY_TOKEN,
    HAZARD_BY_TOKEN,
    HAZARD_TYPES,
    GeoUnit,
)


def reference_load_hazard_table(source, filename: str = "hazards.csv") -> HazardField:
    entries = {}
    for lineno, row in reference_rows(source, filename, ingest.HAZARDS_HEADER):
        geo_id, token = row[0], row[1]
        hazard = HAZARD_BY_TOKEN.get(token)
        if hazard is None:
            raise UnknownHazardToken(f"{filename}:{lineno}: unknown hazard {token!r}")
        intensity = ingest._float(row[2], filename, lineno, "intensity")
        if intensity < 0.0:
            raise NegativeIntensity(f"{filename}:{lineno}: intensity {intensity} < 0")
        key = (geo_id, hazard)
        if key in entries:
            raise DuplicateKey(f"{filename}:{lineno}: duplicate ({geo_id}, {token})")
        entries[key] = intensity
    return HazardField(entries=entries)


def reference_load_fragility(source, filename: str = "fragility.csv") -> FragilityTable:
    entries = {}
    for lineno, row in reference_rows(source, filename, ingest.FRAGILITY_HEADER):
        geo_id = row[0]
        value = ingest._float(row[1], filename, lineno, "fragility")
        if value < 0.0:
            raise NegativeFragility(f"{filename}:{lineno}: fragility {value} < 0")
        if geo_id in entries:
            raise DuplicateKey(f"{filename}:{lineno}: duplicate geo_id {geo_id!r}")
        entries[geo_id] = value
    return FragilityTable(entries=entries)


def reference_load_geounits(source, filename: str = "geounits.csv") -> list[GeoUnit]:
    units = []
    seen = set()
    for lineno, row in reference_rows(source, filename, ingest.GEOUNITS_HEADER):
        geo_id, name, channel_token = row
        if not geo_id:
            raise MalformedRow(filename, lineno, "geo_id must be nonempty")
        if geo_id in seen:
            raise DuplicateKey(f"{filename}:{lineno}: duplicate geo_id {geo_id!r}")
        seen.add(geo_id)
        channel = CHANNEL_BY_TOKEN.get(channel_token)
        if channel is None:
            raise MalformedRow(filename, lineno, f"unknown channel {channel_token!r}")
        units.append(GeoUnit(id=geo_id, name=name, channel=channel))
    return units


# kind: (loader, reference, header, the number column or None, the token column or None)
_TABLES = {
    "hazards": (load_hazard_table, reference_load_hazard_table, ingest.HAZARDS_HEADER, 2, 1),
    "fragility": (load_fragility, reference_load_fragility, ingest.FRAGILITY_HEADER, 1, None),
    "geounits": (load_geounits, reference_load_geounits, ingest.GEOUNITS_HEADER, None, 2),
}


def _loaded(table):
    """What a loader returned, in a form that tells -0.0 from 0.0 and sees order."""
    if isinstance(table, list):
        return table
    return [(key, repr(value)) for key, value in table.entries.items()]


def _outcome(loader, data: bytes, filename: str):
    try:
        table = loader(io.BytesIO(data), filename=filename)
    except Exception as exc:  # the outcome under test may be any error
        return type(exc), str(exc)
    return "loaded", _loaded(table)


def _assert_same_outcome(kind: str, data: bytes, chunk_rows: int):
    loader, reference = _TABLES[kind][:2]
    expected = _outcome(reference, data, f"{kind}.csv")
    with mock.patch.object(ingest, "_CHUNK_ROWS", chunk_rows):
        assert _outcome(loader, data, f"{kind}.csv") == expected
    return expected


def _field(cell: str) -> str:
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _text(kind: str, rows: list, newline: str = "\n") -> bytes:
    """The kind's CSV; a row of None is a blank line. Fields that hold a
    line break, a comma or a quote are quoted, so their record spans lines."""
    lines = [_TABLES[kind][2], *([] if row is None else row for row in rows)]
    return "".join(",".join(map(_field, line)) + newline for line in lines).encode()


_GEO_IDS = [f"g{k}" for k in range(10)] + ["g\n10", "g\r\n11", "g,12", 'g"13', "g\r14"]
_number = st.floats(min_value=0.0, max_value=1e12).map(repr)


@st.composite
def _valid(draw, kind: str) -> list[list[str]]:
    """A valid table of 1 to 14 rows."""
    if kind == "hazards":
        keys = draw(st.lists(st.tuples(st.sampled_from(_GEO_IDS), st.sampled_from(HAZARD_TYPES)),
                             min_size=1, max_size=14, unique=True))
        return [[geo_id, hazard.value, draw(_number)] for geo_id, hazard in keys]
    geo_ids = draw(st.lists(st.sampled_from(_GEO_IDS), min_size=1, max_size=14, unique=True))
    if kind == "fragility":
        return [[geo_id, draw(_number)] for geo_id in geo_ids]
    channels = st.sampled_from(sorted(CHANNEL_BY_TOKEN))
    return [[geo_id, draw(st.sampled_from(["", "n", "a,b", "x\ny"])), draw(channels)]
            for geo_id in geo_ids]


_BAD_NUMBERS = ["abc", "nan", "-inf", "1e999", " 1", "1 ", "1_0", "", "-1.5", "-0.0", "0x1"]
_BAD_TOKENS = ["smog", "Flood", "WUI", "", " wui", "flood "]
_SPOILS = ["number", "token", "empty-geo", "duplicate", "short-row", "long-row", "blank-line"]


def _spoil(kind: str, rows: list, spoil: str, row: int, bad: int, other: int) -> list:
    """Spoil one row of a valid table: a cell, its key or its shape."""
    _, _, _, number_column, token_column = _TABLES[kind]
    if spoil in ("number", "token"):  # a table without one of the two spoils the other
        has_number = number_column is not None
        spoil = "number" if token_column is None or (spoil == "number" and has_number) else "token"
    cells = rows[row]
    if spoil == "number":
        cells[number_column] = _BAD_NUMBERS[bad % len(_BAD_NUMBERS)]
    elif spoil == "token":
        cells[token_column] = _BAD_TOKENS[bad % len(_BAD_TOKENS)]
    elif spoil == "empty-geo":
        cells[0] = ""
    elif spoil == "duplicate":
        source = rows[other % len(rows)]
        if source is not None:
            cells[:2 if kind == "hazards" else 1] = source[:2 if kind == "hazards" else 1]
    elif spoil == "short-row":
        del cells[bad % len(cells)]
    elif spoil == "long-row":
        cells.append("1")
    else:
        rows.insert(row, None)
    return rows


_spoils = st.tuples(
    st.sampled_from(_SPOILS),
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(_TABLES)),
    data=st.data(),
    spoils=st.lists(_spoils, min_size=1, max_size=2),
    newline=st.sampled_from(["\n", "\r\n"]),
    chunk_rows=st.sampled_from([1, 3, 4096]),
)
def test_a_spoiled_table_fails_as_the_reference_does(kind, data, spoils, newline, chunk_rows):
    rows = data.draw(_valid(kind))
    for spoil, where, bad, other in spoils:  # each on a row of the right width
        spoilable = [k for k, row in enumerate(rows) if row and len(row) == len(_TABLES[kind][2])]
        if spoilable:
            rows = _spoil(kind, rows, spoil, spoilable[where % len(spoilable)], bad, other)
    _assert_same_outcome(kind, _text(kind, rows, newline), chunk_rows)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(_TABLES)),
    data=st.data(),
    newline=st.sampled_from(["\n", "\r\n"]),
    chunk_rows=st.sampled_from([1, 3, 4096]),
)
def test_a_valid_table_loads_as_the_reference_does(kind, data, newline, chunk_rows):
    rows = data.draw(_valid(kind))
    assert _assert_same_outcome(kind, _text(kind, rows, newline), chunk_rows)[0] == "loaded"


def _rows(kind: str, n: int) -> list[list[str]]:
    hazards = [h.value for h in HAZARD_TYPES]
    return [{"hazards": [f"g{k // 4}", hazards[k % 4], "0.5"],
             "fragility": [f"g{k}", "0.5"],
             "geounits": [f"g{k}", f"n{k}", "wui"]}[kind] for k in range(n)]


_ROW_SPOILS = {  # (kind, spoil): replacement cells, given the spoiled row's cells
    ("hazards", "unknown-token"): lambda cells: [cells[0], "smog", cells[2]],
    ("hazards", "negative"): lambda cells: [cells[0], cells[1], "-1"],
    ("hazards", "not-a-number"): lambda cells: [cells[0], cells[1], "x"],
    ("hazards", "short-row"): lambda cells: cells[:2],
    ("fragility", "negative"): lambda cells: [cells[0], "-1"],
    ("fragility", "non-finite"): lambda cells: [cells[0], "1e999"],
    ("fragility", "long-row"): lambda cells: [*cells, "1"],
    ("geounits", "unknown-channel"): lambda cells: [cells[0], cells[1], "nowhere"],
    ("geounits", "empty-geo"): lambda cells: ["", cells[1], cells[2]],
}


@pytest.mark.parametrize("row", range(8))
@pytest.mark.parametrize("chunk_rows", [3, 4])
@pytest.mark.parametrize("kind, spoil", sorted(_ROW_SPOILS))
def test_a_bad_row_on_either_side_of_a_chunk_boundary(kind, spoil, row, chunk_rows):
    rows = _rows(kind, 8)
    rows[row] = _ROW_SPOILS[kind, spoil](rows[row])
    assert _assert_same_outcome(kind, _text(kind, rows), chunk_rows)[0] != "loaded"


@pytest.mark.parametrize("first, second", [(0, 1), (0, 2), (1, 2), (2, 3), (0, 7), (3, 4), (5, 6)])
@pytest.mark.parametrize("chunk_rows", [1, 3, 4, 4096])
@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_a_duplicate_within_or_across_chunks(kind, first, second, chunk_rows):
    rows = _rows(kind, 8)
    width = 2 if kind == "hazards" else 1
    rows[second][:width] = rows[first][:width]
    expected = _assert_same_outcome(kind, _text(kind, rows), chunk_rows)
    assert expected[0] is DuplicateKey
    assert expected[1].startswith(f"{kind}.csv:{second + 2}: duplicate")


@pytest.mark.parametrize("tokens", [["-0.0"], ["1.7e308", "1.7e308"]],
                         ids=["negative-zero", "finite-numbers-whose-sum-overflows"])
@pytest.mark.parametrize("chunk_rows", [1, 3, 4096])
@pytest.mark.parametrize("kind", ["fragility", "hazards"])
def test_numbers_that_fail_no_row_check_load(kind, chunk_rows, tokens):
    rows = _rows(kind, 4)
    for cells, token in zip(rows[1:], tokens):
        cells[_TABLES[kind][3]] = token
    assert _assert_same_outcome(kind, _text(kind, rows), chunk_rows)[0] == "loaded"


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4096])
@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_blank_lines_are_skipped_and_counted(kind, chunk_rows):
    rows = _rows(kind, 6)
    rows[4] = _ROW_SPOILS[min(k for k in _ROW_SPOILS if k[0] == kind)](rows[4])
    rows[1:1] = [None, None]
    rows.append(None)
    expected = _assert_same_outcome(kind, _text(kind, rows), chunk_rows)
    assert expected[1].startswith(f"{kind}.csv:8: ")
