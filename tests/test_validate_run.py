"""``stress validate`` and ``stress run`` agree on generated inputs.

Small ``perfbench/gen.py`` input sets, each with up to two spoils from a
fixed menu, go through ``validate``, through ``run`` with the identity
scenario, and through the library: the four public loaders,
``link_exposures`` and ``run_scenario``. Both commands must give the same
exit code, the same stderr line when that code is 2, and never 3; the
library raises the error of that line, and nothing when ``run`` exits 0.
The loaders read 3 rows at a time, so a spoil past the first lines sits
past a chunk end.
"""

from __future__ import annotations

import json
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from geostress import (
    ingest,
    link_exposures,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
    parse_scenario,
    run_scenario,
)
from geostress.errors import StressError
from test_columns_only import _main
from test_golden import INPUTS, gen

IDENTITY = {"id": "identity", "kind": "orderly_transition"}
PORTFOLIO = ("id", "geo_id", "sector", "ead", "pd0", "lgd0", "value", "adaptation")


def _data_line(lines: list[str], k: int, past: int = 0) -> int:
    """A data line's index, chosen by ``k``, at or after ``past`` if there is one."""
    first = 1 + past if len(lines) > 1 + past else 1
    return first + k % (len(lines) - first)


def _set_cell(files, k, name, column, token):
    lines = files[name]
    at = _data_line(lines, k)
    cells = lines[at].split(",")
    if column < len(cells):  # a row that "short-row" cut has no last cell to set
        cells[column] = token
    lines[at] = ",".join(cells)


def _set_column(files, name, token):
    lines = files["portfolio"]
    for at in range(1, len(lines)):
        cells = lines[at].split(",")
        cells[PORTFOLIO.index(name)] = token
        lines[at] = ",".join(cells)


def _duplicate(files, k):
    lines = files[INPUTS[k % len(INPUTS)]]
    lines.insert(1, lines[_data_line(lines, k // len(INPUTS))])


def _drop(files, k, name):
    lines = files[name]
    del lines[_data_line(lines, k)]


def _huge_eads(files, k, **tokens):
    lines = files["portfolio"]
    for at in {_data_line(lines, k), _data_line(lines, k + 1)}:
        cells = lines[at].split(",")
        for name, token in {"ead": "1.7e308", **tokens}.items():
            cells[PORTFOLIO.index(name)] = token
        lines[at] = ",".join(cells)


def _quoted_break(files, k):
    """A line break in a portfolio id or a geo unit's name, which no check reads."""
    name, column = [("portfolio", 0), ("geounits", 1)][k % 2]
    lines = files[name]
    at = _data_line(lines, k // 2)
    cells = lines[at].split(",")
    cells[column] = f'"{cells[column][:1]}\n{cells[column][1:]}"'
    lines[at] = ",".join(cells)


def _short_row(files, k):
    name = INPUTS[k % len(INPUTS)]
    lines = files[name]
    at = _data_line(lines, k // len(INPUTS), past=3)
    lines[at] = lines[at].rsplit(",", 1)[0]


def _library(paths):
    """The error line ``stress run`` would print for the library's first fault, or ""."""
    try:
        tables = []
        for name, load in zip(INPUTS, (load_portfolio, load_hazard_table, load_fragility,
                                       load_geounits)):
            with open(paths[name], "rb") as source:
                tables.append(load(source, filename=paths[name]))
        run_scenario(link_exposures(*tables), parse_scenario(json.dumps(IDENTITY)))
    except StressError as exc:
        return f"error: {type(exc).__name__}: {exc}\n"
    return ""


# Spoils of the lines of each file, header first.
SPOILS = {
    "unknown-hazard": lambda files, k: _set_cell(files, k, "hazards", 1, "tsunami"),
    "negative-intensity": lambda files, k: _set_cell(files, k, "hazards", 2, "-0.5"),
    "duplicate-key": _duplicate,
    "missing-hazard": lambda files, k: _drop(files, k, "hazards"),
    "missing-fragility": lambda files, k: _drop(files, k, "fragility"),
    "unknown-geo": lambda files, k: _drop(files, k, "geounits"),
    "pd0-1.5": lambda files, k: _set_cell(files, k, "portfolio", PORTFOLIO.index("pd0"), "1.5"),
    "every-ead-0": lambda files, k: _set_column(files, "ead", "0.0"),
    "every-pd0-0": lambda files, k: _set_column(files, "pd0", "0.0"),
    "two-eads-1.7e308": _huge_eads,
    # Their EL is their EAD, so a scenario's total EL overflows too: the EAD HHI, a fault of
    # the portfolio, is still the one named.
    "two-els-1.7e308": lambda files, k: _huge_eads(files, k, pd0="1.0", lgd0="1.0"),
    "quoted-break": _quoted_break,
    "short-row": _short_row,
}
# Spoils of one file's bytes, made after every line spoil.
BYTE_SPOILS = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "bom": lambda data: b"\xef\xbb\xbf" + data,
}


@st.composite
def _input_sets(draw):
    # Two geo units or more, so that two spoils leave every file a data line.
    sizes = (draw(st.integers(2, 4)), draw(st.integers(4, 14)), draw(st.integers(1, 3)))
    menu = st.sampled_from(sorted([*SPOILS, *BYTE_SPOILS]))
    spoils = draw(st.lists(st.tuples(menu, st.integers(0, 999)), max_size=2))
    return draw(st.integers(1, 3)), sizes, spoils


@settings(max_examples=300, deadline=None)
@given(_input_sets())
@example((1, (4, 4, 1), [("short-row", 373), ("negative-intensity", 5)]))  # one hazard row
@example((1, (20, 2000, 5), [("two-els-1.7e308", 0)]))
def test_validate_and_run_agree(input_set):
    seed, (geos, n, sectors), spoils = input_set
    with tempfile.TemporaryDirectory() as tmp:
        paths = gen.generate(tmp, seed, n, geos, sectors)["paths"]
        files = {}
        for name in INPUTS:
            with open(paths[name], encoding="utf-8", newline="") as fh:
                files[name] = fh.read().split("\n")[:-1]
        for spoil, k in spoils:
            if spoil in SPOILS:
                SPOILS[spoil](files, k)
        for name in INPUTS:
            data = "".join(line + "\n" for line in files[name]).encode()
            for spoil, k in spoils:
                if spoil in BYTE_SPOILS and INPUTS[k % len(INPUTS)] == name:
                    data = BYTE_SPOILS[spoil](data)
            with open(paths[name], "wb") as fh:
                fh.write(data)
        identity = os.path.join(tmp, "identity.json")
        with open(identity, "w", encoding="utf-8") as fh:
            json.dump(IDENTITY, fh)
        flags = [flag for name in INPUTS for flag in (f"--{name}", paths[name])]
        with mock.patch.object(ingest, "_CHUNK_ROWS", 3):
            validated = _main(["validate", *flags])
            ran = _main(["run", *flags, "--scenario", identity,
                         "--out", os.path.join(tmp, "report.json")])
            library = _library(paths)
    assert ran[0] != 3 and validated[0] == ran[0]
    if ran[0] == 2:
        assert validated[2] == ran[2] == library
    else:
        assert library == ""
