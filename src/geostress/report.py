"""Report serialization for stress runs.

Both formats are canonical: JSON has sorted keys and numbers rounded to
at most 12 significant digits, CSV has a fixed column order, so the same
inputs always produce byte-identical reports.

The JSON report must match ``json.dumps(docs, sort_keys=True, indent=2)``
byte for byte, where each number is ``float(f"{x:.12g}")``. ``json.dumps``
writes each scenario's entry but its rows; the rows, the bulk of the
text, are filled into a fixed template, because the stdlib encoder runs
in pure Python whenever ``indent`` is set. ``tests/test_report.py`` holds
the ``json.dumps`` path as the reference and checks the two agree.

``row_text`` is the one row writer: it renders a block of rows, as
``run_scenario`` hands it over or cut from a result's columns. An entry is
its ``entry_start``, then its rows, each block written once rendered: to
the report (CSV), or to a scratch file that ``entry_blocks`` reads back
after the entry's head, which needs the totals (JSON). ``report_end``
closes the report. ``stress run`` writes its entries so, a later share of
them in a second process, and ``emit_report`` writes each entry as
``stress run`` does, into one document.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import re
from functools import lru_cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .analytics import ExposureReport
from .errors import UnencodableText
from .model import StressResult, row_columns


# Rows rendered and encoded together: the report text held at once is one
# block, whatever the portfolio's size.
ROWS_PER_BLOCK = 1024

_ROW = (
    "      {\n"
    '        "dv_s": %s,\n'
    '        "el_s": %s,\n'
    '        "id": %s,\n'
    '        "lgd_s": %s,\n'
    '        "pd_s": %s\n'
    "      }"
)

# What an entry's empty "rows" list looks like in the ``json.dumps`` text
# of the entry: only the entry's own key sits at this indent, and an
# ASCII-escaped string holds no raw newline, so it occurs once.
_NO_ROWS = '\n    "rows": []'

_CSV_HEADER = b"scenario_id,instrument_id,pd_s,lgd_s,el_s,dv_s\n"

Totals = list[tuple[str, float, float]]  # each entry's (scenario_id, total_el, climate_var)


def _number(x: float) -> str:
    """What ``json.dumps`` writes for ``x`` rounded to 12 significant digits."""
    s = "%.12g" % x
    if "." in s and "e" not in s:
        # Fixed notation, at most 12 significant digits, no trailing
        # zeros: repr(float(s)) prints exactly these characters.
        return s
    # Integral values, exponents, -0.0 and non-finite values.
    v = float(s)
    return repr(v) if isfinite(v) else json.dumps(v)


def _numbers(values: Sequence[float]) -> list[str]:
    """``[_number(x) for x in values]``, with one format call for them all."""
    text = "%.12g\n" * len(values) % tuple(values)
    tokens = text.split("\n")
    tokens.pop()  # the empty text after the last newline
    if text.count(".") != len(tokens) or "e" in text:
        # Some token is not in fixed notation with a point (integral,
        # exponent, non-finite or -0): those take _number's fallback.
        tokens = [
            s if "." in s and "e" not in s else _number(x)
            for s, x in zip(tokens, values)
        ]
    return tokens


@lru_cache(maxsize=2)  # a scenario's full blocks, then its last one
def _rows_template(n: int) -> str:
    """The JSON text of ``n`` rows, each after ",\n", with a ``%s`` per value."""
    return (",\n" + _ROW) * n


def _json_head(result: StressResult, report: ExposureReport) -> tuple[str, str]:
    """One scenario's JSON entry without its rows, split where they go."""
    def r(x: float) -> float:
        return float("%.12g" % x)

    doc = {
        "climate_var": r(result.climate_var),
        "report": {
            "el_by_geo": {k: r(v) for k, v in report.el_by_geo.items()},
            "el_by_hazard_channel": {k: r(v) for k, v in report.el_by_hazard_channel.items()},
            "el_by_sector": {k: r(v) for k, v in report.el_by_sector.items()},
            "hhi_channel": r(report.hhi_channel),
            "hhi_geo": r(report.hhi_geo),
            "hhi_geo_ead": r(report.hhi_geo_ead),
            "hhi_sector": r(report.hhi_sector),
            "top_contributors": [
                {"el_s": r(c.el_s), "id": c.id, "share": r(c.share)}
                for c in report.top_contributors
            ],
            "weight_source": report.weight_source,
        },
        "rows": [],
        "scenario_id": result.scenario_id,
        "total_el": r(result.total_el),
    }
    # The entry as an element of the indented report list, without "[\n" and "\n]".
    head, tail = json.dumps([doc], sort_keys=True, indent=2)[2:-2].split(_NO_ROWS)
    # With an indent, the stdlib encoder is pure Python and leaves reference cycles of its
    # closures; free them now, as a paused collector (``cli.main``) never would.
    gc.collect(0)
    return head, tail


# A field holding none of these is written bare by csv.writer on every
# supported Python. NUL is here too: csv.writer's handling of it differs
# between versions.
_CSV_SPECIAL = re.compile('[,"\r\n\x00]')


def _csv_lines(rows: Iterable[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def row_text(format: str, scenario_id: str) -> Callable[..., bytes]:
    """The one row writer: a block of rows, given as its columns ``(ids, pd_s, lgd_s, el_s,
    dv_s)``, as encoded report text: CSV lines, or JSON rows, each after ",\n"."""
    # What csv.writer writes for plain fields; the columns are in its order.
    line = scenario_id.replace("%", "%%") + ",%s,%.12g,%.12g,%.12g,%.12g\n"

    def text(*block: Sequence) -> bytes:
        if format == "json":  # _ROW's fields in its (sorted-key) order, row after row
            values = zip(_numbers(block[4]), _numbers(block[3]), map(_string, block[0]),
                         _numbers(block[2]), _numbers(block[1]))
            return _utf8(_rows_template(len(block[0])) % tuple(chain.from_iterable(values)))
        if _CSV_SPECIAL.search(scenario_id + "".join(block[0])):
            return _utf8(_csv_lines(
                [scenario_id, id, f"{pd_s:.12g}", f"{lgd_s:.12g}", f"{el_s:.12g}", f"{dv_s:.12g}"]
                for id, pd_s, lgd_s, el_s, dv_s in zip(*block)
            ))
        return _utf8(line * len(block[0]) % tuple(chain.from_iterable(zip(*block))))

    return text


def entry_start(format: str, first: bool) -> bytes:
    """What goes before an entry: the CSV header before the first, JSON's "[" or ","."""
    return (_CSV_HEADER if first else b"") if format == "csv" else (b"[\n" if first else b",\n")


def entry_blocks(result: StressResult, report: ExposureReport, rows: BinaryIO) -> Iterator[bytes]:
    """One scenario's JSON entry after its start, with the rows ``row_text`` wrote to the file
    ``rows``, read back in blocks."""
    rows.seek(0)
    blocks = iter(partial(rows.read, 1 << 16), b"")  # larger reads raise the peak RSS
    head, tail = _json_head(result, report)
    first = next(blocks, b"")  # none for no rows: then the list's "[]"
    yield _utf8(head + '\n    "rows": [') + first[1:]  # the first row's "\n", not its ","
    yield from blocks
    yield _utf8(("\n    ]" if first else "]") + tail)


def _utf8(block: str) -> bytes:
    try:
        return block.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate in an id
        raise UnencodableText(f"report text is not UTF-8 encodable: {exc}") from None


def report_end(totals: Totals, format: str = "json") -> bytes:
    """What ends a report whose entries' totals, in input order, are ``totals``."""
    if not totals:
        raise ValueError("a report needs at least one result")
    if format == "json":
        return b"\n]\n"
    return _utf8(_csv_lines([
        [],
        ["scenario_id", "total_el", "climate_var"],
        *([scenario_id, f"{total_el:.12g}", f"{climate_var:.12g}"]
          for scenario_id, total_el, climate_var in totals),
    ]))


def emit_report(results: Iterable[tuple[StressResult, ExposureReport]],
                format: str = "json") -> bytes:
    """Serialize one entry per scenario, in input order, each as ``stress run`` writes it,
    its rows cut into blocks of ``ROWS_PER_BLOCK``. ``results`` is read one pair at a time,
    each dropped before the next is asked for. Raises ``ValueError`` for an unknown format or
    no results; CSV raises ``UnencodableText`` for an id that UTF-8 cannot encode."""
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    out, totals = io.BytesIO(), []
    for result, report in results:
        out.write(entry_start(format, not totals))
        rows = out if format == "csv" else io.BytesIO()
        columns, text = row_columns(result), row_text(format, result.scenario_id)
        for start in range(0, len(columns.id), ROWS_PER_BLOCK):
            rows.write(text(*[column[start:start + ROWS_PER_BLOCK] for column in columns]))
        if rows is not out:
            out.writelines(entry_blocks(result, report, rows))
        totals.append((result.scenario_id, result.total_el, result.climate_var))
        del result, report  # freed before the next result is asked for
    out.write(report_end(totals, format))
    return out.getvalue()
