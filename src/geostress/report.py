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

``report_blocks`` is the one writer: it renders a share of a report
from any iterable of results, one scenario at a time, in blocks of rows,
so the CLI streams the report into its output file while it evaluates
the scenarios. A report is one or more shares, each one's blocks apart
from the others', closed with ``report_end``: ``stress run`` writes a
later share in a second process, and ``emit_report`` joins one share and
its end into one document.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import re
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import Iterable, Iterator, Sequence

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
    """The JSON text of ``n`` rows, with a ``%s`` per value."""
    return ",\n".join([_ROW] * n)


def _json_entry(result: StressResult, report: ExposureReport) -> Iterator[str]:
    """One scenario's JSON entry, in blocks of at most ``ROWS_PER_BLOCK`` rows."""
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
    ids, pd_s, lgd_s, el_s, dv_s = row_columns(result)
    if not ids:
        yield head + _NO_ROWS + tail
        return
    separator = head + '\n    "rows": [\n'
    for start in range(0, len(ids), ROWS_PER_BLOCK):
        end = start + ROWS_PER_BLOCK
        block_ids = ids[start:end]
        # _ROW's fields in its (sorted-key) order, row after row.
        values = chain.from_iterable(zip(
            _numbers(dv_s[start:end]), _numbers(el_s[start:end]), map(_string, block_ids),
            _numbers(lgd_s[start:end]), _numbers(pd_s[start:end]),
        ))
        yield separator + _rows_template(len(block_ids)) % tuple(values)
        separator = ",\n"
    yield "\n    ]" + tail


# A field holding none of these is written bare by csv.writer on every
# supported Python. NUL is here too: csv.writer's handling of it differs
# between versions.
_CSV_SPECIAL = re.compile('[,"\r\n\x00]')


def _csv_lines(rows: Iterable[list[str]]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _csv_rows(result: StressResult) -> Iterator[str]:
    """One scenario's CSV rows, in blocks of at most ``ROWS_PER_BLOCK`` rows."""
    columns, scenario_id = row_columns(result), result.scenario_id
    plain = not _CSV_SPECIAL.search(scenario_id + "".join(columns.id))
    # What csv.writer writes for plain fields; RowColumns are in column order.
    line = scenario_id.replace("%", "%%") + ",%s,%.12g,%.12g,%.12g,%.12g\n"
    for start in range(0, len(columns.id), ROWS_PER_BLOCK):
        block = [column[start:start + ROWS_PER_BLOCK] for column in columns]
        if plain:
            text = line * len(block[0]) % tuple(chain.from_iterable(zip(*block)))
        else:
            text = _csv_lines(
                [scenario_id, id, f"{pd_s:.12g}", f"{lgd_s:.12g}", f"{el_s:.12g}", f"{dv_s:.12g}"]
                for id, pd_s, lgd_s, el_s, dv_s in zip(*block)
            )
        yield text


def _blocks(results: Iterable[tuple[StressResult, ExposureReport]], format: str,
            totals: Totals, first: bool) -> Iterator[bytes]:
    csv_rows = format == "csv"
    for result, report in results:
        if not csv_rows:
            yield b"[\n" if first else b",\n"
        elif first:
            yield _CSV_HEADER
        first = False
        yield from map(_utf8, _csv_rows(result) if csv_rows else _json_entry(result, report))
        totals.append((result.scenario_id, result.total_el, result.climate_var))
        del result, report  # freed before the next result is made


def _utf8(block: str) -> bytes:
    try:
        return block.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate in an id
        raise UnencodableText(f"report text is not UTF-8 encodable: {exc}") from None


def report_blocks(results: Iterable[tuple[StressResult, ExposureReport]], format: str,
                  totals: Totals, first: bool = True) -> Iterator[bytes]:
    """One share of a report, one entry per scenario in input order, as
    encoded blocks; ``report_end`` ends the report. Each result's
    (scenario_id, total_el, climate_var) goes to ``totals``, and a share not
    ``first`` follows entries already written. An empty ``results`` yields
    nothing.

    ``results`` is read one pair at a time, and each pair is unreachable
    from here once its blocks are out, before the next pair is asked for;
    so a lazy ``results`` keeps one scenario's results in memory, and the
    caller one block of text. Raises ``ValueError`` for an unknown format
    now; CSV raises ``UnencodableText`` for an id that UTF-8 cannot encode.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    return _blocks(results, format, totals, first)


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


def emit_report(
    results: Sequence[tuple[StressResult, ExposureReport]], format: str = "json"
) -> bytes:
    """Serialize one entry per scenario, in input order."""
    totals: Totals = []
    share = b"".join(report_blocks(results, format, totals))
    return share + report_end(totals, format)
