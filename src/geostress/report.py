"""Report serialization for stress runs.

Both formats are canonical: JSON has sorted keys and numbers rounded to
at most 12 significant digits, CSV has a fixed column order, so the same
inputs always produce byte-identical reports.

The JSON report is written from fixed templates, one per object shape,
and must match ``json.dumps(docs, sort_keys=True, indent=2)`` byte for
byte, where each number is ``float(f"{x:.12g}")``. The stdlib encoder
runs in pure Python whenever ``indent`` is set, which made it the
largest cost of a default run. ``tests/test_report.py`` holds the
``json.dumps`` path as the reference and checks the two agree.

``report_blocks`` is the one writer: it renders a report from any
iterable of results, one scenario at a time, in blocks of rows, so the
CLI streams the report into its output file while it evaluates the
scenarios. ``emit_report`` joins the same blocks into one document.
"""

from __future__ import annotations

import csv
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

_CONTRIBUTOR = (
    "        {\n"
    '          "el_s": %s,\n'
    '          "id": %s,\n'
    '          "share": %s\n'
    "        }"
)

# One scenario's entry is the head, then its rows, then the tail.
_ENTRY_HEAD = (
    "  {\n"
    '    "climate_var": %s,\n'
    '    "report": {\n'
    '      "el_by_geo": %s,\n'
    '      "el_by_hazard_channel": %s,\n'
    '      "el_by_sector": %s,\n'
    '      "hhi_channel": %s,\n'
    '      "hhi_geo": %s,\n'
    '      "hhi_geo_ead": %s,\n'
    '      "hhi_sector": %s,\n'
    '      "top_contributors": %s,\n'
    '      "weight_source": %s\n'
    "    },\n"
    '    "rows": '
)

_ENTRY_TAIL = (
    ",\n"
    '    "scenario_id": %s,\n'
    '    "total_el": %s\n'
    "  }"
)

_CSV_HEADER = "scenario_id,instrument_id,pd_s,lgd_s,el_s,dv_s\n"


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


def _container(members: list[str], indent: str, brackets: str) -> str:
    """A JSON array (``brackets`` is ``"[]"``) or object (``"{}"``) from
    members that carry their own indent; empty ones stay on one line."""
    if not members:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(members) + f"\n{indent}{brackets[1]}"


def _group(sums: dict[str, float]) -> str:
    return _container(
        [f"        {_string(k)}: {_number(v)}" for k, v in sorted(sums.items())],
        "      ",
        "{}",
    )


def _json_entry(result: StressResult, report: ExposureReport) -> Iterator[str]:
    """One scenario's JSON entry, in blocks of at most ``ROWS_PER_BLOCK`` rows."""
    num, string = _number, _string
    contributors = [
        _CONTRIBUTOR % (num(c.el_s), string(c.id), num(c.share))
        for c in report.top_contributors
    ]
    head = _ENTRY_HEAD % (
        num(result.climate_var),
        _group(report.el_by_geo),
        _group(report.el_by_hazard_channel),
        _group(report.el_by_sector),
        num(report.hhi_channel),
        num(report.hhi_geo),
        num(report.hhi_geo_ead),
        num(report.hhi_sector),
        _container(contributors, "      ", "[]"),
        string(report.weight_source),
    )
    tail = _ENTRY_TAIL % (string(result.scenario_id), num(result.total_el))
    ids, pd_s, lgd_s, el_s, dv_s = row_columns(result)
    if not ids:
        yield head + "[]" + tail
        return
    separator = head + "[\n"
    for start in range(0, len(ids), ROWS_PER_BLOCK):
        end = start + ROWS_PER_BLOCK
        block_ids = ids[start:end]
        # _ROW's fields in its (sorted-key) order, row after row.
        values = chain.from_iterable(zip(
            _numbers(dv_s[start:end]), _numbers(el_s[start:end]), map(string, block_ids),
            _numbers(lgd_s[start:end]), _numbers(pd_s[start:end]),
        ))
        yield separator + _rows_template(len(block_ids)) % tuple(values)
        separator = ",\n"
    yield "\n    ]" + tail


def _json_blocks(results: Iterable[tuple[StressResult, ExposureReport]]) -> Iterator[str]:
    opening = "[\n"
    for result, report in results:
        yield opening
        yield from _json_entry(result, report)
        opening = ",\n"
        del result, report  # freed before the next result is made
    if opening == "[\n":  # no entry was written
        raise ValueError("a report needs at least one result")
    yield "\n]\n"


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


def _csv_blocks(results: Iterable[tuple[StressResult, ExposureReport]]) -> Iterator[str]:
    totals = []
    for result, report in results:
        if not totals:
            yield _CSV_HEADER
        yield from _csv_rows(result)
        totals.append((result.scenario_id, result.total_el, result.climate_var))
        del result, report  # freed before the next result is made
    if not totals:
        raise ValueError("a report needs at least one result")
    yield _csv_lines([
        [],
        ["scenario_id", "total_el", "climate_var"],
        *([scenario_id, f"{total_el:.12g}", f"{climate_var:.12g}"]
          for scenario_id, total_el, climate_var in totals),
    ])


def _utf8(blocks: Iterable[str]) -> Iterator[bytes]:
    try:
        for block in blocks:
            yield block.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate in an id
        raise UnencodableText(f"report text is not UTF-8 encodable: {exc}") from None


def report_blocks(
    results: Iterable[tuple[StressResult, ExposureReport]], format: str = "json"
) -> Iterator[bytes]:
    """The report, one entry per scenario in input order, as encoded blocks.

    ``results`` is read one pair at a time, and each pair is unreachable
    from here once its blocks are out, before the next pair is asked for;
    so a lazy ``results`` keeps one scenario's results in memory, and the
    caller one block of text. Raises ``ValueError`` for an unknown format
    now, and for an empty ``results`` once it is exhausted; CSV raises
    ``UnencodableText`` for an id that UTF-8 cannot encode.
    """
    if format == "json":
        return (block.encode("ascii") for block in _json_blocks(results))
    if format == "csv":
        return _utf8(_csv_blocks(results))
    raise ValueError(f"unknown format {format!r}")


def emit_report(
    results: Sequence[tuple[StressResult, ExposureReport]], format: str = "json"
) -> bytes:
    """Serialize one entry per scenario, in input order."""
    return b"".join(report_blocks(results, format))
