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
``run_scenario`` hands it over or cut from a result's columns.
``write_entries`` is the one entry writer: each entry is the CSV header,
``[`` or ``,``, then its rows, each block written once rendered: to the
report (CSV), or to a scratch file copied in after the entry's head, which
needs the totals (JSON). ``report_end`` closes the report. ``stress run``
writes its entries so, a later share of them in a second process, and
``emit_report`` writes each result's entry through it, into one document.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import re
import shutil
from dataclasses import fields, is_dataclass
from functools import lru_cache, partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import Any, BinaryIO, Callable, Iterable, Sequence

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


def _rounded(value: Any) -> Any:
    """``value`` as a JSON entry holds it: a dataclass as a dict of its fields, a tuple as a
    list, and each number, an int or a bool too, rounded to 12 significant digits."""
    if is_dataclass(value):
        value = {field.name: getattr(value, field.name) for field in fields(value)}
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return list(map(_rounded, value))
    return value if isinstance(value, str) else float("%.12g" % value)


def _json_head(result: StressResult, report: ExposureReport) -> tuple[str, str]:
    """One scenario's JSON entry without its rows, split where they go."""
    doc = _rounded({"climate_var": result.climate_var, "report": report, "rows": [],
                    "scenario_id": result.scenario_id, "total_el": result.total_el})
    del doc["report"]["scenario_id"], doc["report"]["climate_var"]  # the entry's own
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


def write_entries(out: BinaryIO, entries: Iterable[tuple[str, Callable[..., Any]]], format: str,
                  scratch: Callable[[], BinaryIO], first: bool = True) -> Totals:
    """The one entry writer: write one entry per ``(scenario_id, evaluate)`` in ``entries`` to
    ``out``, the first after the CSV header or JSON's "[" given ``first``, each freed before the
    next; flush ``out``; return their totals. ``evaluate(rows=...)`` returns (result, report)
    and hands ``rows`` each block of rows as ``run_scenario`` does, written once rendered to
    ``out`` (CSV) or to a ``scratch()`` file copied in after the head, which needs the totals."""
    totals: Totals = []
    for scenario_id, evaluate in entries:
        out.write((_CSV_HEADER if first else b"") if format == "csv" else
                  (b"[\n" if first else b",\n"))
        first, text = False, row_text(format, scenario_id)
        with contextlib.nullcontext(out) if format == "csv" else scratch() as rows:
            result, report = evaluate(rows=lambda *block: rows.write(text(*block)))
            if rows is not out:
                head, tail = _json_head(result, report)
                out.write(_utf8(head + '\n    "rows": ['))
                written = rows.tell()
                rows.seek(1)  # the first row's "\n", not its ","
                shutil.copyfileobj(rows, out, 1 << 16)  # larger reads raise the peak RSS
                out.write(_utf8(("\n    ]" if written else "]") + tail))
        totals.append((result.scenario_id, result.total_el, result.climate_var))
        del evaluate, result, report  # freed before the next entry is asked for
    out.flush()  # a worker leaves through os._exit
    return totals


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


def _handed(pair: tuple[StressResult, ExposureReport], rows: Callable[..., object]) -> tuple:
    """``pair``, once its result's held columns went to ``rows`` in ``ROWS_PER_BLOCK`` slices."""
    columns = row_columns(pair[0])
    for start in range(0, len(columns.id), ROWS_PER_BLOCK):
        rows(*[column[start:start + ROWS_PER_BLOCK] for column in columns])
    return pair


def emit_report(results: Iterable[tuple[StressResult, ExposureReport]],
                format: str = "json") -> bytes:
    """Serialize one entry per scenario, in input order, each as ``stress run`` writes it,
    its rows cut into blocks of ``ROWS_PER_BLOCK``. ``results`` is read one pair at a time,
    each dropped before the next is asked for. Raises ``ValueError`` for an unknown format or
    no results; CSV raises ``UnencodableText`` for an id that UTF-8 cannot encode."""
    if format not in ("json", "csv"):
        raise ValueError(f"unknown format {format!r}")
    out = io.BytesIO()
    # map, not a generator expression, whose frame would hold the last pair while the next is made
    entries = map(lambda pair: (pair[0].scenario_id, partial(_handed, pair)), results)
    totals = write_entries(out, entries, format, io.BytesIO)
    out.write(report_end(totals, format))
    return out.getvalue()
