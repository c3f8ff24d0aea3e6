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
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _string
from math import isfinite
from typing import Sequence

from .analytics import ExposureReport
from .model import StressResult


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

_ENTRY = (
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
    '    "rows": %s,\n'
    '    "scenario_id": %s,\n'
    '    "total_el": %s\n'
    "  }"
)


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


def _entry(result: StressResult, report: ExposureReport) -> str:
    num, string = _number, _string
    rows = [
        _ROW % (num(r.dv_s), num(r.el_s), string(r.id), num(r.lgd_s), num(r.pd_s))
        for r in result.rows
    ]
    contributors = [
        _CONTRIBUTOR % (num(c.el_s), string(c.id), num(c.share))
        for c in report.top_contributors
    ]
    return _ENTRY % (
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
        _container(rows, "    ", "[]"),
        string(result.scenario_id),
        num(result.total_el),
    )


def emit_report(
    results: Sequence[tuple[StressResult, ExposureReport]], format: str = "json"
) -> bytes:
    """Serialize one entry per scenario, in input order."""
    if not results:
        raise ValueError("emit_report needs at least one result")
    if format == "json":
        entries = [_entry(result, report) for result, report in results]
        return ("[\n" + ",\n".join(entries) + "\n]\n").encode("ascii")
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["scenario_id", "instrument_id", "pd_s", "lgd_s", "el_s", "dv_s"])
        for result, _ in results:
            for row in result.rows:
                writer.writerow(
                    [
                        result.scenario_id,
                        row.id,
                        f"{row.pd_s:.12g}",
                        f"{row.lgd_s:.12g}",
                        f"{row.el_s:.12g}",
                        f"{row.dv_s:.12g}",
                    ]
                )
        writer.writerow([])
        writer.writerow(["scenario_id", "total_el", "climate_var"])
        for result, _ in results:
            writer.writerow(
                [
                    result.scenario_id,
                    f"{result.total_el:.12g}",
                    f"{result.climate_var:.12g}",
                ]
            )
        return out.getvalue().encode("utf-8")
    raise ValueError(f"unknown format {format!r}")
