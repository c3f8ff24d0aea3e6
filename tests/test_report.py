"""The report writer against the stdlib ``json`` and ``csv`` writers.

``reference_json`` is the path the JSON writer replaced: build one dict
per scenario and serialize the list with ``json.dumps(sort_keys=True,
indent=2)``. ``reference_csv`` writes every CSV line with ``csv.writer``.
The writer must produce exactly their bytes, whatever its block size, and
stream: it holds one scenario's results at a time.
"""

import csv
import gc
import io
import json
import math
import operator
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geostress import (
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    builtin_scenarios,
    emit_report,
    link_exposures,
    run_scenario,
)
from geostress.analytics import Contributor, ExposureReport
from geostress.errors import UnencodableText
from geostress.model import StressResult, StressRow
from geostress import report as report_module
from geostress.report import _number, report_blocks


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _result_doc(result: StressResult, report: ExposureReport) -> dict:
    return {
        "scenario_id": result.scenario_id,
        "rows": [
            {
                "id": row.id,
                "pd_s": _round12(row.pd_s),
                "lgd_s": _round12(row.lgd_s),
                "el_s": _round12(row.el_s),
                "dv_s": _round12(row.dv_s),
            }
            for row in result.rows
        ],
        "total_el": _round12(result.total_el),
        "climate_var": _round12(result.climate_var),
        "report": {
            "el_by_geo": {k: _round12(v) for k, v in report.el_by_geo.items()},
            "el_by_hazard_channel": {
                k: _round12(v) for k, v in report.el_by_hazard_channel.items()
            },
            "el_by_sector": {k: _round12(v) for k, v in report.el_by_sector.items()},
            "hhi_geo": _round12(report.hhi_geo),
            "hhi_sector": _round12(report.hhi_sector),
            "hhi_channel": _round12(report.hhi_channel),
            "hhi_geo_ead": _round12(report.hhi_geo_ead),
            "top_contributors": [
                {"id": c.id, "el_s": _round12(c.el_s), "share": _round12(c.share)}
                for c in report.top_contributors
            ],
            "weight_source": report.weight_source,
        },
    }


def reference_json(results) -> bytes:
    docs = [_result_doc(result, report) for result, report in results]
    return (json.dumps(docs, sort_keys=True, indent=2) + "\n").encode("utf-8")


def reference_csv(results) -> bytes:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scenario_id", "instrument_id", "pd_s", "lgd_s", "el_s", "dv_s"])
    for result, _ in results:
        for row in result.rows:
            writer.writerow(
                [result.scenario_id, row.id]
                + [f"{x:.12g}" for x in (row.pd_s, row.lgd_s, row.el_s, row.dv_s)]
            )
    writer.writerow([])
    writer.writerow(["scenario_id", "total_el", "climate_var"])
    for result, _ in results:
        writer.writerow(
            [result.scenario_id, f"{result.total_el:.12g}", f"{result.climate_var:.12g}"]
        )
    return out.getvalue().encode("utf-8")


def assert_same_bytes(results):
    assert emit_report(results, "json") == reference_json(results)


def _synthetic_linked(n, seed=7, n_geos=40, n_sectors=12):
    """A seeded portfolio whose ids and sectors need JSON escapes."""
    rng = random.Random(seed)
    geo_ids = [f"g{k:03d}" for k in range(n_geos)]
    sectors = ["agriculture", "real_estate", "tourism"]
    sectors += [f'sec"{k}\\é' for k in range(n_sectors - len(sectors))]
    channels = list(Channel)
    instruments = tuple(
        Instrument(
            id=f"n{k:05d}\t☃" if k % 7 == 0 else f"n{k:05d}",
            geo_id=geo_ids[k % n_geos],
            sector=sectors[rng.randrange(n_sectors)],
            ead=rng.uniform(1e4, 1e7),
            pd0=0.0 if k % 97 == 0 else rng.uniform(0.001, 0.2),
            lgd0=rng.uniform(0.1, 0.9),
            value=rng.uniform(1e4, 1e7),
            adaptation=rng.uniform(0.0, 1.0),
        )
        for k in range(n)
    )
    hazards = HazardField(
        entries={(g, h): rng.random() for g in geo_ids for h in HazardType}
    )
    fragility = FragilityTable(entries={g: rng.random() for g in geo_ids})
    registry = [
        GeoUnit(id=g, name=g, channel=channels[k % len(channels)])
        for k, g in enumerate(geo_ids)
    ]
    return link_exposures(Portfolio(instruments=instruments), hazards, fragility, registry)


class TestSameBytesAsJsonDumps:
    def test_fixture_all_builtins(self, fixture_linked):
        assert_same_bytes([run_scenario(fixture_linked, s) for s in builtin_scenarios()])

    def test_two_scenarios(self, fixture_linked):
        assert_same_bytes([run_scenario(fixture_linked, s) for s in builtin_scenarios()[2:]])

    def test_top_k_one_and_above_n(self, fixture_linked):
        for top_k in (1, 10, 11, 1000):
            assert_same_bytes(
                [run_scenario(fixture_linked, s, top_k=top_k) for s in builtin_scenarios()]
            )

    def test_seeded_synthetic_portfolio(self):
        linked = _synthetic_linked(2_000)
        results = [run_scenario(linked, s, top_k=25) for s in builtin_scenarios()]
        assert_same_bytes(results)

    def test_empty_containers(self):
        result = StressResult(scenario_id="empty", rows=(), total_el=0.0, climate_var=-0.0)
        report = ExposureReport(
            scenario_id="empty",
            el_by_geo={},
            el_by_hazard_channel={},
            el_by_sector={},
            hhi_geo=0.0,
            hhi_sector=0.0,
            hhi_channel=0.0,
            hhi_geo_ead=0.0,
            top_contributors=(),
            climate_var=-0.0,
            weight_source="provided",
        )
        assert_same_bytes([(result, report)])


@pytest.mark.parametrize("rows_per_block", [1, 3, 5, 10, 11])
@pytest.mark.parametrize("format, reference", [("json", reference_json), ("csv", reference_csv)])
def test_same_bytes_in_any_block_size(fixture_linked, monkeypatch, rows_per_block, format, reference):
    monkeypatch.setattr(report_module, "ROWS_PER_BLOCK", rows_per_block)
    results = [run_scenario(fixture_linked, s, top_k=3) for s in builtin_scenarios()]
    blocks = list(report_blocks(results, format))
    assert b"".join(blocks) == emit_report(results, format) == reference(results)
    # No block holds more rows than the block size; the last CSV block is
    # the totals table.
    if format == "json":
        rows_per = [block.count(b'"dv_s"') for block in blocks]
    else:
        rows_per = [block.count(b"\n") - block.startswith(b"scenario_id,") for block in blocks[:-1]]
    assert max(rows_per) == min(rows_per_block, 10)
    assert sum(rows_per) == 40


def test_csv_reference_on_seeded_portfolio():
    linked = _synthetic_linked(2_000)
    results = [run_scenario(linked, s) for s in builtin_scenarios()]
    assert emit_report(results, "csv") == reference_csv(results)


@pytest.mark.parametrize("format", ["json", "csv"])
def test_writer_streams_one_result_at_a_time(fixture_linked, format):
    """The writer drops each result, and has written its entry, before it
    asks for the next one."""
    written = []
    dropped = []

    def results():
        previous = None
        for scenario in builtin_scenarios():
            if previous is not None:
                gc.collect()
                dropped.append(previous() is None)
                assert previous_id.encode() in b"".join(written)
            pair = run_scenario(fixture_linked, scenario)
            previous, previous_id = weakref.ref(pair[0]), scenario.id
            yield pair
            del pair

    for block in report_blocks(results(), format):
        written.append(block)
    assert dropped == [True, True, True]
    everything = [run_scenario(fixture_linked, s) for s in builtin_scenarios()]
    assert b"".join(written) == emit_report(everything, format)


def test_empty_results_and_unknown_format_rejected(fixture_linked):
    for format in ("json", "csv"):
        with pytest.raises(ValueError):
            emit_report([], format)
        with pytest.raises(ValueError):
            list(report_blocks(iter([]), format))
    with pytest.raises(ValueError):
        report_blocks([run_scenario(fixture_linked, builtin_scenarios()[0])], "xml")


_SIGNS = st.sampled_from([1.0, -1.0])


def _signed(floats):
    return st.builds(operator.mul, _SIGNS, floats)


_FLOATS = st.one_of(
    st.floats(),
    _signed(st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
    _signed(st.floats(min_value=1e11, max_value=1e17)),
    _signed(st.integers(min_value=-330, max_value=308).map(lambda k: 10.0 ** k)),
    _signed(st.integers(min_value=0, max_value=2**53).map(float)),
)


@settings(max_examples=1000)
@given(_FLOATS)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(999999999999.5)
@example(9.9999999999995e-5)
@example(1e16)
def test_number_matches_json_dumps(x):
    assert _number(x) == json.dumps(_round12(x))


_ID_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x1f\x7f\n\t é'),
    st.characters(),
    st.characters(min_codepoint=0x10000),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
)
_IDS = st.text(alphabet=_ID_CHARS, max_size=12)


@settings(max_examples=200)
@given(
    row_ids=st.lists(_IDS, max_size=5),
    group_keys=st.lists(_IDS, max_size=5),
    scenario_id=_IDS,
    weight_source=_IDS,
)
def test_strings_match_json_dumps(row_ids, group_keys, scenario_id, weight_source):
    rows = tuple(StressRow(id=i, pd_s=0.1, lgd_s=0.2, el_s=0.3, dv_s=-0.4) for i in row_ids)
    groups = {k: float(n) for n, k in enumerate(group_keys)}
    result = StressResult(scenario_id=scenario_id, rows=rows, total_el=1.5, climate_var=-2.5)
    report = ExposureReport(
        scenario_id=scenario_id,
        el_by_geo=groups,
        el_by_hazard_channel=dict(reversed(groups.items())),
        el_by_sector=groups,
        hhi_geo=0.5,
        hhi_sector=1.0,
        hhi_channel=0.25,
        hhi_geo_ead=0.125,
        top_contributors=tuple(Contributor(id=i, el_s=0.3, share=0.1) for i in row_ids),
        climate_var=-2.5,
        weight_source=weight_source,
    )
    assert_same_bytes([(result, report)])


_CSV_IDS = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n\x00 %é☃'), st.characters()), max_size=8
)


@settings(max_examples=300)
@given(
    row_ids=st.lists(st.one_of(_CSV_IDS, st.sampled_from(["n1", "a b", "é"])), max_size=6),
    scenario_ids=st.lists(_CSV_IDS, min_size=1, max_size=3),
    values=st.lists(_FLOATS, min_size=4, max_size=4),
)
@example(row_ids=["\ud800"], scenario_ids=["s"], values=[0.1, 0.2, 0.3, -0.4])
def test_csv_matches_csv_writer(row_ids, scenario_ids, values):
    results = [
        (
            StressResult(
                scenario_id=scenario_id,
                rows=tuple(StressRow(i, *values) for i in row_ids),
                total_el=values[0],
                climate_var=values[1],
            ),
            None,
        )
        for scenario_id in scenario_ids
    ]
    try:
        assert emit_report(results, "csv") == reference_csv(results)
    except UnencodableText:  # only for what csv.writer's text cannot encode either
        with pytest.raises(UnicodeEncodeError):
            reference_csv(results)
