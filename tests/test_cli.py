"""Report emission and the CLI surface."""

import contextlib
import csv
import gc
import io
import json
import os
import stat
import tempfile
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GEO_CHANNELS,
    INSTRUMENT_DICTS,
    fragility_csv,
    geounits_csv,
    hazards_csv,
    portfolio_csv,
)
from geostress import builtin_scenarios, cli, emit_report, run_scenario
from geostress.cli import main
from geostress.errors import DomainError


class TestEmitReport:
    def _results(self, fixture_linked, count=1):
        return [
            run_scenario(fixture_linked, scenario)
            for scenario in builtin_scenarios()[:count]
        ]

    def test_minimal_json_document(self, fixture_linked):
        doc = json.loads(emit_report(self._results(fixture_linked)))
        assert len(doc) == 1
        entry = doc[0]
        assert entry["scenario_id"] == "orderly"
        assert len(entry["rows"]) == 10
        assert "total_el" in entry and "climate_var" in entry
        assert entry["report"]["weight_source"] == "derived_from_value"

    def test_scenario_input_order(self, fixture_linked):
        doc = json.loads(emit_report(self._results(fixture_linked, count=2)))
        assert [e["scenario_id"] for e in doc] == ["orderly", "disorderly"]

    def test_json_reparse_recovers_12_digits(self, fixture_linked):
        results = self._results(fixture_linked)
        doc = json.loads(emit_report(results))
        for row, emitted in zip(results[0][0].rows, doc[0]["rows"]):
            assert emitted["el_s"] == float(f"{row.el_s:.12g}")
            assert emitted["pd_s"] == float(f"{row.pd_s:.12g}")

    def test_csv_rows_and_totals(self, fixture_linked):
        payload = emit_report(self._results(fixture_linked, count=2), format="csv")
        sections = payload.decode().split("\n\n")
        assert len(sections) == 2
        rows = list(csv.DictReader(io.StringIO(sections[0])))
        assert len(rows) == 20  # 2 scenarios x 10 instruments
        totals = list(csv.DictReader(io.StringIO(sections[1])))
        assert [t["scenario_id"] for t in totals] == ["orderly", "disorderly"]

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])


def run_cli(fixture_files, tmp_path, *extra, out_name="report.json"):
    out = tmp_path / out_name
    argv = [
        "run",
        "--portfolio", str(fixture_files["portfolio"]),
        "--hazards", str(fixture_files["hazards"]),
        "--fragility", str(fixture_files["fragility"]),
        "--geounits", str(fixture_files["geounits"]),
        "--out", str(out),
        *extra,
    ]
    return main(argv), out


class TestRun:
    def test_identity_scenario_baseline(self, fixture_files, tmp_path, capsys):
        scenario_path = tmp_path / "noop.json"
        scenario_path.write_text('{"id":"noop","kind":"physical_shock"}')
        code, out = run_cli(fixture_files, tmp_path, "--scenario", str(scenario_path))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc[0]["scenario_id"] == "noop"
        assert doc[0]["climate_var"] == 0.0
        assert "noop: total_el=" in capsys.readouterr().out

    def test_builtin_all(self, fixture_files, tmp_path):
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "all")
        assert code == 0
        doc = json.loads(out.read_text())
        assert [e["scenario_id"] for e in doc] == [
            "orderly", "disorderly", "physical", "compound",
        ]

    def test_unknown_geo_exits_2(self, fixture_files, tmp_path, capsys):
        bad = portfolio_csv().replace(b"g1", b"g9")
        fixture_files["portfolio"].write_bytes(bad)
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "physical")
        assert code == 2
        assert "UnresolvedGeo" in capsys.readouterr().err
        assert not out.exists()  # no partial output

    def test_determinism_byte_identical(self, fixture_files, tmp_path):
        _, out1 = run_cli(fixture_files, tmp_path, "--builtin", "all", out_name="r1.json")
        _, out2 = run_cli(fixture_files, tmp_path, "--builtin", "all", out_name="r2.json")
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, fixture_files, tmp_path):
        code, out = run_cli(
            fixture_files, tmp_path, "--builtin", "physical", "--format", "csv",
            out_name="report.csv",
        )
        assert code == 0
        assert out.read_text().startswith("scenario_id,instrument_id,")

    def test_missing_scenario_source_exits_2(self, fixture_files, tmp_path):
        code, _ = run_cli(fixture_files, tmp_path)
        assert code == 2

    def test_top_k_limits_contributors(self, fixture_files, tmp_path):
        code, out = run_cli(
            fixture_files, tmp_path, "--builtin", "physical", "--top-k", "3"
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc[0]["report"]["top_contributors"]) == 3

    def test_overflowing_exponent_clamps_pd(self, fixture_files, tmp_path):
        scenario_path = tmp_path / "steep.json"
        scenario_path.write_text(
            '{"id":"steep","kind":"physical_shock","betas":{"hazard":1000}}'
        )
        code, out = run_cli(fixture_files, tmp_path, "--scenario", str(scenario_path))
        assert code == 0
        doc = json.loads(out.read_text())
        assert [row["pd_s"] for row in doc[0]["rows"]] == [1.0] * 10

    @pytest.mark.parametrize(
        "document",
        [
            '{"id":"x","kind":"compound","transition":5}',
            '{"id":"x","kind":"compound","betas":[1]}',
            '{"id":"x","kind":"compound","hazard_multipliers":"ab"}',
            '{"id":"x","kind":"compound","lambda":NaN}',
            '{"id":"x","kind":"compound","betas":{"hazard":Infinity}}',
            '{"id":"x","kind":"compound","repricing":{"delta_hazard":-Infinity}}',
            '{"id":"x","kind":"compound","lgd_gamma":1e400}',
            '{"id":"x","kind":"compound","lambda":1' + "0" * 400 + "}",
            '{"id":"x","kind":"compound","lambda":' + "1" * 5000 + "}",
            "[" * 100_000 + "]" * 100_000,
            b'{"id":"\xff","kind":"compound"}',
        ],
        ids=[
            "transition-number", "betas-list", "multipliers-string", "nan",
            "infinity", "minus-infinity", "overflowing-float", "overflowing-int",
            "int-too-long", "nested-too-deep", "not-utf8",
        ],
    )
    def test_bad_scenario_document_exits_2(self, fixture_files, tmp_path, capsys, document):
        scenario_path = tmp_path / "bad.json"
        if isinstance(document, str):
            document = document.encode()
        scenario_path.write_bytes(document)
        code, out = run_cli(fixture_files, tmp_path, "--scenario", str(scenario_path))
        assert code == 2
        assert "ScenarioParseError" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_portfolio_number_exits_2(self, fixture_files, tmp_path, capsys):
        bad = portfolio_csv().replace(b"1000000.0", b"nan", 1)
        fixture_files["portfolio"].write_bytes(bad)
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "compound")
        assert code == 2
        assert "MalformedRow" in capsys.readouterr().err
        assert not out.exists()

    def test_underscored_portfolio_number_exits_2(self, fixture_files, tmp_path, capsys):
        bad = portfolio_csv().replace(b"1000000.0", b"1_000_000.0", 1)
        fixture_files["portfolio"].write_bytes(bad)
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "compound")
        assert code == 2
        err = capsys.readouterr().err
        assert "MalformedRow" in err and "ead: not a number: '1_000_000.0'" in err
        assert not out.exists()

    def test_non_utf8_portfolio_exits_2(self, fixture_files, tmp_path, capsys):
        bad = portfolio_csv().replace(b"retail", b"r\xe9tail", 1)
        fixture_files["portfolio"].write_bytes(bad)
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "all")
        assert code == 2
        err = capsys.readouterr().err
        assert "SchemaMismatch" in err and "portfolio.csv: not UTF-8" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, fields, fmt, error",
        [
            ({"ead": 1.7e308}, {}, "json", "NonFiniteSum: total_el is inf"),
            ({"ead": 9e307}, {}, "json", "NonFiniteSum: total_el is inf"),
            ({"value": 1.7e308}, {}, "json", "NonFiniteSum: cannot derive value weights"),
            ({"ead": 1e308, "pd0": 0.0}, {}, "json", "NonFiniteSum: HHI basis sums to inf"),
            ({}, {"lambda": 1e308}, "json", "NonFiniteSum: climate_var is inf"),
            ({}, {"id": "\ud800"}, "json", "ScenarioParseError: id cannot be encoded"),
            ({}, {"id": "\ud800"}, "csv", "ScenarioParseError: id cannot be encoded"),
        ],
        ids=["ead-max", "ead-half-max", "value-max", "geo-ead", "lambda", "id-json", "id-csv"],
    )
    def test_unreportable_input_exits_2(
        self, fixture_files, tmp_path, capsys, change, fields, fmt, error
    ):
        # The first two rows lose their whole EAD; every number is finite.
        dicts = [{**d, "pd0": 1.0, "lgd0": 1.0, **change} for d in INSTRUMENT_DICTS[:2]]
        fixture_files["portfolio"].write_bytes(portfolio_csv(dicts + INSTRUMENT_DICTS[2:]))
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps({"id": "x", "kind": "compound", **fields}))
        extra = ("--scenario", str(scenario_path), "--builtin", "compound", "--format", fmt)
        code, out = run_cli(fixture_files, tmp_path, *extra)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "") and f"error: {error}" in captured.err
        assert not out.exists() and not list(tmp_path.glob(".stress-*"))

    def test_nan_pd_exponent_exits_2(self, fixture_files, tmp_path, capsys):
        # Row i01 (wildfire 0.8 x 10) takes b_H*H to +inf and b_A*A to +inf,
        # so its PD exponent is inf - inf.
        dicts = [{**INSTRUMENT_DICTS[0], "adaptation": 2.0}, *INSTRUMENT_DICTS[1:]]
        fixture_files["portfolio"].write_bytes(portfolio_csv(dicts))
        scenario_path = tmp_path / "s.json"
        scenario_path.write_text(json.dumps({
            "id": "x",
            "kind": "compound",
            "hazard_multipliers": {"wildfire": 10},
            "betas": {"hazard": 1e308, "adaptation": 1e308},
        }))
        code, out = run_cli(fixture_files, tmp_path, "--scenario", str(scenario_path))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "error: NonFiniteSum: PD exponent is nan" in captured.err
        assert not out.exists() and not list(tmp_path.glob(".stress-*"))

    @pytest.mark.parametrize("second", ["builtin", "scenario"])
    def test_duplicate_scenario_id_exits_2(self, fixture_files, tmp_path, capsys, second):
        scenario_path = tmp_path / "mine.json"
        scenario_path.write_text('{"id":"compound","kind":"physical_shock"}')
        extra = ["--scenario", str(scenario_path)]
        extra += ["--builtin", "all"] if second == "builtin" else extra
        code, out = run_cli(fixture_files, tmp_path, *extra)
        assert code == 2
        err = capsys.readouterr()
        assert "ScenarioParseError" in err.err and "'compound'" in err.err
        assert err.out == ""  # rejected before any scenario ran
        assert not out.exists()

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
    )
    def test_report_mode_follows_umask(self, fixture_files, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            code, out = run_cli(fixture_files, tmp_path, "--builtin", "orderly")
        finally:
            os.umask(previous)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".stress-")] == []


def validate_argv(fixture_files):
    return [
        "validate",
        "--portfolio", str(fixture_files["portfolio"]),
        "--hazards", str(fixture_files["hazards"]),
        "--fragility", str(fixture_files["fragility"]),
        "--geounits", str(fixture_files["geounits"]),
    ]


class TestStreaming:
    def test_each_result_is_dropped_before_the_next_scenario_runs(
        self, fixture_files, fixture_linked, tmp_path, monkeypatch
    ):
        previous = []
        dropped = []

        def watched(linked, scenario, top_k):
            if previous:
                gc.collect()
                dropped.append(previous[-1]() is None)
            pair = run_scenario(linked, scenario, top_k=top_k)
            previous.append(weakref.ref(pair[0]))
            return pair

        monkeypatch.setattr(cli, "run_scenario", watched)
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "all")
        assert code == 0
        assert dropped == [True, True, True]
        results = [run_scenario(fixture_linked, s) for s in builtin_scenarios()]
        assert out.read_bytes() == emit_report(results)

    @pytest.mark.parametrize("format", ["json", "csv"])
    @pytest.mark.parametrize(
        "error, code, stderr",
        [
            (DomainError("boom"), 2, "error: DomainError: boom\n"),
            (RuntimeError("boom"), 3, "internal error: RuntimeError: boom\n"),
        ],
        ids=["input-error", "internal-error"],
    )
    def test_failure_after_the_first_scenario_leaves_nothing(
        self, fixture_files, tmp_path, monkeypatch, capsys, format, error, code, stderr
    ):
        calls = []

        def failing_second(linked, scenario, top_k):
            calls.append(scenario.id)
            if len(calls) == 2:
                raise error
            return run_scenario(linked, scenario, top_k=top_k)

        monkeypatch.setattr(cli, "run_scenario", failing_second)
        exit_code, out = run_cli(fixture_files, tmp_path, "--builtin", "all", "--format", format)
        assert exit_code == code
        assert calls == ["orderly", "disorderly"]
        assert capsys.readouterr() == ("", stderr)
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".stress-")] == []

    def test_out_that_cannot_be_created_fails_before_evaluation(
        self, fixture_files, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "run_scenario", lambda *a, **k: calls.append(a))
        code, _ = run_cli(
            fixture_files, tmp_path, "--builtin", "all", out_name="missing/report.json"
        )
        assert code == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == "" and "error: FileNotFoundError" in captured.err
        assert os.path.join("missing", "report.json") in captured.err
        assert ".stress-" not in captured.err


class TestCsvErrors:
    """A field over the csv module's limit is a malformed row (exit 2) in
    both subcommands, not an internal error."""

    def _long_field_portfolio(self, fixture_files):
        bad = portfolio_csv().replace(b"i02", b"i" * 200_000, 1)
        fixture_files["portfolio"].write_bytes(bad)

    def test_run(self, fixture_files, tmp_path, capsys):
        self._long_field_portfolio(fixture_files)
        code, out = run_cli(fixture_files, tmp_path, "--builtin", "all")
        assert code == 2
        err = capsys.readouterr().err
        assert "MalformedRow" in err and "portfolio.csv:3: malformed row: field larger" in err
        assert not out.exists()

    def test_validate(self, fixture_files, capsys):
        self._long_field_portfolio(fixture_files)
        assert main(validate_argv(fixture_files)) == 2
        err = capsys.readouterr().err
        assert "MalformedRow" in err and "portfolio.csv:3: malformed row: field larger" in err


class TestValidate:
    def test_clean_inputs(self, fixture_files, capsys):
        assert main(validate_argv(fixture_files)) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_inputs(self, fixture_files, capsys):
        fixture_files["hazards"].write_bytes(b"geo_id,hazard,intensity\ng1,smog,1\n")
        assert main(validate_argv(fixture_files)) == 2
        assert "UnknownHazardToken" in capsys.readouterr().err

    def test_stress_script_reads_sys_argv(self, fixture_files, capsys, monkeypatch):
        # The installed ``stress`` script calls main() with no arguments.
        monkeypatch.setattr("sys.argv", ["stress", *validate_argv(fixture_files)])
        assert main() == 0
        assert capsys.readouterr() == ("ok\n", "")

    def test_unexpected_error_exits_3(self, fixture_files, capsys, monkeypatch):
        def broken(config):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_load_linked", broken)
        assert main(validate_argv(fixture_files)) == 3
        assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")


class TestScenariosPrint:
    def test_prints_four_parseable_builtins(self, capsys):
        from geostress import parse_scenario

        assert main(["scenarios", "print"]) == 0
        out = capsys.readouterr().out
        # Canonical documents are pretty-printed objects separated by newlines.
        decoder = json.JSONDecoder()
        docs = []
        rest = out.lstrip()
        while rest:
            doc, consumed = decoder.raw_decode(rest)
            docs.append(doc)
            rest = rest[consumed:].lstrip()
        assert [d["id"] for d in docs] == ["orderly", "disorderly", "physical", "compound"]
        for d in docs:
            parse_scenario(json.dumps(d))


# Each number comes from a plain range or from its full range, whose ends
# Hypothesis favours, so a run mixes ordinary and extreme magnitudes. A beta
# of 1e308 is drawn often: times a hazard above 1.8 it overflows to inf.
_amount = st.floats(min_value=0.0, max_value=1e9) | st.floats(min_value=0.0, max_value=1.7e308)
_unit = st.floats(min_value=0.0, max_value=1.0)
_beta = (
    st.floats(min_value=0.0, max_value=3.0)
    | st.just(1e308)
    | st.floats(min_value=0.0, max_value=1e308)
)
_extreme_rows = st.lists(
    st.fixed_dictionaries({
        "geo_id": st.sampled_from(sorted(GEO_CHANNELS)),
        "sector": st.sampled_from(["agriculture", "retail", "mining"]),
        "ead": _amount,
        "pd0": st.just(0.0) | _unit,
        "lgd0": st.just(0.0) | _unit,
        "value": _amount,
        "adaptation": st.floats(min_value=0.0, max_value=1e3),
    }),
    min_size=1,
    max_size=6,
)
_extreme_scenarios = st.fixed_dictionaries({
    "hazard_multipliers": st.fixed_dictionaries(
        {"wildfire": st.floats(min_value=0.0, max_value=10.0)}
    ),
    "transition": st.fixed_dictionaries({"default": _unit}),
    "lgd_gamma": _beta,
    "betas": st.fixed_dictionaries(
        {name: _beta for name in ("hazard", "transition", "fragility", "adaptation")}
    ),
})


@settings(max_examples=100, deadline=None)
@given(rows=_extreme_rows, scenario=_extreme_scenarios)
@example(
    rows=[{**INSTRUMENT_DICTS[0], "pd0": 0.0}],
    scenario={"hazard_multipliers": {"wildfire": 10.0}, "betas": {"hazard": 1e308}},
)
@example(
    rows=[{**INSTRUMENT_DICTS[0], "lgd0": 0.0}],
    scenario={
        "lgd_gamma": 1e308,
        "hazard_multipliers": {"wildfire": 10.0},
        "betas": {"hazard": 0.35},
    },
)
def test_extreme_finite_inputs_give_a_finite_report_or_exit_2(rows, scenario):
    """Finite inputs at the float limits never exit 3, never put NaN or
    Infinity into a report, and keep a zero baseline PD or LGD at 0."""
    dicts = [{**row, "id": f"i{k}"} for k, row in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in [
            ("portfolio", portfolio_csv(dicts)),
            ("hazards", hazards_csv()),
            ("fragility", fragility_csv()),
            ("geounits", geounits_csv()),
        ]:
            paths[name] = os.path.join(tmp, f"{name}.csv")
            with open(paths[name], "wb") as fh:
                fh.write(data)
        scenario_path = os.path.join(tmp, "s.json")
        with open(scenario_path, "w") as fh:
            json.dump({"id": "x", "kind": "compound", **scenario}, fh)
        out = os.path.join(tmp, "report.json")
        argv = ["run", "--scenario", scenario_path, "--out", out]
        for name, path in paths.items():
            argv += [f"--{name}", path]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2)
        if code == 2:
            assert not os.path.exists(out)
            return
        with open(out) as fh:
            text = fh.read()
    assert "NaN" not in text and "Infinity" not in text
    reported = json.loads(text)[0]["rows"]
    zero_pd = {d["id"] for d in dicts if d["pd0"] == 0.0}
    assert all(row["pd_s"] == 0.0 for row in reported if row["id"] in zero_pd)
    zero_lgd = {d["id"] for d in dicts if d["lgd0"] == 0.0}
    assert all(row["lgd_s"] == 0.0 for row in reported if row["id"] in zero_lgd)
