"""A CSV report entry runs the row evaluator alone, since a CSV holds no diagnostics. The fold
(``analytics._report``) still runs, its report dropped, at the only totals at which it can
raise: a total EL of 0, or one above half the float maximum. So every exit code and error
line is a JSON run's. ``stress validate`` derives none of the codes that only the kernel
and the fold read."""

import json
import sys

import pytest

from conftest import INSTRUMENT_DICTS, portfolio_csv
from geostress import cli, pipeline
from geostress.cli import main
from test_cli import validate_argv
from test_golden import INPUTS, generate

# Every PD underflows to 0, so every EL is 0 and the EL-HHI has no positive entry.
ZERO = {"id": "zero", "kind": "compound", "betas": {"adaptation": 1e8}}
ALL_ZERO = "error: AllZero: HHI needs at least one strictly positive entry\n"


def _run(paths, tmp_path, document, format):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / f"report.{format}"
    flags = [flag for name in INPUTS for flag in (f"--{name}", str(paths[name]))]
    return main(["run", *flags, "--scenario", str(scenario), "--format", format,
                 "--out", str(out)]), out


@pytest.fixture(scope="module")
def cli_json_inputs(tmp_path_factory):
    return generate("cli_json", str(tmp_path_factory.mktemp("fold-guard")))["paths"]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("format", ["json", "csv"])
def test_a_scenario_with_no_loss_fails_in_either_format(
    cli_json_inputs, tmp_path, pinned, capfd, format, cpus
):
    code, out = pinned(cpus, _run, cli_json_inputs, tmp_path, ZERO, format)
    assert (code, capfd.readouterr()) == (2, ("", ALL_ZERO))
    assert not out.exists()


def _ead(ead):
    """The fixture portfolio with its first row's EL ``ead`` (pd0 = lgd0 = 1), and, if ``ead``
    is half the float maximum, no EL in any other row: the total is ``ead`` exactly."""
    rows = [dict(INSTRUMENT_DICTS[0], ead=ead, pd0=1.0, lgd0=1.0)]
    return rows + [dict(row, pd0=0.0) if ead == sys.float_info.max / 2 else row
                   for row in INSTRUMENT_DICTS[1:]]


# Per case: the portfolio rows, the scenario document and the exit code. The scenario
# ``s`` is the physical shock at lambda 0, so that the stress metric stays finite; ``zero``
# leaves no loss once every row's adaptation is positive.
S = {"id": "s", "kind": "physical_shock", "lambda": 0}
CASES = {
    "plain": (INSTRUMENT_DICTS, S, 0),
    "zero-el": ([dict(row, adaptation=1.0) for row in INSTRUMENT_DICTS], ZERO, 2),
    "half-max": (_ead(sys.float_info.max / 2), S, 0),
    "above-half-max": (_ead(1e308), S, 0),
}


@pytest.mark.parametrize("format", ["json", "csv"])
@pytest.mark.parametrize("case", CASES)
def test_a_csv_entry_folds_only_where_the_fold_can_raise(
    fixture_files, tmp_path, monkeypatch, capsys, case, format
):
    rows, document, exit_code = CASES[case]
    fixture_files["portfolio"].write_bytes(portfolio_csv(rows))
    folds, totals = [], []

    def spy(*args):
        folds.append(args[1])
        return fold(*args)

    def watched(linked, scenario, top_k, **rows):
        pair = run_scenario(linked, scenario, top_k, **rows)
        totals.append(pair[0].total_el)
        return pair

    fold, run_scenario = pipeline._report, cli.run_scenario
    monkeypatch.setattr(pipeline, "_report", spy)
    monkeypatch.setattr(cli, "run_scenario", watched)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # one process: every fold here
    code, out = _run(fixture_files, tmp_path, document, format)
    capsys.readouterr()
    assert code == exit_code and out.exists() == (code == 0)
    guarded = {"plain": False, "zero-el": True, "half-max": False, "above-half-max": True}[case]
    assert folds == (["s" if code == 0 else "zero"] if format == "json" or guarded else [])
    if code == 0:
        assert (totals[0] == 0.0 or totals[0] > sys.float_info.max / 2) == guarded


def test_validate_derives_no_pair_or_channel_codes(fixture_files, monkeypatch, capsys):
    linked = []

    def load_linked(args, _load=cli._load_linked):
        linked.append(_load(args))
        return linked[-1]

    monkeypatch.setattr(cli, "_load_linked", load_linked)
    assert main(validate_argv(fixture_files)) == 0
    assert capsys.readouterr().out == "ok\n"
    held = vars(linked[0].codes)
    assert "hhi_geo_ead" in held
    assert not {"pairs", "pair_codes", "channels", "channel_codes"} & set(held)
    linked[0].codes.pair_codes  # a later read derives them, and holds them
    assert {"pairs", "pair_codes"} <= set(vars(linked[0].codes))
