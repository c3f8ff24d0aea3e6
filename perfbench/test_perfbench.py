"""Tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They cover the generator's determinism, the checker's ability to reject
wrong reports, the tracer's handling of a missing layer, and that every
metric the runner prints is declared in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from geostress import builtin_scenarios, serialize_scenario  # noqa: E402
from geostress.cli import main as stress_main  # noqa: E402

BUILTINS = [json.loads(serialize_scenario(s)) for s in builtin_scenarios()]

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _read_all(directory) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_generator_is_deterministic(tmp_path):
    infos = [gen.generate(str(tmp_path / d), 7, 400, 20, 12,
                          scenarios=gen.scenario_docs(BUILTINS, 3, seed=7))
             for d in ("a", "b")]
    first, second = _read_all(tmp_path / "a"), _read_all(tmp_path / "b")
    assert len(first) == 4 + len(BUILTINS) + 3
    assert first == second
    assert infos[0]["properties"] == infos[1]["properties"]
    assert infos[0]["properties"]["inst_per_geo"] == 400 / 20

    gen.generate(str(tmp_path / "c"), 8, 400, 20, 12)
    assert (tmp_path / "c" / "portfolio.csv").read_bytes() != first["portfolio.csv"]


def test_scenario_variants_all_differ():
    docs = gen.scenario_docs(BUILTINS, 8, seed=3)
    bodies = [json.dumps({k: v for k, v in d.items() if k != "id"}, sort_keys=True)
              for d in docs]
    assert len(set(bodies)) == len(docs)
    assert len({d["id"] for d in docs}) == len(docs)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A real report of each format on a 300-instrument portfolio."""
    work = tmp_path_factory.mktemp("small")
    info = gen.generate(str(work), 3, 300, 12, 6)
    paths = info["paths"]
    flags = ["--portfolio", paths["portfolio"], "--hazards", paths["hazards"],
             "--fragility", paths["fragility"], "--geounits", paths["geounits"]]
    outputs = {}
    for fmt in ("json", "csv"):
        out = work / f"report.{fmt}"
        stdout = io.StringIO()
        real_stdout, sys.stdout = sys.stdout, stdout
        try:
            code = stress_main(["run", *flags, "--builtin", "all", "--format", fmt,
                                "--out", str(out)])
        finally:
            sys.stdout = real_stdout
        assert code == 0
        outputs[fmt] = (out.read_bytes(), stdout.getvalue())
    return check.Inputs(paths), outputs


def _perturb_digit(x: float) -> float:
    text = repr(x)
    i = next(k for k, c in enumerate(text) if c.isdigit() and c != "0")
    return float(text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:])


def _mutate_json(data: bytes, how: str) -> bytes:
    docs = json.loads(data)
    rows = docs[1]["rows"]
    if how == "digit":
        rows[17]["el_s"] = _perturb_digit(rows[17]["el_s"])
    elif how == "nan":
        rows[17]["dv_s"] = float("nan")
    elif how == "drop":
        del rows[17]
    return (json.dumps(docs, sort_keys=True, indent=2) + "\n").encode()


def _mutate_csv(data: bytes, how: str) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode())))
    target = 1 + 300 + 17  # row 17 of the second scenario, after the header
    if how == "digit":
        rows[target][4] = repr(_perturb_digit(float(rows[target][4])))
    elif how == "nan":
        rows[target][5] = "nan"
    elif how == "drop":
        del rows[target]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


CHECKERS = {"json": (check.check_json_report, _mutate_json),
            "csv": (check.check_csv_report, _mutate_csv)}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_checker_accepts_the_engine_report(small_run, fmt):
    inputs, outputs = small_run
    data, stdout = outputs[fmt]
    checker, _ = CHECKERS[fmt]
    assert checker(data, stdout, inputs, BUILTINS, sample_seed=1) == []


@pytest.mark.parametrize("how", ["digit", "nan", "drop"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_checker_rejects_a_damaged_report(small_run, fmt, how):
    inputs, outputs = small_run
    data, stdout = outputs[fmt]
    checker, mutate = CHECKERS[fmt]
    damaged = mutate(data, how)
    assert damaged != data
    assert checker(damaged, stdout, inputs, BUILTINS, sample_seed=1) != []


def test_checker_rejects_a_wrong_summary_line(small_run):
    inputs, outputs = small_run
    data, stdout = outputs["json"]
    wrong = stdout.replace("total_el=", "total_el=1", 1)
    assert check.check_json_report(data, wrong, inputs, BUILTINS, sample_seed=1) != []


def test_tracer_records_a_missing_layer_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (("credit", "no_such_step"),))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["credit.no_such_step"]
    metrics = tracing.layer_metrics(tracer.records(), tracer.counts)
    assert metrics["credit.no_such_step_s"] == 0.0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_are_declared(name, trace):
    full = run.WORKLOADS[name]
    small = dataclasses.replace(full, n=200, geos=min(full.geos, 40),
                                sectors=min(full.sectors, 30))
    outcome = run.run_workload(small, seed=2, seconds=0, trace=trace, spec=SPEC)
    result = outcome["result"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert outcome["record"]["third_party_imports"] == []
    assert outcome["record"]["absent_layers"] == []
    if not trace:
        timed = outcome["record"]["samples"]
        for metric, loops in (("run_s", "run_loop_s"), ("setup_s", "setup_loop_s")):
            assert len(timed[metric]) == len(timed[loops]) >= run.MIN_ROUNDS
            assert result["metrics"][metric]["value"] == pytest.approx(
                reference.at_reference_speed(timed[metric], timed[loops]))
