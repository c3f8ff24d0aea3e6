"""Golden reports: the bytes ``stress run`` writes, pinned by digest.

The inputs come from the benchmark's generator (``perfbench/gen.py``) at
3,000 instruments, in the shape of each benchmark workload. For every
input set the test pins the SHA-256 of each generated file, the JSON
report's SHA-256 and length at top-k 1, 10 and 100000, the CSV report's,
stdout, stderr and the exit code, and the SHA-256 of
``repr(run_scenario(...))`` for every scenario at the same three top-k
values. A set of inputs that must exit 2 pins its exit code, stdout and
stderr.

``tests/golden.json`` holds the expected values. They were recorded once
and are never regenerated to make this test pass: a report that changes
is a bug, and a generator that changes fails ``test_generated_inputs``
before any report is compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil

import pytest

from geostress import builtin_scenarios, cli, run_scenario, serialize_scenario

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
TOP_KS = (1, 10, 100000)
INPUTS = ("portfolio", "hazards", "fragility", "geounits")


def _load_generator():
    path = os.path.join(os.path.dirname(HERE), "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("geostress_bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_generator()

# Each benchmark workload's shape at 3,000 instruments: instruments per
# geo unit, sector count, and the scenarios run.
INPUT_SETS = {
    "cli_json": {"seed": 1, "geos": 10, "sectors": 5, "variants": None, "builtin": "all"},
    "cli_csv_sparse": {"seed": 2, "geos": 1500, "sectors": 1000, "variants": None,
                       "builtin": "compound"},
    "sweep_lib": {"seed": 3, "geos": 10, "sectors": 5, "variants": 4, "builtin": None},
}
N = 3000


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(name: str, directory: str) -> dict:
    """Write one input set into ``directory``; return the generator's record."""
    spec = INPUT_SETS[name]
    docs = None
    if spec["variants"] is not None:
        builtins = [json.loads(serialize_scenario(s)) for s in builtin_scenarios()]
        docs = gen.scenario_docs(builtins, spec["variants"], spec["seed"])
    return gen.generate(directory, spec["seed"], N, spec["geos"], spec["sectors"],
                        scenarios=docs)


def _input_flags(paths: dict) -> list[str]:
    return [flag for name in INPUTS for flag in (f"--{name}", paths[name])]


def _scenario_flags(name: str, inputs: dict) -> list[str]:
    builtin = INPUT_SETS[name]["builtin"]
    if builtin is not None:
        return ["--builtin", builtin]
    return [flag for path in inputs["scenario_paths"] for flag in ("--scenario", path)]


def _main(argv: list[str], directory: str) -> dict:
    """Run the CLI in process; its exit code, stdout, stderr and the
    report it wrote, with ``directory`` replaced by ``<dir>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    observed = {"exit": code, "stdout": out.getvalue().replace(directory, "<dir>"),
                "stderr": err.getvalue().replace(directory, "<dir>")}
    if "--out" in argv:
        report = argv[argv.index("--out") + 1]
        if os.path.exists(report):
            with open(report, "rb") as fh:
                data = fh.read()
            os.remove(report)
            observed.update(sha256=_sha256(data), bytes=len(data))
    return observed


def observe_reports(name: str, inputs: dict, directory: str) -> dict:
    flags = _input_flags(inputs["paths"]) + _scenario_flags(name, inputs)
    out = os.path.join(directory, "report.out")
    observed = {"validate": _main(["validate", *flags], directory)}
    for top_k in TOP_KS:
        observed[f"json-top{top_k}"] = _main(
            ["run", *flags, "--out", out, "--top-k", str(top_k)], directory)
    observed["csv"] = _main(["run", *flags, "--out", out, "--format", "csv"], directory)
    return observed


def observe_results(name: str, inputs: dict) -> dict:
    """The SHA-256 of ``repr(run_scenario(...))`` per scenario and top-k."""
    args = cli.build_parser().parse_args(
        ["validate", *_input_flags(inputs["paths"]), *_scenario_flags(name, inputs)])
    linked = cli._load_linked(args)
    observed = {}
    for scenario in cli._load_scenarios(args):
        first, _ = run_scenario(linked, scenario)
        first_text = repr(first)  # the results at every top-k equal this one
        observed[scenario.id] = digests = {}
        for top_k in TOP_KS:
            result, report = run_scenario(linked, scenario, top_k)
            assert result == first
            # The text of repr((result, report)).
            digests[str(top_k)] = _sha256(f"({first_text}, {report!r})".encode())
    return observed


def observe_inputs(inputs: dict) -> dict:
    observed = {}
    for path in [*inputs["paths"].values(), *inputs["scenario_paths"]]:
        with open(path, "rb") as fh:
            observed[os.path.basename(path)] = _sha256(fh.read())
    return observed


def _replace_line(path: str, index: int, change) -> None:
    """Rewrite line ``index`` of a CSV file as ``change(cells)``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    lines[index] = ",".join(change(lines[index].split(",")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _set_cell(column: int, token: str):
    return lambda cells: [*cells[:column], token, *cells[column + 1:]]


# Inputs that every run must reject with exit 2, built from the cli_json
# set: (portfolio lines to change, hazards lines to change, scenario
# document, report format).
ERROR_CASES = {
    # Two EADs whose sum overflows: the EAD-based geo HHI has no finite basis.
    "ead-overflow": ([(1, _set_cell(3, "1.7e308")), (2, _set_cell(3, "1.7e308"))], [],
                     None, "json"),
    # b_H*H and b_A*A both reach +inf on row 1, so its PD exponent is nan.
    "nan-pd-exponent": ([(1, _set_cell(7, "2.0"))], [], {
        "id": "x", "kind": "compound",
        "hazard_multipliers": {h: 100 for h in gen.HAZARDS},
        "betas": {"hazard": 1e308, "adaptation": 1e308},
    }, "json"),
    "surrogate-id-json": ([], [], {"id": "\ud800", "kind": "compound"}, "json"),
    "surrogate-id-csv": ([], [], {"id": "\ud800", "kind": "compound"}, "csv"),
    # A wildfire intensity of 1e308 scaled by 10 binds H at +inf.
    "inf-hazard-json": ([], [(1, _set_cell(2, "1e308"))], {
        "id": "x", "kind": "compound", "hazard_multipliers": {"wildfire": 10},
    }, "json"),
    "inf-hazard-csv": ([], [(1, _set_cell(2, "1e308"))], {
        "id": "x", "kind": "compound", "hazard_multipliers": {"wildfire": 10},
    }, "csv"),
}


def observe_error(case: str, source: dict, directory: str) -> dict:
    """Run ``case`` on a copy of the ``source`` input set in ``directory``."""
    portfolio_changes, hazard_changes, document, fmt = ERROR_CASES[case]
    paths = {name: shutil.copy(path, directory) for name, path in source["paths"].items()}
    for index, change in portfolio_changes:
        _replace_line(paths["portfolio"], index, change)
    for index, change in hazard_changes:
        _replace_line(paths["hazards"], index, change)
    scenario_flags = ["--builtin", "all"]
    if document is not None:
        scenario_path = os.path.join(directory, "case.json")
        with open(scenario_path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)  # ASCII, so a lone surrogate stays escaped
        scenario_flags = ["--scenario", scenario_path]
    out = os.path.join(directory, "report.out")
    return _main(["run", *_input_flags(paths), *scenario_flags, "--out", out,
                  "--format", fmt], directory)


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    made = {}

    def make(name: str) -> tuple[dict, str]:
        if name not in made:
            directory = str(tmp_path_factory.mktemp(name))
            made[name] = generate(name, directory), directory
        return made[name]

    return make


@pytest.mark.parametrize("name", list(INPUT_SETS))
def test_generated_inputs(golden, generated, name):
    inputs, _ = generated(name)
    assert observe_inputs(inputs) == golden[name]["inputs"]


@pytest.mark.parametrize("name", list(INPUT_SETS))
def test_reports(golden, generated, name):
    inputs, directory = generated(name)
    observed = observe_reports(name, inputs, directory)
    for run, expected in golden[name]["reports"].items():
        assert observed[run] == expected, run
    assert observed.keys() == golden[name]["reports"].keys()


@pytest.mark.parametrize("name", list(INPUT_SETS))
def test_run_scenario_results(golden, generated, name):
    inputs, _ = generated(name)
    assert observe_results(name, inputs) == golden[name]["results"]


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_rejected_inputs(golden, generated, tmp_path, case):
    inputs, _ = generated("cli_json")
    observed = observe_error(case, inputs, str(tmp_path))
    assert observed == golden["errors"][case]
    assert observed["exit"] == 2 and observed["stdout"] == ""
    assert "Traceback" not in observed["stderr"]
