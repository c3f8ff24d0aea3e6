"""The package's public surface: the names ``geostress`` exports, each the object of the
module that defines it, and nothing else in its namespace but its submodules."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import geostress

# Each module's public names, written out as the package has exported them.
PUBLIC = {
    "analytics": ["Contributor", "ExposureReport", "concentration_comparison",
                  "exposure_summary", "group_el", "hhi", "top_contributors"],
    "credit": ["expected_loss", "portfolio_credit", "scenario_lgd", "scenario_pd"],
    "ingest": ["ExposureContext", "LinkedPortfolio", "dump_portfolio", "link_exposures",
               "load_fragility", "load_geounits", "load_hazard_table", "load_portfolio"],
    "model": ["BetaParams", "Channel", "FragilityTable", "GeoUnit", "HazardField", "HazardType",
              "Instrument", "Portfolio", "RowColumns", "StressResult", "StressRow", "Violation",
              "normalize_weights", "row_columns", "validate_portfolio"],
    "pipeline": ["run_scenario"],
    "report": ["emit_report"],
    "scenarios": ["Repricing", "Scenario", "ScenarioKind", "TransitionMap", "builtin_scenarios",
                  "compose_compound", "parse_scenario", "serialize_scenario"],
    "valuation": ["climate_var", "portfolio_valuation", "repricing_delta"],
}

NAMES = [
    "BetaParams", "Channel", "Contributor", "ExposureContext", "ExposureReport",
    "FragilityTable", "GeoUnit", "HazardField", "HazardType", "Instrument", "LinkedPortfolio",
    "Portfolio", "Repricing", "RowColumns", "Scenario", "ScenarioKind", "StressResult",
    "StressRow", "TransitionMap", "Violation", "builtin_scenarios", "climate_var",
    "compose_compound", "concentration_comparison", "dump_portfolio", "emit_report",
    "expected_loss", "exposure_summary", "group_el", "hhi", "link_exposures", "load_fragility",
    "load_geounits", "load_hazard_table", "load_portfolio", "normalize_weights",
    "parse_scenario", "portfolio_credit", "portfolio_valuation", "repricing_delta",
    "row_columns", "run_scenario", "scenario_lgd", "scenario_pd", "serialize_scenario",
    "top_contributors", "validate_portfolio",
]

SUBMODULES = ["analytics", "credit", "errors", "ingest", "model", "pipeline", "report",
              "scenarios", "valuation"]


def test_all_is_the_47_names_sorted():
    assert len(NAMES) == 47 and NAMES == sorted(NAMES)
    assert sorted(name for names in PUBLIC.values() for name in names) == NAMES
    assert geostress.__all__ == NAMES


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from geostress import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES


def test_each_name_is_its_modules_object():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"geostress.{module}")
        for name in names:
            assert getattr(geostress, name) is vars(defining)[name], name


def test_namespace_holds_only_the_names_and_the_submodules():
    # A fresh process: a test that imports geostress.cli would add it here.
    code = ("import json, geostress; "
            "print(json.dumps(sorted(n for n in vars(geostress) if not n.startswith('_'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(geostress.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                           check=True, timeout=60)
    assert json.loads(child.stdout) == sorted(NAMES + SUBMODULES)


def test_version():
    assert geostress.__version__ == "0.1.0"
