"""Geospatial climate stress-testing engine.

Maps per-location hazard intensities and per-sector transition shocks
into scenario-contingent credit losses, repricing, a portfolio stress
metric, and concentration diagnostics.
"""

# Each module's public names: the one list the package imports and exports.
_PUBLIC = {
    "analytics": ("Contributor", "ExposureReport", "concentration_comparison",
                  "exposure_summary", "group_el", "hhi", "top_contributors"),
    "credit": ("expected_loss", "portfolio_credit", "scenario_lgd", "scenario_pd"),
    "ingest": ("ExposureContext", "LinkedPortfolio", "dump_portfolio", "link_exposures",
               "load_fragility", "load_geounits", "load_hazard_table", "load_portfolio"),
    "model": ("BetaParams", "Channel", "FragilityTable", "GeoUnit", "HazardField", "HazardType",
              "Instrument", "Portfolio", "RowColumns", "StressResult", "StressRow", "Violation",
              "normalize_weights", "row_columns", "validate_portfolio"),
    "pipeline": ("run_scenario",),
    "report": ("emit_report",),
    "scenarios": ("Repricing", "Scenario", "ScenarioKind", "TransitionMap", "builtin_scenarios",
                  "compose_compound", "parse_scenario", "serialize_scenario"),
    "valuation": ("climate_var", "portfolio_valuation", "repricing_delta"),
}

# What ``from .module import names`` runs, so that ``-X importtime`` lists each module.
globals().update((name, getattr(__import__(module, globals(), None, names, 1), name))
                 for module, names in _PUBLIC.items() for name in names)
__all__ = sorted(name for names in _PUBLIC.values() for name in names)

__version__ = "0.1.0"
