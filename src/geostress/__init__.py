"""Geospatial climate stress-testing engine.

Maps per-location hazard intensities and per-sector transition shocks
into scenario-contingent credit losses, repricing, a portfolio stress
metric, and concentration diagnostics.
"""

from .analytics import (
    Contributor,
    ExposureReport,
    concentration_comparison,
    exposure_summary,
    group_el,
    hhi,
    top_contributors,
)
from .credit import (
    expected_loss,
    portfolio_credit,
    scenario_lgd,
    scenario_pd,
)
from .ingest import (
    ExposureContext,
    LinkedPortfolio,
    dump_portfolio,
    link_exposures,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
)
from .model import (
    BetaParams,
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    StressResult,
    StressRow,
    Violation,
    normalize_weights,
    validate_portfolio,
)
from .pipeline import run_scenario
from .report import emit_report
from .scenarios import (
    Repricing,
    Scenario,
    ScenarioKind,
    TransitionMap,
    builtin_scenarios,
    compose_compound,
    parse_scenario,
    serialize_scenario,
)
from .valuation import climate_var, portfolio_valuation, repricing_delta

__all__ = [
    "BetaParams",
    "Channel",
    "Contributor",
    "ExposureContext",
    "ExposureReport",
    "FragilityTable",
    "GeoUnit",
    "HazardField",
    "HazardType",
    "Instrument",
    "LinkedPortfolio",
    "Portfolio",
    "Repricing",
    "Scenario",
    "ScenarioKind",
    "StressResult",
    "StressRow",
    "TransitionMap",
    "Violation",
    "builtin_scenarios",
    "climate_var",
    "compose_compound",
    "concentration_comparison",
    "dump_portfolio",
    "emit_report",
    "expected_loss",
    "exposure_summary",
    "group_el",
    "hhi",
    "link_exposures",
    "load_fragility",
    "load_geounits",
    "load_hazard_table",
    "load_portfolio",
    "normalize_weights",
    "parse_scenario",
    "portfolio_credit",
    "portfolio_valuation",
    "repricing_delta",
    "run_scenario",
    "scenario_lgd",
    "scenario_pd",
    "serialize_scenario",
    "top_contributors",
    "validate_portfolio",
]

__version__ = "0.1.0"
