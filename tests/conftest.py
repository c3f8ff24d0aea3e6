"""Shared fixtures: the 10-instrument / 4-geo portfolio in both raw-dict
form (for the brute-force oracle) and engine form, plus CSV renderers."""

from __future__ import annotations

import io

import pytest

from geostress import (
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    link_exposures,
)

GEO_CHANNELS = {
    "g1": "wui",
    "g2": "central_valley",
    "g3": "coastal",
    "g4": "urban_heat",
}

BASELINE_HAZARDS = {
    "g1": {"wildfire": 0.80, "drought": 0.30, "flood": 0.10, "heat": 0.40},
    "g2": {"wildfire": 0.20, "drought": 0.90, "flood": 0.15, "heat": 0.60},
    "g3": {"wildfire": 0.10, "drought": 0.20, "flood": 0.70, "heat": 0.30},
    "g4": {"wildfire": 0.05, "drought": 0.25, "flood": 0.20, "heat": 0.85},
}

FRAGILITY = {"g1": 0.60, "g2": 0.80, "g3": 0.40, "g4": 0.50}

INSTRUMENT_DICTS = [
    {"id": "i01", "geo_id": "g1", "sector": "real_estate", "ead": 1_000_000.0, "pd0": 0.020, "lgd0": 0.40, "value": 1_200_000.0, "adaptation": 0.50},
    {"id": "i02", "geo_id": "g1", "sector": "retail", "ead": 500_000.0, "pd0": 0.035, "lgd0": 0.45, "value": 480_000.0, "adaptation": 0.20},
    {"id": "i03", "geo_id": "g1", "sector": "tourism", "ead": 250_000.0, "pd0": 0.050, "lgd0": 0.55, "value": 260_000.0, "adaptation": 0.00},
    {"id": "i04", "geo_id": "g2", "sector": "agriculture", "ead": 2_000_000.0, "pd0": 0.030, "lgd0": 0.35, "value": 1_800_000.0, "adaptation": 0.80},
    {"id": "i05", "geo_id": "g2", "sector": "agriculture", "ead": 750_000.0, "pd0": 0.045, "lgd0": 0.50, "value": 700_000.0, "adaptation": 0.10},
    {"id": "i06", "geo_id": "g2", "sector": "retail", "ead": 300_000.0, "pd0": 0.025, "lgd0": 0.40, "value": 320_000.0, "adaptation": 0.30},
    {"id": "i07", "geo_id": "g3", "sector": "real_estate", "ead": 1_500_000.0, "pd0": 0.015, "lgd0": 0.30, "value": 1_900_000.0, "adaptation": 0.60},
    {"id": "i08", "geo_id": "g3", "sector": "tourism", "ead": 600_000.0, "pd0": 0.040, "lgd0": 0.50, "value": 640_000.0, "adaptation": 0.25},
    {"id": "i09", "geo_id": "g4", "sector": "real_estate", "ead": 900_000.0, "pd0": 0.022, "lgd0": 0.38, "value": 950_000.0, "adaptation": 0.45},
    {"id": "i10", "geo_id": "g4", "sector": "utilities", "ead": 400_000.0, "pd0": 0.060, "lgd0": 0.60, "value": 410_000.0, "adaptation": 0.15},
]


def make_portfolio(instrument_dicts=INSTRUMENT_DICTS) -> Portfolio:
    return Portfolio(instruments=tuple(Instrument(**d) for d in instrument_dicts))


def make_hazard_field(baselines=BASELINE_HAZARDS) -> HazardField:
    return HazardField(
        entries={
            (geo, HazardType(token)): intensity
            for geo, per_geo in baselines.items()
            for token, intensity in per_geo.items()
        }
    )


def make_registry(channels=GEO_CHANNELS) -> list[GeoUnit]:
    return [
        GeoUnit(id=geo, name=geo.upper(), channel=Channel(tag))
        for geo, tag in channels.items()
    ]


def portfolio_csv(instrument_dicts=INSTRUMENT_DICTS) -> bytes:
    lines = ["id,geo_id,sector,ead,pd0,lgd0,value,adaptation"]
    for d in instrument_dicts:
        lines.append(
            f"{d['id']},{d['geo_id']},{d['sector']},{d['ead']!r},{d['pd0']!r},"
            f"{d['lgd0']!r},{d['value']!r},{d['adaptation']!r}"
        )
    return ("\n".join(lines) + "\n").encode()


def hazards_csv(baselines=BASELINE_HAZARDS) -> bytes:
    lines = ["geo_id,hazard,intensity"]
    for geo, per_geo in baselines.items():
        for token, intensity in per_geo.items():
            lines.append(f"{geo},{token},{intensity!r}")
    return ("\n".join(lines) + "\n").encode()


def fragility_csv(fragility=FRAGILITY) -> bytes:
    lines = ["geo_id,fragility"]
    lines += [f"{geo},{value!r}" for geo, value in fragility.items()]
    return ("\n".join(lines) + "\n").encode()


def geounits_csv(channels=GEO_CHANNELS) -> bytes:
    lines = ["geo_id,name,channel"]
    lines += [f"{geo},{geo.upper()},{tag}" for geo, tag in channels.items()]
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def fixture_portfolio() -> Portfolio:
    return make_portfolio()


@pytest.fixture
def fixture_linked():
    return link_exposures(
        make_portfolio(),
        make_hazard_field(),
        FragilityTable(entries=dict(FRAGILITY)),
        make_registry(),
    )


@pytest.fixture
def fixture_files(tmp_path):
    """Write the fixture CSVs to disk and return their paths."""
    paths = {}
    for name, data in [
        ("portfolio.csv", portfolio_csv()),
        ("hazards.csv", hazards_csv()),
        ("fragility.csv", fragility_csv()),
        ("geounits.csv", geounits_csv()),
    ]:
        path = tmp_path / name
        path.write_bytes(data)
        paths[name.split(".")[0]] = path
    return paths


def as_stream(data: bytes) -> io.BytesIO:
    return io.BytesIO(data)
