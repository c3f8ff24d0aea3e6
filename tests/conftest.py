"""Shared fixtures: the 10-instrument / 4-geo portfolio in both raw-dict
form (for the brute-force oracle) and engine form, plus CSV renderers and
a row-by-row CSV reader for the loaders' reference implementations."""

from __future__ import annotations

import csv
import io
import os

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
from geostress import cli
from geostress.errors import MalformedRow, SchemaMismatch

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


def _open_fds():
    """This process's open file descriptors (Linux), or None where that is not known."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture
def pinned(monkeypatch, tmp_path):
    """``pinned(cpus, command, *args)``: call ``command(*args)`` with ``cpus`` usable CPUs
    (through ``cli._usable_cpus``), and check that it forked a worker only given two, and
    left no child, no open descriptor and no ``.stress-`` file under ``tmp_path``.
    ``pinned.forked`` holds the pids of the workers the last command forked."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        forked.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", counted)

    def run(cpus, command, *args):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        forked.clear()
        before = _open_fds()
        try:
            return command(*args)
        finally:
            assert _open_fds() == before
            assert not list(tmp_path.glob("**/.stress-*"))
            with pytest.raises(ChildProcessError):  # no child, running or unreaped
                os.waitpid(-1, os.WNOHANG)
            assert bool(forked) == (cpus > 1)  # the load worker, at least

    run.forked = forked
    return run


def as_stream(data: bytes) -> io.BytesIO:
    return io.BytesIO(data)


def reference_rows(source, filename, header):
    """The data rows of a CSV stream after its header, one at a time, each
    with the physical line it starts on (``reader.line_num`` before the
    row is read, plus one): the reader the loaders used before they read
    chunks, with that line rule. Blank lines are skipped."""
    text = io.TextIOWrapper(source, encoding="utf-8", newline="")
    reader = csv.reader(text)
    try:
        try:
            first = next(reader)
        except StopIteration:
            raise SchemaMismatch(f"{filename}: empty file, expected header {','.join(header)}") from None
        if first != list(header):
            missing = [col for col in header if col not in first]
            if missing:
                raise SchemaMismatch(f"{filename}: header missing column(s) {', '.join(missing)}")
            raise SchemaMismatch(
                f"{filename}: header {','.join(first)} != expected {','.join(header)}"
            )
        while True:
            lineno = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return
            if not row or (len(row) == 1 and row[0] == ""):
                continue
            if len(row) != len(header):
                raise MalformedRow(filename, lineno, f"expected {len(header)} fields, got {len(row)}")
            yield lineno, row
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{filename}: not UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        raise MalformedRow(filename, reader.line_num, str(exc)) from None
    finally:
        text.detach()
