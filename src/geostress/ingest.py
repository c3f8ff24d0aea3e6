"""CSV loaders and the exposure linker.

File schemas (exact, ordered headers, UTF-8, "." decimal point):

* portfolio.csv:  id,geo_id,sector,ead,pd0,lgd0,value,adaptation
* hazards.csv:    geo_id,hazard,intensity
* fragility.csv:  geo_id,fragility
* geounits.csv:   geo_id,name,channel

Loading is strict: duplicate keys, unknown enum tokens, negative or
non-finite quantities, missing columns and bytes that are not UTF-8 are
hard errors. A geo unit used by any instrument must carry all four
hazard types and a fragility entry; truly absent hazards are encoded as
explicit 0.0 rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import isfinite
from typing import IO, Iterable, Sequence

from .errors import (
    DuplicateKey,
    InvariantViolation,
    MalformedRow,
    MissingFragility,
    MissingHazard,
    NegativeFragility,
    NegativeIntensity,
    SchemaMismatch,
    UnknownHazardToken,
    UnresolvedGeo,
)
from .model import (
    HAZARD_TYPES,
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    normalize_weights,
    validate_portfolio,
)

PORTFOLIO_HEADER = ["id", "geo_id", "sector", "ead", "pd0", "lgd0", "value", "adaptation"]
HAZARDS_HEADER = ["geo_id", "hazard", "intensity"]
FRAGILITY_HEADER = ["geo_id", "fragility"]
GEOUNITS_HEADER = ["geo_id", "name", "channel"]


@dataclass(frozen=True)
class ExposureContext:
    """Resolved geo-unit context: baseline hazards, fragility, channel.

    link_exposures builds one per geo unit and shares it between the
    instruments located there.
    """

    baseline_hazards: dict[HazardType, float]
    fragility: float
    channel: Channel


@dataclass(frozen=True)
class LinkedPortfolio:
    """A weight-normalized portfolio with resolved geo context per row."""

    portfolio: Portfolio
    contexts: tuple[ExposureContext, ...]
    weight_source: str  # "provided" or "derived_from_value"


def _rows(source: IO[bytes], filename: str, header: Sequence[str]) -> Iterable[tuple[int, list[str]]]:
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
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0] == ""):
                continue  # blank trailing line permitted
            if len(row) != len(header):
                raise MalformedRow(filename, lineno, f"expected {len(header)} fields, got {len(row)}")
            yield lineno, row
    except UnicodeDecodeError as exc:
        # The text layer decodes ahead of the reader in blocks, so the
        # failing line is not known here; name the file.
        raise SchemaMismatch(f"{filename}: not UTF-8: {exc.reason}") from None


def _float(token: str, filename: str, lineno: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(filename, lineno, f"{column}: not a number: {token!r}") from None
    if not isfinite(value):
        raise MalformedRow(filename, lineno, f"{column}: not a finite number: {token!r}")
    return value


def load_portfolio(source: IO[bytes], filename: str = "portfolio.csv") -> Portfolio:
    """Load and validate a portfolio CSV, preserving row order."""
    instruments = []
    for lineno, row in _rows(source, filename, PORTFOLIO_HEADER):
        inst_id, geo_id, sector = row[0], row[1], row[2]
        ead, pd0, lgd0, value, adaptation = (
            _float(row[i], filename, lineno, PORTFOLIO_HEADER[i]) for i in range(3, 8)
        )
        instruments.append(
            Instrument(
                id=inst_id,
                geo_id=geo_id,
                sector=sector,
                ead=ead,
                pd0=pd0,
                lgd0=lgd0,
                value=value,
                adaptation=adaptation,
            )
        )
    portfolio = Portfolio(instruments=tuple(instruments))
    violations = validate_portfolio(portfolio)
    if violations:
        raise InvariantViolation(
            f"{filename}: " + "; ".join(str(v) for v in violations)
        )
    return portfolio


def dump_portfolio(portfolio: Portfolio) -> bytes:
    """Serialize a portfolio back to its CSV schema (round-trip partner)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PORTFOLIO_HEADER)
    for inst in portfolio.instruments:
        writer.writerow(
            [
                inst.id,
                inst.geo_id,
                inst.sector,
                repr(inst.ead),
                repr(inst.pd0),
                repr(inst.lgd0),
                repr(inst.value),
                repr(inst.adaptation),
            ]
        )
    return out.getvalue().encode("utf-8")


def load_hazard_table(source: IO[bytes], filename: str = "hazards.csv") -> HazardField:
    """Load baseline hazard intensities with unique (geo_id, hazard) keys."""
    entries: dict[tuple[str, HazardType], float] = {}
    for lineno, row in _rows(source, filename, HAZARDS_HEADER):
        geo_id, token = row[0], row[1]
        try:
            hazard = HazardType.from_token(token)
        except KeyError:
            raise UnknownHazardToken(f"{filename}:{lineno}: unknown hazard {token!r}") from None
        intensity = _float(row[2], filename, lineno, "intensity")
        if intensity < 0.0:
            raise NegativeIntensity(f"{filename}:{lineno}: intensity {intensity} < 0")
        key = (geo_id, hazard)
        if key in entries:
            raise DuplicateKey(f"{filename}:{lineno}: duplicate ({geo_id}, {token})")
        entries[key] = intensity
    return HazardField(entries=entries)


def load_fragility(source: IO[bytes], filename: str = "fragility.csv") -> FragilityTable:
    """Load per-geo fragility values, all >= 0, unique geo_id keys."""
    entries: dict[str, float] = {}
    for lineno, row in _rows(source, filename, FRAGILITY_HEADER):
        geo_id = row[0]
        value = _float(row[1], filename, lineno, "fragility")
        if value < 0.0:
            raise NegativeFragility(f"{filename}:{lineno}: fragility {value} < 0")
        if geo_id in entries:
            raise DuplicateKey(f"{filename}:{lineno}: duplicate geo_id {geo_id!r}")
        entries[geo_id] = value
    return FragilityTable(entries=entries)


def load_geounits(source: IO[bytes], filename: str = "geounits.csv") -> list[GeoUnit]:
    """Load the geo registry with channel tags."""
    units: list[GeoUnit] = []
    seen: set[str] = set()
    for lineno, row in _rows(source, filename, GEOUNITS_HEADER):
        geo_id, name, channel_token = row
        if not geo_id:
            raise MalformedRow(filename, lineno, "geo_id must be nonempty")
        if geo_id in seen:
            raise DuplicateKey(f"{filename}:{lineno}: duplicate geo_id {geo_id!r}")
        seen.add(geo_id)
        try:
            channel = Channel.from_token(channel_token)
        except KeyError:
            raise MalformedRow(
                filename, lineno, f"unknown channel {channel_token!r}"
            ) from None
        units.append(GeoUnit(id=geo_id, name=name, channel=channel))
    return units


def link_exposures(
    portfolio: Portfolio,
    hazards: HazardField,
    fragility: FragilityTable,
    registry: Sequence[GeoUnit],
) -> LinkedPortfolio:
    """Resolve each instrument's geo context and normalize weights.

    Order-preserving and deterministic; never alters any instrument
    numeric field. Requires all four hazard types and a fragility entry
    for every referenced geo unit. Each geo unit is resolved once:
    instruments in the same geo unit share one ExposureContext object,
    which lets scenario evaluation compute per-geo terms once.
    """
    by_geo = {unit.id: unit for unit in registry}
    weight_source = "provided" if portfolio.weights is not None else "derived_from_value"
    normalized = normalize_weights(portfolio)

    resolved: dict[str, ExposureContext] = {}
    contexts = []
    for inst in normalized.instruments:
        context = resolved.get(inst.geo_id)
        if context is None:
            unit = by_geo.get(inst.geo_id)
            if unit is None:
                raise UnresolvedGeo(inst.id, inst.geo_id)
            baseline = {}
            for hazard in HAZARD_TYPES:
                try:
                    baseline[hazard] = hazards.intensity(inst.geo_id, hazard)
                except KeyError:
                    raise MissingHazard(inst.geo_id, hazard.value) from None
            try:
                frag = fragility.fragility(inst.geo_id)
            except KeyError:
                raise MissingFragility(inst.geo_id) from None
            context = resolved[inst.geo_id] = ExposureContext(
                baseline_hazards=baseline, fragility=frag, channel=unit.channel
            )
        contexts.append(context)
    return LinkedPortfolio(
        portfolio=normalized, contexts=tuple(contexts), weight_source=weight_source
    )
