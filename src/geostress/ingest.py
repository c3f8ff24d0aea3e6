"""CSV loaders and the exposure linker.

File schemas (exact, ordered headers, UTF-8, "." decimal point):

* portfolio.csv:  id,geo_id,sector,ead,pd0,lgd0,value,adaptation
* hazards.csv:    geo_id,hazard,intensity
* fragility.csv:  geo_id,fragility
* geounits.csv:   geo_id,name,channel

Loading is strict: duplicate keys, unknown enum tokens, negative or
non-finite quantities, missing columns and bytes that are not UTF-8 are
hard errors. Numbers are ASCII decimal or exponent notation, which
covers ``repr`` of every finite float: no surrounding whitespace, no
underscores, no other digits. A geo unit used by any instrument must
carry all four hazard types and a fragility entry; truly absent hazards
are encoded as explicit 0.0 rows.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from functools import cached_property
from math import inf, isfinite
from typing import IO, Iterable, Sequence

from .errors import (
    DuplicateKey,
    InvalidWeights,
    InvariantViolation,
    MalformedRow,
    Misalignment,
    MissingFragility,
    MissingHazard,
    NegativeFragility,
    NegativeIntensity,
    SchemaMismatch,
    UnknownHazardToken,
    UnresolvedGeo,
)
from .model import (
    CHANNEL_BY_TOKEN,
    HAZARD_BY_TOKEN,
    HAZARD_TYPES,
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    _check_fields,
    _check_weights,
    _require_nonnegative,
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
class LinkCodes:
    """Integer codes for what repeats across a linked portfolio's rows.

    Each ``*_codes`` list holds one index per instrument into the
    distinct values beside it, which are kept in first-appearance order.
    Contexts are told apart by identity. ``ids`` are the instruments' ids
    in row order, the id column of every scenario's results. ``geo_ead``
    is the EAD summed per geo code in row order. No scenario changes it, or
    the checked ``instruments`` and ``weights`` that the kernel reads.
    """

    ids: tuple[str, ...]
    contexts: tuple[ExposureContext, ...]
    context_codes: list[int]
    geo_ids: tuple[str, ...]
    geo_codes: list[int]
    sectors: tuple[str, ...]
    sector_codes: list[int]
    channels: tuple[str, ...]
    channel_codes: list[int]
    geo_ead: tuple[float, ...]
    instruments: tuple[Instrument, ...]
    weights: tuple[float, ...]


def _codes(keys: Iterable[object]) -> tuple[dict, list[int]]:
    """First-appearance codes for ``keys``: the key-to-code map and the
    code of each key in turn."""
    index: dict = {}
    return index, [index.setdefault(key, len(index)) for key in keys]


@dataclass(frozen=True)
class LinkedPortfolio:
    """A weight-normalized portfolio with resolved geo context per row."""

    portfolio: Portfolio
    contexts: tuple[ExposureContext, ...]
    weight_source: str  # "provided" or "derived_from_value"

    @cached_property
    def codes(self) -> LinkCodes:
        """The rows' integer codes, derived from the fields on first use.

        Deriving them checks, in order, what no scenario can change:
        alignment, weights, each instrument's fields and each distinct
        context's fragility; a failure caches nothing. ``dataclasses.replace``
        builds a new object, so the codes never outlive the fields.
        """
        instruments, weights = tuple(self.portfolio.instruments), self.portfolio.weights
        if len(self.contexts) != len(instruments):
            raise Misalignment("contexts do not match portfolio ids/order")
        if weights is None:
            raise InvalidWeights("a linked portfolio needs weights; link_exposures derives them")
        _check_weights(weights, len(instruments))
        _, context_codes = _codes(map(id, self.contexts))
        contexts = tuple({id(c): c for c in self.contexts}.values())
        geo_index, geo_codes = _codes(inst.geo_id for inst in instruments)
        if geo_codes == context_codes:
            geo_codes = context_codes  # one context per geo unit: share the list
        sector_index, sector_codes = _codes(inst.sector for inst in instruments)
        channel_index, channel_codes = _codes(c.channel.value for c in self.contexts)
        geo_ead = [0.0] * len(geo_index)
        for geo_code, inst in zip(geo_codes, instruments):
            if not (0.0 <= inst.pd0 <= 1.0 and 0.0 <= inst.lgd0 <= 1.0
                    and 0.0 <= inst.adaptation < inf and 0.0 <= inst.ead < inf
                    and 0.0 <= inst.value < inf):
                _check_fields(inst)
            geo_ead[geo_code] += inst.ead
        for context in contexts:
            _require_nonnegative(fragility=context.fragility)
        return LinkCodes(
            ids=tuple(inst.id for inst in instruments),
            contexts=contexts,
            context_codes=context_codes,
            geo_ids=tuple(geo_index),
            geo_codes=geo_codes,
            sectors=tuple(sector_index),
            sector_codes=sector_codes,
            channels=tuple(channel_index),
            channel_codes=channel_codes,
            geo_ead=tuple(geo_ead),
            instruments=instruments,
            weights=tuple(weights),
        )


def _rows(source: IO[bytes], filename: str, header: Sequence[str]) -> Iterable[tuple[int, list[str]]]:
    """The data rows of a CSV stream after its header, with line numbers.

    The caller's stream stays open: the text layer is detached from it
    once the rows are read or the reading stops.
    """
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
    except csv.Error as exc:
        # An over-long field, or a NUL byte before Python 3.11.
        raise MalformedRow(filename, reader.line_num, str(exc)) from None
    finally:
        text.detach()


# The characters of numbers joined by ",". A string that float() reads
# and that matches this is "." decimal or exponent notation: float() also
# reads underscores, surrounding whitespace, non-ASCII digits, nan and inf.
_PLAIN_NUMBERS = re.compile(r"[-+.0-9eE,]+")


def _float(token: str, filename: str, lineno: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(filename, lineno, f"{column}: not a number: {token!r}") from None
    if not isfinite(value):
        raise MalformedRow(filename, lineno, f"{column}: not a finite number: {token!r}")
    if not _PLAIN_NUMBERS.fullmatch(token):
        raise MalformedRow(filename, lineno, f"{column}: not a number: {token!r}")
    return value


def _portfolio_numbers(cells: list[str], filename: str, lineno: int) -> list[float]:
    """A portfolio row's five numbers, checked as one string; the cells are
    checked one by one only to name a bad one."""
    try:
        numbers = list(map(float, cells))
    except ValueError:
        pass
    else:
        # float() read every cell, so no cell holds a ",".
        if isfinite(sum(numbers)) and _PLAIN_NUMBERS.fullmatch(",".join(cells)):
            return numbers
    # A bad cell raises; if none does, only the sum above overflowed.
    return [
        _float(cell, filename, lineno, column)
        for cell, column in zip(cells, PORTFOLIO_HEADER[3:])
    ]


def load_portfolio(source: IO[bytes], filename: str = "portfolio.csv") -> Portfolio:
    """Load and validate a portfolio CSV, preserving row order."""
    instruments = []
    for lineno, row in _rows(source, filename, PORTFOLIO_HEADER):
        inst_id, geo_id, sector = row[0], row[1], row[2]
        ead, pd0, lgd0, value, adaptation = _portfolio_numbers(row[3:], filename, lineno)
        instruments.append(Instrument(inst_id, geo_id, sector, ead, pd0, lgd0, value, adaptation))
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
        hazard = HAZARD_BY_TOKEN.get(token)
        if hazard is None:
            raise UnknownHazardToken(f"{filename}:{lineno}: unknown hazard {token!r}")
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
        channel = CHANNEL_BY_TOKEN.get(channel_token)
        if channel is None:
            raise MalformedRow(filename, lineno, f"unknown channel {channel_token!r}")
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
    intensities, fragilities = hazards.entries, fragility.entries
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
                    baseline[hazard] = intensities[(inst.geo_id, hazard)]
                except KeyError:
                    raise MissingHazard(inst.geo_id, hazard.value) from None
            try:
                frag = fragilities[inst.geo_id]
            except KeyError:
                raise MissingFragility(inst.geo_id) from None
            context = resolved[inst.geo_id] = ExposureContext(
                baseline_hazards=baseline, fragility=frag, channel=unit.channel
            )
        contexts.append(context)
    return LinkedPortfolio(
        portfolio=normalized, contexts=tuple(contexts), weight_source=weight_source
    )
