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
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import inf, isfinite
from operator import itemgetter
from typing import IO, Iterable, Optional, Sequence

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
    StressError,
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
    InstrumentColumns,
    Portfolio,
    _check_fields,
    _check_weights,
    _codes,
    _require_nonnegative,
    instrument_columns,
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
    distinct values beside it, which are kept in first-appearance order,
    except ``pairs``: the (context, sector) pairs that occur, as sorted
    keys ``context_code * len(sectors) + sector_code``. Contexts are told
    apart by identity. ``ids`` are the instruments' ids in row order, the
    id column of every scenario's results. ``geo_ead`` is the EAD summed
    per geo code in row order. No scenario changes it, or the checked
    instrument ``columns`` and ``weights`` that the kernel reads.
    """

    ids: tuple[str, ...]
    contexts: tuple[ExposureContext, ...]
    context_codes: list[int]
    geo_ids: tuple[str, ...]
    geo_codes: list[int]
    sectors: tuple[str, ...]
    sector_codes: list[int]
    pairs: tuple[int, ...]
    pair_codes: list[int]
    channels: tuple[str, ...]
    channel_codes: list[int]
    geo_ead: tuple[float, ...]
    columns: InstrumentColumns
    weights: tuple[float, ...]


@dataclass(frozen=True)
class LinkedPortfolio:
    """A weight-normalized portfolio with resolved geo context per row."""

    portfolio: Portfolio
    contexts: tuple[ExposureContext, ...]
    weight_source: str  # "provided" or "derived_from_value"

    @cached_property
    def codes(self) -> LinkCodes:
        """The rows' integer codes, taken from the instrument columns on
        first use.

        Taking them checks, in order, what no scenario can change:
        alignment, weights, each instrument's fields (unless
        ``load_portfolio`` checked them) and each distinct context's
        fragility; a failure caches nothing. ``dataclasses.replace``
        builds a new object, so the codes never outlive the fields.
        """
        columns, weights = instrument_columns(self.portfolio), self.portfolio.weights
        if len(self.contexts) != len(columns.id):
            raise Misalignment("contexts do not match portfolio ids/order")
        if weights is None:
            raise InvalidWeights("a linked portfolio needs weights; link_exposures derives them")
        _check_weights(weights, len(columns.id))
        if columns is not vars(self.portfolio)["instruments"]:  # not from load_portfolio
            for fields in zip(columns.pd0, columns.lgd0, columns.adaptation, columns.ead,
                              columns.value):
                _check_fields(*fields)
        _, context_codes = _codes(list(map(id, self.contexts)))
        contexts = tuple(dict(zip(map(id, self.contexts), self.contexts)).values())
        geo_codes = columns.geo_codes
        if geo_codes == context_codes:
            geo_codes = context_codes  # one context per geo unit: share the list
        channel_index, context_channels = _codes([c.channel.value for c in contexts])
        n_sectors = len(columns.sectors)
        pair_keys = [c * n_sectors + s for c, s in zip(context_codes, columns.sector_codes)]
        # Sorted, so the kernel holds each context's pair terms together, in context order.
        pair_index = {key: code for code, key in enumerate(sorted(set(pair_keys)))}
        geo_ead = [0.0] * len(columns.geo_ids)
        for geo_code, ead in zip(geo_codes, columns.ead):
            geo_ead[geo_code] += ead
        for context in contexts:
            if not 0.0 <= context.fragility < inf:
                _require_nonnegative(fragility=context.fragility)
        return LinkCodes(
            ids=columns.id,
            contexts=contexts,
            context_codes=context_codes,
            geo_ids=columns.geo_ids,
            geo_codes=geo_codes,
            sectors=columns.sectors,
            sector_codes=columns.sector_codes,
            pairs=tuple(pair_index),
            pair_codes=list(map(pair_index.__getitem__, pair_keys)),
            channels=tuple(channel_index),
            channel_codes=list(map(context_channels.__getitem__, context_codes)),
            geo_ead=tuple(geo_ead),
            columns=columns,
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


def _plain_floats(cells: Sequence[str]) -> Optional[list[float]]:
    """``cells`` as floats, checked as one string, or None if a cell is not
    a plain finite number or their sum overflows."""
    try:
        numbers = list(map(float, cells))
    except ValueError:
        return None
    # float() read every cell, so no cell holds a ",".
    if isfinite(sum(numbers)) and _PLAIN_NUMBERS.fullmatch(",".join(cells)):
        return numbers
    return None


def _portfolio_numbers(cells: list[str], filename: str, lineno: int) -> list[float]:
    """A portfolio row's five numbers; the cells are checked one by one only
    to name a bad one. If none is bad, only their sum overflowed."""
    return _plain_floats(cells) or [
        _float(cell, filename, lineno, column)
        for cell, column in zip(cells, PORTFOLIO_HEADER[3:])
    ]


# Rows whose cells are held as strings at once: few, to keep the peak low.
_CHUNK_ROWS = 4096


def load_portfolio(source: IO[bytes], filename: str = "portfolio.csv") -> Portfolio:
    """Load and validate a portfolio CSV, preserving row order, into
    ``InstrumentColumns``: no ``Instrument`` is built. A chunk's numbers
    are checked a column at a time, and the rules over the portfolio over
    its columns; the rows are looked at only to name what breaks a check.
    """
    rows = _rows(source, filename, PORTFOLIO_HEADER)
    ids, geo_index, sector_index, geo_codes, sector_codes = [], {}, {}, [], []
    numbers = [array("d") for _ in PORTFOLIO_HEADER[3:]]
    while True:
        chunk: list[tuple[int, list[str]]] = []
        try:
            chunk.extend(islice(rows, _CHUNK_ROWS))
        except StressError:
            for lineno, row in chunk:  # a bad number above the bad row comes first
                _portfolio_numbers(row[3:], filename, lineno)
            raise
        if not chunk:
            break
        cells = list(zip(*map(itemgetter(1), chunk)))
        ids.extend(cells[0])
        geo_codes += _codes(cells[1], geo_index)[1]
        sector_codes += _codes(cells[2], sector_index)[1]
        converted = [_plain_floats(column) for column in cells[3:]]
        if None in converted:  # name the bad cell; if none is, a column sum overflowed
            converted = zip(*(_portfolio_numbers(row[3:], filename, lineno) for lineno, row in chunk))
        for column, part in zip(numbers, converted):
            column.extend(part)
    columns = InstrumentColumns(
        tuple(ids), tuple(geo_index), geo_codes, tuple(sector_index), sector_codes, *numbers
    )
    portfolio = Portfolio(instruments=columns)
    if not (ids and all(ids) and len(set(ids)) == len(ids) and min(map(min, numbers)) >= 0.0
            and max(columns.pd0) <= 1.0 and max(columns.lgd0) <= 1.0):
        raise InvariantViolation(
            f"{filename}: " + "; ".join(str(v) for v in validate_portfolio(portfolio))
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
    columns = instrument_columns(normalized)

    resolved = []  # per geo code
    for geo_code, geo_id in enumerate(columns.geo_ids):
        unit = by_geo.get(geo_id)
        if unit is None:
            raise UnresolvedGeo(columns.id[columns.geo_codes.index(geo_code)], geo_id)
        baseline = {}
        for hazard in HAZARD_TYPES:
            try:
                baseline[hazard] = intensities[(geo_id, hazard)]
            except KeyError:
                raise MissingHazard(geo_id, hazard.value) from None
        try:
            frag = fragilities[geo_id]
        except KeyError:
            raise MissingFragility(geo_id) from None
        resolved.append(
            ExposureContext(baseline_hazards=baseline, fragility=frag, channel=unit.channel)
        )
    return LinkedPortfolio(
        portfolio=normalized,
        contexts=tuple(map(resolved.__getitem__, columns.geo_codes)),
        weight_source=weight_source,
    )
