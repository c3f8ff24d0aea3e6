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
are encoded as explicit 0.0 rows. Files are checked by column, in chunks.
The link is one step per side table, each one lookup per distinct geo id
of the portfolio into a table held by geo id, giving a float column (the
ids are all a step reads, so a process without the portfolio can run it),
then ``link_resolved``, the only one that raises.
"""

from __future__ import annotations

import csv
import io
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from math import isfinite, isnan, nan
from operator import add, is_, mul
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    AllZero,
    DomainError,
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
    DOMAINS,
    HAZARD_TYPES,
    Channel,
    FragilityTable,
    GeoUnit,
    HazardColumns,
    HazardField,
    HazardType,
    InstrumentColumns,
    Portfolio,
    _CHECKED,
    _Rows,
    _check_columns,
    _check_weights,
    _codes,
    _in_domain,
    _read_only,
    _reduced,
    hhi,
    normalize_weights,
    validate_portfolio,
)

PORTFOLIO_HEADER = ["id", "geo_id", "sector", "ead", "pd0", "lgd0", "value", "adaptation"]
HAZARDS_HEADER = ["geo_id", "hazard", "intensity"]
FRAGILITY_HEADER = ["geo_id", "fragility"]
GEOUNITS_HEADER = ["geo_id", "name", "channel"]


@dataclass(frozen=True)
class ExposureContext:
    """Resolved geo-unit context: baseline hazards, fragility, channel. The first read of
    ``LinkedPortfolio.contexts`` builds one per distinct context, shared by its rows, and
    keeps them (``model._Rows``)."""

    baseline_hazards: dict[HazardType, float]
    fragility: float
    channel: Channel


class ContextColumns(NamedTuple):
    """Contexts as columns: ``hazards`` holds each context's four baselines in ``HAZARD_TYPES``
    order, context after context (a float column, or a list with None at a gap), ``fragility``
    and ``channel`` one entry per context, and ``codes`` each row's (linked: its geo code)."""

    hazards: Sequence[Optional[float]]
    fragility: Sequence[float]
    channel: Sequence[Channel]
    codes: Sequence[int]

    @classmethod
    def of(cls, contexts: Sequence[ExposureContext]) -> ContextColumns:
        """Contexts as columns, each distinct object once, in first-appearance order."""
        _, codes = _codes(list(map(id, contexts)))
        distinct = tuple(dict(zip(map(id, contexts), contexts)).values())
        hazards = [c.baseline_hazards.get(h) for c in distinct for h in HAZARD_TYPES]
        return cls(_resolved(hazards), _resolved([c.fragility for c in distinct]),
                   tuple(c.channel for c in distinct), codes)

    __reduce__ = InstrumentColumns.__reduce__  # a read-only column as its bytes

    def rows(self) -> tuple[ExposureContext, ...]:
        baselines = ({h: v for h, v in zip(HAZARD_TYPES, values) if v is not None}
                     for values in _per_context(self.hazards))
        contexts = list(map(ExposureContext, baselines, self.fragility, self.channel))
        return tuple(map(contexts.__getitem__, self.codes))


@dataclass(frozen=True)
class LinkCodes:
    """What every scenario on a linked portfolio reads, derived once; no
    scenario changes it.

    ``columns``, ``weights`` and ``contexts`` are the checked instrument
    columns (ids, geo ids and sectors with their codes), weights and context
    columns (``contexts.codes`` are the context codes). ``pairs`` are the
    (context, sector) pairs that occur, as sorted keys ``context_code *
    len(columns.sectors) + sector_code``; ``pair_codes`` and ``channel_codes``
    index ``pairs`` and the first-appearance channel tags per row. ``geo_ead``
    is the EAD summed per geo code in row order. All are tuples or read-only
    columns (``model._read_only``), these four typed ones: a view of bytes.
    """

    columns: InstrumentColumns
    weights: tuple[float, ...]
    contexts: ContextColumns
    pairs: Sequence[int]
    pair_codes: Sequence[int]
    channels: tuple[str, ...]
    channel_codes: Sequence[int]
    geo_ead: Sequence[float]

    def __reduce__(self) -> tuple:
        return _reduced(self, map(vars(self).__getitem__, self.__dataclass_fields__))

    @cached_property
    def hhi_geo_ead(self) -> float:
        """Every report's HHI of ``geo_ead``; ``stress run`` takes it before any scenario."""
        return hhi(self.geo_ead)


@dataclass(frozen=True)
class LinkedPortfolio:
    """A weight-normalized portfolio with resolved geo context per row; see ``model._Rows``."""

    portfolio: Portfolio
    contexts: tuple[ExposureContext, ...] = _Rows(ContextColumns)  # type: ignore[assignment]
    weight_source: str  # "provided" or "derived_from_value"

    @cached_property
    def codes(self) -> LinkCodes:
        """The rows' integer codes, taken from the columns on first use.

        Taking them checks, in order, what no scenario can change: hazard
        types, alignment, weights, each instrument's fields (by column, and
        row by row only to name a fault), each context's fragility, and a
        row with nonzero pd0, lgd0 and ead (without one, every EL is 0); a
        failure caches nothing. Only the number columns that ``load_portfolio``
        checked (``model._CHECKED``) are not checked again. Every sequence held
        is a tuple or a read-only column (``model._read_only``), copied only if
        it was made writable, so no later write reaches a scenario.
        ``dataclasses.replace`` builds a new object, so the codes never outlive
        the fields.
        """
        columns, weights = vars(self.portfolio)["instruments"], self.portfolio.weights
        contexts = vars(self)["contexts"]
        # A hand-built context may lack a hazard type; a float column, as linked, has no gap.
        hazards = contexts.hazards
        for baseline in _per_context(hazards) if type(hazards) not in (array, memoryview) else ():
            if None in baseline:
                missing = HAZARD_TYPES[baseline.index(None)].value
                raise DomainError("an exposure context needs " + (
                    f"all four baseline hazards, got none for {missing}"
                    if set(baseline) != {None} else "at least one baseline hazard, got none"))
        if len(contexts.codes) != len(columns.id):
            raise Misalignment("contexts do not match portfolio ids/order")
        if weights is None:
            raise InvalidWeights("a linked portfolio needs weights; link_exposures derives them")
        _check_weights(weights, len(columns.id))
        if not all(_CHECKED.get(id(column)) is column for column in columns[5:]):
            # In a row, pd0 and lgd0 are named first. No column is empty: the weights sum to 1.
            _check_columns(pd0=columns.pd0, lgd0=columns.lgd0, adaptation=columns.adaptation,
                           ead=columns.ead, value=columns.value)
        _check_columns(fragility=contexts.fragility)
        frozen = InstrumentColumns(*map(tuple, columns[:5]), *map(_read_only, columns[5:]))
        columns = columns if all(map(is_, frozen, columns)) else frozen  # as loaded: no copy
        contexts = ContextColumns(_read_only(hazards), _read_only(contexts.fragility),
                                  tuple(contexts.channel), tuple(contexts.codes))
        channel_index, context_channels = _codes(contexts.channel)
        n_sectors = len(columns.sectors)
        pair_keys = [c * n_sectors + s for c, s in zip(contexts.codes, columns.sector_codes)]
        # Sorted, so the kernel holds each context's pair terms together, in context order.
        # Distinct in first-appearance order, which is nearly sorted: a cheap sort.
        pairs = sorted(dict.fromkeys(pair_keys))
        pair_index = dict(zip(pairs, range(len(pairs))))
        geo_ead = [0.0] * len(columns.geo_ids)
        for geo_code, ead in zip(columns.geo_codes, columns.ead):
            geo_ead[geo_code] += ead
        if not any(map(all, zip(columns.pd0, columns.lgd0, columns.ead))):
            raise AllZero("HHI needs at least one strictly positive entry")
        return LinkCodes(
            columns=columns,
            weights=tuple(weights),
            contexts=contexts,
            pairs=_read_only(pairs, "q"),
            pair_codes=_read_only(map(pair_index.__getitem__, pair_keys), "q"),
            channels=tuple(c.value for c in channel_index),
            channel_codes=_read_only([context_channels[code] for code in contexts.codes], "q"),
            geo_ead=_read_only(geo_ead),
        )


def _chunks(source: IO[bytes], filename: str, header: Sequence[str]) -> Iterator[tuple]:
    """The data rows of a CSV stream after its header, ``_CHUNK_ROWS`` records at
    a time, as (line numbers, columns) without blank lines; a row's number is the
    physical line it starts on. A leading UTF-8 byte order mark is dropped. A chunk
    of plain lines (no quote, NUL or bare CR, each with ``len(header)`` fields) is
    split on ",", after CRLF line ends become LF; from the first other chunk to the
    end, a ``csv.reader`` reads record by record, each numbered by its line count
    before the record, plus one. A wrong-width row, non-UTF-8 bytes and a
    ``csv.Error`` are raised after the rows before them are yielded, so a fault in
    those is named first. The caller's stream stays open: the text layer is
    detached at the end.
    """
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    reader, width, offset = csv.reader(text), len(header), 0
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
        offset, limit, lines, error = reader.line_num, csv.field_size_limit(), [], None
        while error is None:
            try:
                lines.extend(islice(text, _CHUNK_ROWS))
            except UnicodeDecodeError as exc:
                error = exc  # raised after the lines read before it
            joined = "".join(lines)
            # The text layer ends a line at every CR, so a chunk whose CRs all sit in
            # CRLF ends is plain once they become LF; a chunk with no CR pays one scan.
            if ('"' in joined or "\0" in joined
                    or "\r" in joined and "\r" in (joined := joined.replace("\r\n", "\n"))
                    or set(map(str.count, lines, repeat(","))) != {width - 1}  # or no line
                    or max(map(len, lines)) > limit):
                break
            # The lines and their text are freed before the split: a lower peak.
            count, lines, joined = len(lines), [], joined.replace("\n", ",")
            cells, joined = joined.split(","), None
            yield range(offset + 1, offset + 1 + count), [
                cells[k:count * width:width] for k in range(width)]
            offset, cells = offset + count, None
        reader = csv.reader(chain(lines, text if error is None else _raising([error])))
        del lines, joined
        linenos, rows, error, lineno = [], [], None, offset + 1
        try:
            for row in reader:
                if len(row) == width:
                    linenos.append(lineno)
                    rows.append(row)
                    if len(rows) == _CHUNK_ROWS:
                        yield linenos, list(zip(*rows))
                        linenos, rows = [], []
                elif row and row != [""]:  # not a blank line, which is skipped
                    error = MalformedRow(filename, lineno, f"expected {width} fields, got {len(row)}")
                    break
                lineno = offset + reader.line_num + 1
        except (UnicodeDecodeError, csv.Error) as exc:
            error = exc  # raised after the rows read before it
        if rows:
            yield linenos, list(zip(*rows))
        if error is not None:
            try:
                raise error
            finally:
                error = None  # the traceback holds this frame: no cycle through it
    except UnicodeDecodeError as exc:
        # The text layer decodes ahead of the reader in blocks, so the
        # failing line is not known here; name the file.
        raise SchemaMismatch(f"{filename}: not UTF-8: {exc.reason}") from None
    except csv.Error as exc:
        # An over-long field, or a NUL byte before Python 3.11.
        raise MalformedRow(filename, offset + reader.line_num, str(exc)) from None
    finally:
        text.detach()


def _raising(errors: list) -> Iterator[str]:
    """No lines, then the error in ``errors``, which the traceback's frame does not hold."""
    yield from ()
    raise errors.pop()


# The characters of numbers joined by ",". A string that float() reads
# and that holds only these is "." decimal or exponent notation: float() also
# reads underscores, surrounding whitespace, non-ASCII digits, nan and inf.
_PLAIN_NUMBERS = b"+-.0123456789eE,"


def _float(token: str, filename: str, lineno: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(filename, lineno, f"{column}: not a number: {token!r}") from None
    if not isfinite(value):
        raise MalformedRow(filename, lineno, f"{column}: not a finite number: {token!r}")
    if _plain_floats([token]) is None:
        raise MalformedRow(filename, lineno, f"{column}: not a number: {token!r}")
    return value


def _plain_floats(cells: Sequence[str]) -> Optional[list[float]]:
    """``cells`` as floats, checked as one string, or None if a cell is not
    a plain finite number or their sum overflows."""
    try:
        numbers = list(map(float, cells))
    except ValueError:
        return None
    text = ",".join(cells)  # float() read every cell, so none holds a ","
    if isfinite(sum(numbers)) and text.isascii() and not text.encode().translate(
            None, _PLAIN_NUMBERS):
        return numbers
    return None


def _portfolio_numbers(cells: Sequence[str], filename: str, lineno: int) -> list[float]:
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
    are checked a column at a time, and the ids over their column; the
    rows are looked at only to name what breaks a check. The number columns
    come out read-only (``model._read_only``), and ``LinkedPortfolio.codes``
    trusts them; the rest are tuples.
    """
    ids, geo_index, sector_index, geo_codes, sector_codes = [], {}, {}, [], []
    numbers = [array("d") for _ in PORTFOLIO_HEADER[3:]]
    bounds, in_domain = [DOMAINS[name] for name in PORTFOLIO_HEADER[3:]], True
    for linenos, cells in _chunks(source, filename, PORTFOLIO_HEADER):
        ids.extend(cells[0])
        geo_codes += _codes(cells[1], geo_index)[1]
        sector_codes += _codes(cells[2], sector_index)[1]
        converted = [_plain_floats(column) for column in cells[3:]]
        if None in converted:  # name the bad cell; if none is, a column sum overflowed
            converted = list(map(list, zip(*(_portfolio_numbers(row, filename, lineno)
                                             for lineno, row in zip(linenos, zip(*cells[3:]))))))
        for column, part, bound in zip(numbers, converted, bounds):
            column.fromlist(part)  # faster per value than extend
            in_domain = in_domain and _in_domain(part, bound)  # a list: no value is boxed
        del cells, converted  # freed before the next chunk is read: a lower peak
    geo_codes = tuple(geo_codes)  # each list is freed before the next is copied: a lower peak
    sector_codes = tuple(sector_codes)
    columns = InstrumentColumns(
        tuple(ids), tuple(geo_index), geo_codes, tuple(sector_index), sector_codes, *numbers
    )
    del numbers  # the columns alone hold the arrays, so each is freed once copied below
    ids = columns.id  # the id list is freed before the check: a lower peak
    if not (ids and all(ids) and len(set(ids)) == len(ids) and in_domain):
        violations = validate_portfolio(Portfolio(instruments=columns))
        if violations:  # else a column sum only overflowed
            raise InvariantViolation(f"{filename}: " + "; ".join(map(str, violations)))
    for name in DOMAINS:  # one array copied and freed at a time: a lower peak
        column = _read_only(getattr(columns, name))
        columns, _CHECKED[id(column)] = columns._replace(**{name: column}), column
    return Portfolio(instruments=columns)


def join_portfolio(head: Portfolio, tail: list) -> Optional[Portfolio]:
    """The portfolio ``load_portfolio`` makes of a file whose rows are those it made ``head``
    of, then those it made ``tail``'s columns of (each number column as its bytes, each code
    column indexing ``tail``'s distinct values); None if an id is in both. Each of ``tail``'s
    columns is dropped once joined, and no joined column has a temporary copy: freed parts
    then leave room for the next, where they would otherwise stay as holes in the heap."""
    columns = vars(head)["instruments"]
    if not set(columns.id).isdisjoint(tail[0]):
        return None
    joined, tail[0] = [columns.id + tail[0]], None
    for k in (1, 3):  # the geo ids, then the sectors: the distinct values, then the codes
        index = dict(zip(columns[k], range(len(columns[k]))))
        recoded = _codes(tail[k], index)[1].__getitem__  # the tail's new values, in its order
        joined += [tuple(index), tuple(chain(columns[k + 1], map(recoded, tail[k + 1])))]
        tail[k + 1] = None
    for k, column in enumerate(columns[5:], 5):
        joined.append(memoryview(column.obj + tail[k]).cast("d"))
        tail[k] = None
    _CHECKED.update(zip(map(id, joined[5:]), joined[5:]))  # each part's numbers were checked
    return Portfolio(instruments=InstrumentColumns(*joined))


def dump_portfolio(portfolio: Portfolio) -> bytes:
    """Serialize a portfolio back to its CSV schema (round-trip partner),
    from its columns: no ``Instrument`` is built."""
    columns = vars(portfolio)["instruments"]
    geo_ids, sectors, out = columns.geo_ids, columns.sectors, io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(PORTFOLIO_HEADER)
    writer.writerows(zip(
        columns.id, [geo_ids[code] for code in columns.geo_codes],
        [sectors[code] for code in columns.sector_codes],
        *(map(repr, getattr(columns, name)) for name in PORTFOLIO_HEADER[3:]),
    ))
    return out.getvalue().encode("utf-8")


def _add(table: dict, pairs: Iterable[tuple], count: int) -> bool:
    """Add ``count`` (key, value) pairs, all keys new, or leave ``table`` and return False."""
    chunk = dict(pairs)
    if len(chunk) != count or not table.keys().isdisjoint(chunk.keys()):
        return False
    table.update(chunk)
    return True


def load_hazard_table(source: IO[bytes], filename: str = "hazards.csv") -> HazardField:
    """Load baseline hazard intensities with unique (geo_id, hazard) keys into their geo
    units' slots (``model.HazardColumns``): no key is built. An unfilled slot holds NaN."""
    index, values, filled, width = {}, array("d"), 0, len(HAZARD_TYPES)
    places = {hazard.value: k for k, hazard in enumerate(HAZARD_TYPES)}  # a token's slot in four
    for linenos, (geo_ids, tokens, cells) in _chunks(source, filename, HAZARDS_HEADER):
        known = len(values) // width  # the geo units before this chunk: only theirs are filled
        codes, kinds = _codes(geo_ids, index)[1], list(map(places.get, tokens))
        values.fromlist([nan] * (width * len(index) - len(values)))
        slots = [] if None in kinds else list(map(add, map(mul, codes, repeat(width)), kinds))
        intensities = _plain_floats(cells)
        if (len(slots) < len(codes) or intensities is None or min(intensities) < 0.0
                or len(set(slots)) < len(slots) or min(codes) < known
                and not all(map(isnan, map(values.__getitem__, slots)))):
            for lineno, geo_id, code, token, cell in zip(linenos, geo_ids, codes, tokens, cells):
                if token not in places:
                    raise UnknownHazardToken(f"{filename}:{lineno}: unknown hazard {token!r}")
                intensity = _float(cell, filename, lineno, "intensity")
                if intensity < 0.0:
                    raise NegativeIntensity(f"{filename}:{lineno}: intensity {intensity} < 0")
                if not isnan(values[code * width + places[token]]):
                    raise DuplicateKey(f"{filename}:{lineno}: duplicate ({geo_id}, {token})")
                values[code * width + places[token]] = intensity
        else:  # each slot new and unfilled
            any(map(values.__setitem__, slots, intensities))  # values[slot] = intensity, in C
        filled += len(codes)
        del geo_ids, tokens, cells, codes, slots  # freed before the next chunk: a lower peak
    if filled < len(values):  # a gap
        values = [None if isnan(value) else value for value in values]
    return HazardField(entries=HazardColumns(index, values))


def load_fragility(source: IO[bytes], filename: str = "fragility.csv") -> FragilityTable:
    """Load per-geo fragility values, all >= 0, unique geo_id keys."""
    entries: dict[str, float] = {}
    for linenos, (geo_ids, cells) in _chunks(source, filename, FRAGILITY_HEADER):
        frags = _plain_floats(cells)
        if frags is None or min(frags) < 0.0 or not _add(entries, zip(geo_ids, frags), len(geo_ids)):
            for lineno, geo_id, cell in zip(linenos, geo_ids, cells):
                value = _float(cell, filename, lineno, "fragility")
                if value < 0.0:
                    raise NegativeFragility(f"{filename}:{lineno}: fragility {value} < 0")
                if geo_id in entries:
                    raise DuplicateKey(f"{filename}:{lineno}: duplicate geo_id {geo_id!r}")
                entries[geo_id] = value
        del geo_ids, cells
    return FragilityTable(entries=entries)


def load_geounits(source: IO[bytes], filename: str = "geounits.csv") -> list[GeoUnit]:
    """Load the geo registry with channel tags."""
    units: dict[str, GeoUnit] = {}
    for linenos, (geo_ids, names, tokens) in _chunks(source, filename, GEOUNITS_HEADER):
        channels = list(map(CHANNEL_BY_TOKEN.get, tokens))
        if not all(geo_ids) or None in channels or not _add(
                units, zip(geo_ids, map(GeoUnit, geo_ids, names, channels)), len(geo_ids)):
            for lineno, geo_id, name, channel_token in zip(linenos, geo_ids, names, tokens):
                if not geo_id:
                    raise MalformedRow(filename, lineno, "geo_id must be nonempty")
                if geo_id in units:
                    raise DuplicateKey(f"{filename}:{lineno}: duplicate geo_id {geo_id!r}")
                channel = CHANNEL_BY_TOKEN.get(channel_token)
                if channel is None:
                    raise MalformedRow(filename, lineno, f"unknown channel {channel_token!r}")
                units[geo_id] = GeoUnit(id=geo_id, name=name, channel=channel)
        del geo_ids, names, tokens
    return list(units.values())


_Column = Sequence[Optional[float]]  # a float per distinct geo id (or context), None at a gap


def _resolved(found: list) -> _Column:
    return found if None in found else array("d", found)  # unboxed, unless it holds a gap


def _per_context(hazards: _Column) -> Iterator[tuple]:
    """A hazard column four values at a time: each context's in ``HAZARD_TYPES`` order."""
    return zip(*[iter(hazards)] * len(HAZARD_TYPES))


def link_hazards(geo_ids: Sequence[str], hazards: HazardField) -> _Column:
    """The first link step: each distinct geo id's four baselines in ``HAZARD_TYPES`` order,
    one geo id after another, as ``ContextColumns.hazards`` holds them: one lookup per geo id,
    and without a gap a read-only column of the slices' bytes."""
    index, values = vars(hazards)["entries"]
    width, found = len(HAZARD_TYPES), list(map(index.get, geo_ids))
    parts = [values[at * width:(at + 1) * width] if at is not None else (None,) * width
             for at in found]
    if None in found or type(values) is list:  # a gap
        return _resolved(list(chain.from_iterable(parts)))
    return memoryview(b"".join(parts)).cast("d")


def link_fragility(geo_ids: Sequence[str], fragility: FragilityTable) -> _Column:
    """The second link step: each distinct geo id's fragility."""
    return _resolved(list(map(fragility.entries.get, geo_ids)))


def link_channels(geo_ids: Sequence[str],
                  registry: Sequence[GeoUnit]) -> tuple[Optional[Channel], ...]:
    """The third link step: each distinct geo id's registry channel, None if unregistered."""
    by_geo = {unit.id: unit.channel for unit in registry}
    return tuple(map(by_geo.get, geo_ids))


def link_resolved(portfolio: Portfolio, hazards: _Column, fragility: _Column,
                  channels: Sequence[Optional[Channel]]) -> LinkedPortfolio:
    """The last link step: normalize the weights, name the first gap, link the columns as made."""
    weight_source = "provided" if portfolio.weights is not None else "derived_from_value"
    normalized = normalize_weights(portfolio)
    columns = vars(normalized)["instruments"]
    # A step's column with a gap is a list; one without is a float column, which holds no None.
    if None in channels or list in map(type, (fragility, hazards)):
        for geo_id, tag, value, baseline in zip(columns.geo_ids, channels, fragility,
                                                _per_context(hazards)):
            if tag is None:
                row = columns.geo_codes.index(columns.geo_ids.index(geo_id))
                raise UnresolvedGeo(columns.id[row], geo_id)
            if None in baseline:
                raise MissingHazard(geo_id, HAZARD_TYPES[baseline.index(None)].value)
            if value is None:
                raise MissingFragility(geo_id)
    return LinkedPortfolio(
        portfolio=normalized,
        contexts=ContextColumns(hazards, fragility, channels, columns.geo_codes),
        weight_source=weight_source,
    )


def link_exposures(portfolio: Portfolio, hazards: HazardField, fragility: FragilityTable,
                   registry: Sequence[GeoUnit]) -> LinkedPortfolio:
    """Resolve each instrument's geo context and normalize weights: the link steps in turn.

    Order-preserving and deterministic; never alters any instrument numeric field. Every
    referenced geo unit needs all four hazard types and a fragility entry. Only the last
    step raises, so ``stress run`` drops each table after its step, with the same errors."""
    geo_ids = vars(portfolio)["instruments"].geo_ids
    return link_resolved(portfolio, link_hazards(geo_ids, hazards),
                         link_fragility(geo_ids, fragility), link_channels(geo_ids, registry))
