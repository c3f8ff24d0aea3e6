"""Core domain types: geo units, hazards, instruments, portfolios, results.

All types are frozen dataclasses, named tuples or enums, and safe to
share read-only across workers. Numeric conventions:

* probabilities and fractions live in [0, 1]
* hazard intensities, fragility, and adaptation are dimensionless, >= 0
* currency is a plain float in abstract units
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, fields
from itertools import count, filterfalse, product, repeat
from math import inf, isfinite
from operator import attrgetter, lt, truediv
from typing import Iterable, NamedTuple, Optional, Sequence
from weakref import WeakValueDictionary

from .errors import AllZero, DomainError, InvalidWeights, NonFiniteSum, ZeroTotalValue

WEIGHT_SUM_TOL = 1e-9

# Each instrument number field's domain, declared once: from 0 up to the bound, and finite.
# Its names are the fields that ``validate_portfolio`` and ``load_portfolio`` check, and
# ``validate_portfolio`` names a row's faults in their order.
DOMAINS = {"pd0": 1.0, "lgd0": 1.0, "ead": inf, "value": inf, "adaptation": inf}
# The bound of each name that ``_require_in_domain`` and ``_check_columns`` check: the
# instrument fields', then the scenario PD's and LGD's. Any other name's is inf.
_BOUNDS = {**DOMAINS, "pd": 1.0, "lgd": 1.0}


class HazardType(enum.Enum):
    """The closed set of physical hazard types."""

    # Members are singletons: hash by identity, in C, not by name in Python.
    __hash__ = object.__hash__

    WILDFIRE = "wildfire"
    DROUGHT = "drought"
    FLOOD = "flood"
    HEAT = "heat"


HAZARD_TYPES: tuple[HazardType, ...] = tuple(HazardType)
HAZARD_BY_TOKEN: dict[str, HazardType] = {h.value: h for h in HazardType}


class Channel(enum.Enum):
    """Regional transmission channel tag for a geo unit."""

    __hash__ = object.__hash__  # as HazardType's

    WUI = "wui"
    CENTRAL_VALLEY = "central_valley"
    COASTAL = "coastal"
    URBAN_HEAT = "urban_heat"
    OTHER = "other"


CHANNEL_BY_TOKEN: dict[str, Channel] = {c.value: c for c in Channel}


@dataclass(frozen=True)
class GeoUnit:
    """One opaque geographic unit (ZIP- or county-level key)."""

    id: str
    name: str
    channel: Channel


@dataclass(frozen=True)
class FragilityTable:
    """Local economic fragility per geo unit; missing keys are errors."""

    entries: dict[str, float]

    def fragility(self, geo_id: str) -> float:
        return self.entries[geo_id]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Instrument:
    """One located, sector-tagged financial exposure."""

    id: str
    geo_id: str
    sector: str
    ead: float
    pd0: float
    lgd0: float
    value: float
    adaptation: float


@dataclass(frozen=True)
class BetaParams:
    """Sensitivities of the default-probability response, all >= 0.

    The attenuation sign on adaptation is applied inside the PD formula,
    not encoded in the parameter.
    """

    hazard: float = 0.0
    transition: float = 0.0
    fragility: float = 0.0
    adaptation: float = 0.0


class StressRow(NamedTuple):
    """Per-instrument outcome under one scenario.

    A named tuple because a read of ``StressResult.rows`` builds one per
    instrument: it is immutable, and several times cheaper to build than a
    dataclass.
    """

    id: str
    pd_s: float
    lgd_s: float
    el_s: float
    dv_s: float


class RowColumns(NamedTuple):
    """Per-instrument outcomes under one scenario, one sequence per
    ``StressRow`` field, in portfolio order."""

    id: Sequence[str]
    pd_s: Sequence[float]
    lgd_s: Sequence[float]
    el_s: Sequence[float]
    dv_s: Sequence[float]

    @classmethod
    def of(cls, rows: Iterable[StressRow]) -> RowColumns:
        """Rows as columns; no rows give five empty columns."""
        return cls(*(list(zip(*rows)) or [()] * 5))

    def rows(self) -> tuple[StressRow, ...]:
        return tuple(map(tuple.__new__, repeat(StressRow), zip(*self)))


class InstrumentColumns(NamedTuple):
    """A portfolio's instruments in row order, one sequence per field; the
    geo ids and sectors as codes, each row's index into the distinct values
    in first-appearance order. ``load_portfolio`` makes each a tuple or a read-only
    column (``_read_only``); ``LinkedPortfolio.codes`` copies any other."""

    id: tuple[str, ...]
    geo_ids: tuple[str, ...]
    geo_codes: Sequence[int]
    sectors: tuple[str, ...]
    sector_codes: Sequence[int]
    ead: Sequence[float]
    pd0: Sequence[float]
    lgd0: Sequence[float]
    value: Sequence[float]
    adaptation: Sequence[float]

    @classmethod
    def of(cls, instruments: Iterable[Instrument]) -> InstrumentColumns:
        """Instruments as columns of tuples: a list changed later changes none."""
        read = attrgetter(*(field.name for field in fields(Instrument)))
        ids, geo_ids, sectors, *numbers = list(zip(*map(read, instruments))) or [()] * 8
        geo_index, geo_codes = _codes(geo_ids)
        sector_index, sector_codes = _codes(sectors)
        return cls(ids, tuple(geo_index), geo_codes, tuple(sector_index), sector_codes, *numbers)

    def rows(self) -> tuple[Instrument, ...]:
        geo_ids, sectors = self.geo_ids, self.sectors  # indexed in a comprehension: faster
        return tuple(map(
            Instrument, self.id, [geo_ids[code] for code in self.geo_codes],
            [sectors[code] for code in self.sector_codes],
            self.ead, self.pd0, self.lgd0, self.value, self.adaptation,
        ))

    def __reduce__(self) -> tuple:
        return _reduced(self, self)


def _reduced(obj: object, fields: Iterable) -> tuple:
    """``obj``, made of ``fields``, to pickle: a read-only column as the bytes it views, with
    no copy, and its format. The copy views them again, and is checked as no load checked it."""
    fields = [(c.obj, c.format) if _frozen(c) else (c, None) for c in fields]
    return _unpickled, (type(obj), *fields)


def _unpickled(cls: type, *fields: tuple) -> object:
    return cls(*(memoryview(c).cast(f) if f else c for c, f in fields))


def _read_only(values: Sequence, typecode: str = "d") -> Sequence:
    """``values`` as a column of ``typecode`` numbers that no write can change: a tuple or a
    view of bytes as it is, else copied into a view of bytes."""
    if type(values) is tuple or _frozen(values) and values.format == typecode:
        return values
    if type(values) is not array or values.typecode != typecode:
        values = array(typecode, values)
    return memoryview(values.tobytes()).cast(typecode)


def _frozen(column: object) -> bool:
    """Whether ``column`` is a view of a whole bytes object as numbers, as ``_read_only`` makes."""
    return (type(column) is memoryview and type(column.obj) is bytes
            and column.nbytes == len(column.obj))


# By identity, the read-only number columns that ``load_portfolio`` checked: the one trust
# record. An entry only spares a check that would pass again, and goes with its column, so
# no caller sees another's. A pickled copy is a new object, and is checked again.
_CHECKED: WeakValueDictionary = WeakValueDictionary()


class _Rows:
    """A field held as columns of type ``columns`` (rows given are converted by
    ``columns.of``, which checks nothing) and read as its rows, which the first
    read builds and keeps beside the columns. The engine reads the columns
    (``row_columns``, ``LinkedPortfolio.codes``, ``link_hazards``), so a CLI run
    builds no ``Instrument``, ``StressRow``, ``ExposureContext`` or hazard key:
    objects that the cyclic garbage collector walks.
    """

    def __init__(self, columns: type) -> None:
        self.columns = columns

    def __set_name__(self, owner: type, name: str) -> None:
        self.name, self.built = name, f"_{name}_rows"

    def __get__(self, instance: object, owner: type) -> tuple:
        if instance is None:
            # No class attribute, so the dataclass field has no default.
            raise AttributeError(self.name)
        state = vars(instance)
        if self.built not in state:
            state[self.built] = state[self.name].rows()
        return state[self.built]

    def __set__(self, instance: object, rows: Iterable) -> None:
        vars(instance)[self.name] = rows if type(rows) is self.columns else self.columns.of(rows)


class HazardColumns(NamedTuple):
    """A hazard table by geo unit: ``index`` maps each geo id to its position (first
    appearance order), and ``values`` holds each one's four baselines in ``HAZARD_TYPES``
    order: a float column as loaded without a gap, else a list with None at each gap."""

    index: dict[str, int]
    values: Sequence[Optional[float]]

    @classmethod
    def of(cls, entries: dict[tuple[str, HazardType], float]) -> HazardColumns:
        index = _codes([geo_id for geo_id, _ in entries])[0]
        return cls(index, list(map(entries.get, product(index, HAZARD_TYPES))))

    def rows(self) -> dict[tuple[str, HazardType], float]:
        pairs = product(self.index, HAZARD_TYPES)
        return {key: value for key, value in zip(pairs, self.values) if value is not None}


@dataclass(frozen=True)
class HazardField:
    """Baseline hazard intensities keyed by (geo_id, hazard type), held by geo unit as
    ``HazardColumns`` (see ``_Rows``). Lookup of an absent pair raises KeyError: a
    missing hazard is a data error, never an implicit zero.
    """

    entries: dict[tuple[str, HazardType], float] = _Rows(HazardColumns)  # type: ignore[assignment]

    def intensity(self, geo_id: str, hazard: HazardType) -> float:
        return self.entries[(geo_id, hazard)]

    def __len__(self) -> int:
        values = vars(self)["entries"].values
        return len(values) - values.count(None)


@dataclass(frozen=True)
class Portfolio:
    """Ordered collection of instruments with optional explicit weights.
    ``instruments`` is held as ``InstrumentColumns``; see ``_Rows``."""

    instruments: tuple[Instrument, ...] = _Rows(InstrumentColumns)  # type: ignore[assignment]
    weights: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class StressResult:
    """Scenario outcome: per-instrument rows plus portfolio aggregates.

    ``rows`` is held as ``RowColumns``; it reads as a tuple of
    ``StressRow``, built on first read (see ``_Rows``).
    """

    scenario_id: str
    rows: tuple[StressRow, ...] = _Rows(RowColumns)  # type: ignore[assignment]
    total_el: float
    climate_var: float


def row_columns(result: StressResult) -> RowColumns:
    """``result``'s rows as the columns it holds: no row is built."""
    return vars(result)["rows"]


def _codes(keys: Sequence[object], index: Optional[dict] = None) -> tuple[dict, tuple[int, ...]]:
    """First-appearance codes for ``keys``, after those ``index`` holds:
    the key-to-code map and the code of each key in turn."""
    index = {} if index is None else index
    # Only the chunk's distinct keys are walked: a set difference with ``index`` walks it all.
    index.update(zip(filterfalse(index.__contains__, dict.fromkeys(keys)), count(len(index))))
    return index, tuple(map(index.__getitem__, keys))


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validate_portfolio."""

    instrument_id: str
    field: str
    rule: str

    def __str__(self) -> str:
        return f"instrument {self.instrument_id!r}: {self.field}: {self.rule}"


def ordered_sum(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right in floating point.

    The builtin ``sum`` compensates rounding error from Python 3.12 on,
    so its low bits depend on the Python version; this sum's do not.
    """
    total = 0.0
    for x in values:
        total += x
    return total


def hhi(basis: Sequence[float]) -> float:
    """Herfindahl-Hirschman index of a nonnegative share basis.

    Shares are basis entries normalized by their sum; the result lies in
    [1/n, 1] with 1/n at equal shares and 1 at full concentration.
    """
    total = ordered_sum(basis)
    if total <= 0.0:
        raise AllZero("HHI needs at least one strictly positive entry")
    if not isfinite(total):
        raise NonFiniteSum(f"HHI basis sums to {total!r}")
    return ordered_sum((x / total) ** 2 for x in basis)


def validate_portfolio(portfolio: Portfolio) -> list[Violation]:
    """Check every Instrument and Portfolio invariant.

    Violations are returned as data, not raised; an empty list means the
    portfolio is valid.
    """
    violations: list[Violation] = []
    columns = vars(portfolio)["instruments"]
    if len(columns.id) < 1:
        violations.append(Violation("<portfolio>", "instruments", "N >= 1"))

    seen: set[str] = set()
    for inst_id, *numbers in zip(columns.id, *(getattr(columns, name) for name in DOMAINS)):
        if not inst_id:
            violations.append(Violation(inst_id, "id", "id nonempty"))
        if inst_id in seen:
            violations.append(Violation(inst_id, "id", "id unique within portfolio"))
        seen.add(inst_id)
        for (name, bound), number in zip(DOMAINS.items(), numbers):
            if not (0.0 <= number <= bound and number < inf):
                rule = "∈ [0,1]" if bound == 1.0 else ">= 0 and finite"
                violations.append(Violation(inst_id, name, f"{name} {rule}"))

    if portfolio.weights is not None:
        if len(portfolio.weights) != len(columns.id):
            violations.append(
                Violation("<portfolio>", "weights", "one weight per instrument")
            )
        else:
            if any(w < 0.0 for w in portfolio.weights):
                violations.append(Violation("<portfolio>", "weights", "each w >= 0"))
            if not abs(ordered_sum(portfolio.weights) - 1.0) <= WEIGHT_SUM_TOL:
                violations.append(
                    Violation("<portfolio>", "weights", "Σw = 1 within 1e-9")
                )
    return violations


def _require_in_domain(**values: float) -> None:
    """Raise ``DomainError`` naming the first of ``values`` out of its domain: from 0 up to
    its ``_BOUNDS`` entry (an instrument field, ``pd`` or ``lgd``), else at least 0, and
    finite."""
    for name, value in values.items():
        bound = _BOUNDS.get(name, inf)
        if not (0.0 <= value <= bound and value < inf):
            raise DomainError(f"{name} must lie in [0,1], got {value}" if bound == 1.0
                              else f"{name} must be >= 0 and finite, got {value}")


def _in_domain(column: Sequence[float], bound: float = inf) -> bool:
    """Whether each value of a nonempty ``column`` lies in [0, bound] and is finite, tested
    a column at a time: a sum catches a NaN, which min() may pass over. A sum that only
    overflows fails the test, though no value breaks the rule."""
    return isfinite(sum(column)) and min(column) >= 0.0 and (bound == inf or max(column) <= bound)


def _check_columns(**columns: Sequence[float]) -> None:
    """Raise the ``_require_in_domain`` error for the first row's first value out of its
    domain, if a nonempty column fails the column test (``_in_domain``) for the bound that
    ``_require_in_domain`` reads (``_BOUNDS``, else inf)."""
    if not all(_in_domain(column, _BOUNDS.get(name, inf)) for name, column in columns.items()):
        for row in zip(*columns.values()):
            _require_in_domain(**dict(zip(columns, row)))


def _check_weights(weights: Sequence[float], n: int) -> None:
    if len(weights) != n:
        raise InvalidWeights(f"expected {n} weights, got {len(weights)}")
    if any(map(lt, weights, repeat(0.0))):  # w < 0.0 for each w, in C
        raise InvalidWeights("weights must be >= 0")
    total = ordered_sum(weights)
    if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
        raise InvalidWeights(f"weights sum to {total!r}, expected 1")


def normalize_weights(portfolio: Portfolio) -> Portfolio:
    """Return the portfolio with market-value weights filled in.

    When explicit weights are present they are validated and kept
    unchanged, so the operation is idempotent. When absent, each weight
    is value_i / Σ value_j.
    """
    values = vars(portfolio)["instruments"].value
    if portfolio.weights is not None:
        _check_weights(portfolio.weights, len(values))
        return portfolio
    total = ordered_sum(values)
    if total <= 0.0:
        raise ZeroTotalValue(
            "cannot derive value weights: total instrument value is 0"
        )
    if not total < inf:
        raise NonFiniteSum(f"cannot derive value weights: total instrument value is {total!r}")
    weights = tuple(map(truediv, values, repeat(total)))  # value / total for each value
    return Portfolio(vars(portfolio)["instruments"], weights)
