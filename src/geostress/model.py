"""Core domain types: geo units, hazards, instruments, portfolios, results.

All types are frozen dataclasses, named tuples or enums, and safe to
share read-only across workers. Numeric conventions:

* probabilities and fractions live in [0, 1]
* hazard intensities, fragility, and adaptation are dimensionless, >= 0
* currency is a plain float in abstract units
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from itertools import repeat
from math import inf
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import DomainError, InvalidWeights, NonFiniteSum, ZeroTotalValue

WEIGHT_SUM_TOL = 1e-9


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
class HazardField:
    """Baseline hazard intensities keyed by (geo_id, hazard type).

    Lookup of an absent pair raises KeyError: a missing hazard is a data
    error, never an implicit zero.
    """

    entries: dict[tuple[str, HazardType], float]

    def intensity(self, geo_id: str, hazard: HazardType) -> float:
        return self.entries[(geo_id, hazard)]

    def __len__(self) -> int:
        return len(self.entries)


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


@dataclass(frozen=True)
class Portfolio:
    """Ordered collection of instruments with optional explicit weights."""

    instruments: tuple[Instrument, ...]
    weights: Optional[tuple[float, ...]] = None


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


class _Rows:
    """``StressResult.rows``: set as a tuple of rows or as ``RowColumns``,
    read as a tuple of rows, which the first read builds from the columns
    and keeps in their place. Analytics and the report writers read the
    columns (``row_columns``), so a CLI run builds no ``StressRow``: one
    tuple per instrument that the cyclic garbage collector would walk.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Optional[StressResult], owner: type) -> tuple[StressRow, ...]:
        if instance is None:
            # No class attribute, so the dataclass field has no default.
            raise AttributeError(self.name)
        rows = instance.__dict__[self.name]
        if type(rows) is RowColumns:
            rows = tuple(map(tuple.__new__, repeat(StressRow), zip(*rows)))
            instance.__dict__[self.name] = rows
        return rows

    def __set__(self, instance: StressResult, value: Union[tuple[StressRow, ...], RowColumns]) -> None:
        instance.__dict__[self.name] = value


@dataclass(frozen=True)
class StressResult:
    """Scenario outcome: per-instrument rows plus portfolio aggregates.

    ``rows`` may be given as ``RowColumns``; it still reads as a tuple of
    ``StressRow``, built on first read.
    """

    scenario_id: str
    rows: tuple[StressRow, ...] = _Rows()  # type: ignore[assignment]
    total_el: float
    climate_var: float


def row_columns(result: StressResult) -> RowColumns:
    """``result``'s rows as columns, without building rows that are not
    built yet."""
    rows = vars(result)["rows"]
    return rows if type(rows) is RowColumns else _transpose(rows)


def _transpose(rows: Sequence[StressRow]) -> RowColumns:
    """Rows as columns; no rows give five empty columns."""
    return RowColumns(*zip(*rows)) if rows else RowColumns((), (), (), (), ())


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


def validate_portfolio(portfolio: Portfolio) -> list[Violation]:
    """Check every Instrument and Portfolio invariant.

    Violations are returned as data, not raised; an empty list means the
    portfolio is valid.
    """
    violations: list[Violation] = []
    if len(portfolio.instruments) < 1:
        violations.append(Violation("<portfolio>", "instruments", "N >= 1"))

    seen: set[str] = set()
    for inst in portfolio.instruments:
        if not inst.id:
            violations.append(Violation(inst.id, "id", "id nonempty"))
        if inst.id in seen:
            violations.append(Violation(inst.id, "id", "id unique within portfolio"))
        seen.add(inst.id)
        if not 0.0 <= inst.pd0 <= 1.0:
            violations.append(Violation(inst.id, "pd0", "pd0 ∈ [0,1]"))
        if not 0.0 <= inst.lgd0 <= 1.0:
            violations.append(Violation(inst.id, "lgd0", "lgd0 ∈ [0,1]"))
        if not 0.0 <= inst.ead < inf:
            violations.append(Violation(inst.id, "ead", "ead >= 0 and finite"))
        if not 0.0 <= inst.value < inf:
            violations.append(Violation(inst.id, "value", "value >= 0 and finite"))
        if not 0.0 <= inst.adaptation < inf:
            violations.append(
                Violation(inst.id, "adaptation", "adaptation >= 0 and finite")
            )

    if portfolio.weights is not None:
        if len(portfolio.weights) != len(portfolio.instruments):
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


def _require_nonnegative(**kwargs: float) -> None:
    """Raise ``DomainError`` naming the first value that is negative, NaN
    or infinite."""
    for name, value in kwargs.items():
        if not 0.0 <= value < inf:
            raise DomainError(f"{name} must be >= 0 and finite, got {value}")


def _check_fields(inst: Instrument) -> None:
    """Raise the error that names an instrument's out-of-domain field."""
    for name, value in (("pd0", inst.pd0), ("lgd0", inst.lgd0)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0,1], got {value}")
    _require_nonnegative(adaptation=inst.adaptation, ead=inst.ead, value=inst.value)


def _check_weights(weights: Sequence[float], n: int) -> None:
    if len(weights) != n:
        raise InvalidWeights(f"expected {n} weights, got {len(weights)}")
    if any(w < 0.0 for w in weights):
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
    n = len(portfolio.instruments)
    if portfolio.weights is not None:
        _check_weights(portfolio.weights, n)
        return portfolio
    total = ordered_sum(inst.value for inst in portfolio.instruments)
    if total <= 0.0:
        raise ZeroTotalValue(
            "cannot derive value weights: total instrument value is 0"
        )
    if not total < inf:
        raise NonFiniteSum(f"cannot derive value weights: total instrument value is {total!r}")
    weights = tuple(inst.value / total for inst in portfolio.instruments)
    return replace(portfolio, weights=weights)
