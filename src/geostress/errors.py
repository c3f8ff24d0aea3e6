"""Exception hierarchy for the stress engine.

Every error raised by the library derives from StressError so callers
(notably the CLI) can map validation failures to a single exit path.
"""

from __future__ import annotations


class StressError(Exception):
    """Base class for all engine errors."""


class DomainError(StressError):
    """An argument violates a numeric domain rule (sign or bound)."""


class NonFiniteSum(DomainError):
    """A sum of finite inputs overflowed: it is not a finite float."""


class ZeroTotalValue(StressError):
    """Weights cannot be derived: every instrument value is zero."""


class InvalidWeights(StressError):
    """Provided portfolio weights are negative or do not sum to 1."""


# --- ingest -----------------------------------------------------------------

class MalformedRow(StressError):
    """A CSV row could not be parsed."""

    def __init__(self, filename: str, line: int, detail: str):
        super().__init__(f"{filename}:{line}: malformed row: {detail}")
        self.filename = filename
        self.line = line
        self.detail = detail


class SchemaMismatch(StressError):
    """A CSV file does not match the documented schema: header or encoding."""


class InvariantViolation(StressError):
    """Loaded data violates a typed invariant."""


class DuplicateKey(StressError):
    """Two rows define the same key."""


class UnknownHazardToken(StressError):
    """A hazard token outside the closed set {wildfire, drought, flood, heat}."""


class NegativeIntensity(StressError):
    """A hazard intensity below zero."""


class NegativeFragility(StressError):
    """A fragility value below zero."""


class UnresolvedGeo(StressError):
    """An instrument references a geo unit absent from the registry."""

    def __init__(self, instrument_id: str, geo_id: str):
        super().__init__(
            f"instrument {instrument_id!r}: geo unit {geo_id!r} not in registry"
        )
        self.instrument_id = instrument_id
        self.geo_id = geo_id


class MissingHazard(StressError):
    """A geo unit lacks a baseline entry for one of the four hazard types."""

    def __init__(self, geo_id: str, hazard: str):
        super().__init__(f"geo unit {geo_id!r}: no baseline intensity for {hazard}")
        self.geo_id = geo_id
        self.hazard = hazard


class MissingFragility(StressError):
    """A geo unit lacks a fragility entry."""

    def __init__(self, geo_id: str):
        super().__init__(f"geo unit {geo_id!r}: no fragility entry")
        self.geo_id = geo_id


# --- scenario DSL -----------------------------------------------------------

class ScenarioParseError(StressError):
    """The scenario document is not valid JSON or a field has the wrong type."""


class UnknownField(StressError):
    """The scenario document carries a field the schema does not define."""


class UnknownKind(StressError):
    """A scenario kind outside the four defined kinds."""


class NegativeParameter(StressError):
    """A scenario numeric parameter below zero."""

    def __init__(self, path: str, value: float):
        super().__init__(f"{path}: must be >= 0, got {value}")
        self.path = path
        self.value = value


class KindMismatch(StressError):
    """Scenario composition received inputs of the wrong kinds."""


# --- engines and analytics --------------------------------------------------

class LengthMismatch(StressError):
    """Parallel input lists differ in length."""


class Misalignment(StressError):
    """Row lists do not match the portfolio's instrument ids and order."""


class AllZero(StressError):
    """Concentration shares cannot be formed from an all-zero basis."""


class ZeroDenominator(StressError):
    """A comparison ratio has a zero denominator."""


class UnencodableText(StressError):
    """Report text cannot be encoded, such as an id holding a lone surrogate."""
