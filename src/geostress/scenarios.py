"""Scenario definitions: JSON parsing, canonical serialization, built-ins,
and compound composition.

A Scenario bundles every shock parameter needed by the credit and
valuation engines: hazard multipliers applied to baseline intensities,
per-sector transition intensities with an explicit default, a
financing-tightening factor, repricing sensitivities, the LGD hazard
sensitivity, the PD betas, and the lambda that converts expected loss
into a valuation-equivalent burden.

Built-in scenario magnitudes are illustrative defaults chosen for
plausibility and ordering (disorderly > orderly transition intensity,
physical multipliers > 1); they are not calibrated to any dataset.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

from .errors import (
    KindMismatch,
    NegativeParameter,
    ScenarioParseError,
    UnknownField,
    UnknownHazardToken,
    UnknownKind,
)
from .model import HAZARD_BY_TOKEN, HAZARD_TYPES, BetaParams, HazardType


class ScenarioKind(enum.Enum):
    ORDERLY_TRANSITION = "orderly_transition"
    DISORDERLY_TRANSITION = "disorderly_transition"
    PHYSICAL_SHOCK = "physical_shock"
    COMPOUND = "compound"


_KIND_BY_TOKEN: dict[str, ScenarioKind] = {k.value: k for k in ScenarioKind}


@dataclass(frozen=True)
class Repricing:
    """Linear repricing sensitivities to hazard, transition, and financing."""

    delta_hazard: float = 0.0
    delta_transition: float = 0.0
    delta_financing: float = 0.0


@dataclass(frozen=True)
class TransitionMap:
    """Per-sector transition intensities with an explicit default.

    The default applies to any sector not listed, so an unanticipated
    sector tag never silently receives zero transition risk.
    """

    default: float = 0.0
    by_sector: dict[str, float] = field(default_factory=dict)

    def for_sector(self, sector: str) -> float:
        return self.by_sector.get(sector, self.default)


def _per_hazard(multipliers: dict[HazardType, float]) -> dict[HazardType, float]:
    """A multiplier for each hazard type, in HAZARD_TYPES order: 1.0 (no shock) if unset."""
    return {h: multipliers.get(h, 1.0) for h in HAZARD_TYPES}


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: ScenarioKind
    hazard_multipliers: dict[HazardType, float] = field(
        default_factory=lambda: _per_hazard({})
    )
    transition: TransitionMap = field(default_factory=TransitionMap)
    financing_tightening: float = 0.0
    lam: float = 0.0
    repricing: Repricing = field(default_factory=Repricing)
    lgd_gamma: float = 0.0
    betas: BetaParams = field(default_factory=BetaParams)


# A document's keys are Scenario's fields, with ``lam`` spelled "lambda".
_KEYS = {f.name: "lambda" if f.name == "lam" else f.name for f in fields(Scenario)}
# The shock fields, all but ``id`` and ``kind``: the objects, then the numbers, each
# in field order. parse_scenario reads them so and raises the first fault it meets.
_SHOCKS = sorted(fields(Scenario)[2:], key=lambda f: isinstance(f.default, float))


def _num(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"{path}: expected a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:
        raise ScenarioParseError(f"{path}: number out of float range") from None
    if not math.isfinite(num):
        raise ScenarioParseError(f"{path}: expected a finite number, got {num!r}")
    if num < 0.0:
        raise NegativeParameter(path, num)
    return num


def _reject_constant(name: str) -> float:
    raise ScenarioParseError(f"non-finite number {name} is not allowed")


def _read(doc: dict, key: str, identity: object) -> object:
    """``doc[key]`` read as a number, a hazard map, a TransitionMap or a parameter
    dataclass, as ``identity`` is one; ``identity`` if ``key`` is absent."""
    if key not in doc:
        return identity
    value = doc[key]
    if isinstance(identity, float):
        return _num(value, key)
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{key}: expected an object, got {value!r}")
    if isinstance(identity, dict):
        multipliers = dict(identity)
        for token, number in value.items():
            try:
                hazard = HAZARD_BY_TOKEN[token]
            except KeyError:
                raise UnknownHazardToken(token) from None
            multipliers[hazard] = _num(number, f"{key}.{token}")
        return multipliers
    if isinstance(identity, TransitionMap):
        by_sector = dict(value)
        default = _num(by_sector.pop("default", identity.default), f"{key}.default")
        return TransitionMap(default, {s: _num(v, f"{key}.{s}") for s, v in by_sector.items()})
    names = {f.name for f in fields(identity)}
    for name in value:
        if name not in names:
            raise UnknownField(f"{key}.{name}")
    return replace(identity, **{name: _num(v, f"{key}.{name}") for name, v in value.items()})


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document, filling identity defaults.

    Absent fields default to a no-op shock: multiplier 1.0 per hazard,
    transition 0.0, financing 0.0, lambda 0.0, repricing deltas 0.0,
    lgd_gamma 0.0, betas 0.0. Every number must be finite and every
    nested field an object; anything else raises a StressError.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # integer too long, nesting too deep
        raise ScenarioParseError(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")

    for name in doc:
        if name not in _KEYS.values():
            raise UnknownField(name)
    for required in ("id", "kind"):
        if required not in doc:
            raise ScenarioParseError(f"missing required field {required!r}")
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise ScenarioParseError("id must be a nonempty string")
    try:
        doc["id"].encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which JSON allows
        raise ScenarioParseError(f"id cannot be encoded as UTF-8: {doc['id']!r}") from None
    try:
        kind = _KIND_BY_TOKEN[doc["kind"]]
    except (KeyError, TypeError):  # TypeError: an unhashable token
        raise UnknownKind(repr(doc["kind"])) from None

    identity = Scenario(doc["id"], kind)
    shocks = {f.name: _read(doc, _KEYS[f.name], getattr(identity, f.name)) for f in _SHOCKS}
    return Scenario(identity.id, kind, **shocks)


def _document(value: object) -> object:
    """A field's value as it is written in a scenario document."""
    if isinstance(value, ScenarioKind):
        return value.value
    if isinstance(value, dict):
        return {h.value: m for h, m in _per_hazard(value).items()}
    if isinstance(value, TransitionMap):
        if "default" in value.by_sector:
            raise ScenarioParseError("transition: sector 'default' would read back as the default")
        return {"default": value.default, **value.by_sector}
    if is_dataclass(value):
        return asdict(value)
    return value


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as canonical JSON.

    Every field is explicit and keys are sorted, so structurally equal
    scenarios serialize byte-identically and
    parse_scenario(serialize_scenario(s)) == s. A transition sector named
    "default" raises ScenarioParseError: no document can express it.
    """
    doc = {key: _document(getattr(scenario, name)) for name, key in _KEYS.items()}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2)


def _max(a: object, b: object) -> object:
    """The elementwise max of two values of one shock field."""
    if isinstance(a, TransitionMap):
        sectors = sorted(a.by_sector.keys() | b.by_sector.keys())
        by_sector = {s: max(a.for_sector(s), b.for_sector(s)) for s in sectors}
        return TransitionMap(max(a.default, b.default), by_sector)
    if isinstance(a, dict):
        a, b = _per_hazard(a), _per_hazard(b)
        return {h: max(a[h], b[h]) for h in a}
    if is_dataclass(a):
        return type(a)(**{f.name: _max(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)})
    return max(a, b)


def compose_compound(
    physical: Scenario, transition: Scenario, financing_tightening: float
) -> Scenario:
    """Merge a physical shock with a transition scenario into a compound.

    Every numeric field is the elementwise max of the two inputs, so the
    compound never double-counts an overlapping narrative and dominates
    each input. Callers who want additive stacking should pre-sum their
    inputs before composing. ``financing_tightening`` is checked as a
    document's number is.
    """
    if physical.kind is not ScenarioKind.PHYSICAL_SHOCK:
        raise KindMismatch(f"first argument must be physical_shock, got {physical.kind.value}")
    if transition.kind not in (
        ScenarioKind.ORDERLY_TRANSITION,
        ScenarioKind.DISORDERLY_TRANSITION,
    ):
        raise KindMismatch(
            f"second argument must be a transition scenario, got {transition.kind.value}"
        )
    shocks = {f.name: _max(getattr(physical, f.name), getattr(transition, f.name)) for f in _SHOCKS}
    shocks["financing_tightening"] = _num(financing_tightening, "financing_tightening")
    return Scenario(f"{physical.id}+{transition.id}", ScenarioKind.COMPOUND, **shocks)


_DEFAULT_BETAS = BetaParams(hazard=0.35, transition=0.45, fragility=0.25, adaptation=0.20)


def builtin_scenarios() -> list[Scenario]:
    """The four built-in stress narratives, in canonical order.

    Order: orderly transition, disorderly transition, physical shock,
    compound. Magnitudes are illustrative, not calibrated.
    """
    orderly = Scenario(
        id="orderly",
        kind=ScenarioKind.ORDERLY_TRANSITION,
        transition=TransitionMap(
            default=0.20,
            by_sector={"agriculture": 0.25, "real_estate": 0.20, "tourism": 0.15},
        ),
        lam=0.50,
        repricing=Repricing(delta_transition=0.05),
        betas=_DEFAULT_BETAS,
    )
    disorderly = Scenario(
        id="disorderly",
        kind=ScenarioKind.DISORDERLY_TRANSITION,
        transition=TransitionMap(
            default=0.50,
            by_sector={"agriculture": 0.60, "real_estate": 0.55, "tourism": 0.45},
        ),
        lam=0.50,
        repricing=Repricing(delta_transition=0.15, delta_financing=0.05),
        betas=_DEFAULT_BETAS,
    )
    physical = Scenario(
        id="physical",
        kind=ScenarioKind.PHYSICAL_SHOCK,
        hazard_multipliers={
            HazardType.WILDFIRE: 3.0,
            HazardType.DROUGHT: 2.0,
            HazardType.FLOOD: 2.5,
            HazardType.HEAT: 1.5,
        },
        lam=0.50,
        repricing=Repricing(delta_hazard=0.08),
        lgd_gamma=0.25,
        betas=_DEFAULT_BETAS,
    )
    compound = replace(
        compose_compound(physical, disorderly, financing_tightening=0.30),
        id="compound",
    )
    return [orderly, disorderly, physical, compound]
