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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TypeVar

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


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: ScenarioKind
    hazard_multipliers: dict[HazardType, float] = field(
        default_factory=lambda: {h: 1.0 for h in HAZARD_TYPES}
    )
    transition: TransitionMap = field(default_factory=TransitionMap)
    financing_tightening: float = 0.0
    lam: float = 0.0
    repricing: Repricing = field(default_factory=Repricing)
    lgd_gamma: float = 0.0
    betas: BetaParams = field(default_factory=BetaParams)


# A document's keys are Scenario's fields, with ``lam`` spelled "lambda".
_TOP_FIELDS = {"lambda" if f.name == "lam" else f.name for f in fields(Scenario)}

_Params = TypeVar("_Params", Repricing, BetaParams)


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


def _object(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ScenarioParseError(f"{name}: expected an object, got {value!r}")
    return dict(value)


def _params(doc: dict, name: str, cls: type[_Params]) -> _Params:
    """The object ``doc[name]`` as ``cls``; every key must name a field."""
    raw = _object(doc, name)
    names = {f.name for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise UnknownField(f"{name}.{key}")
    return cls(**{key: _num(value, f"{name}.{key}") for key, value in raw.items()})


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
        if name not in _TOP_FIELDS:
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

    multipliers = {h: 1.0 for h in HAZARD_TYPES}
    for token, value in _object(doc, "hazard_multipliers").items():
        try:
            hazard = HAZARD_BY_TOKEN[token]
        except KeyError:
            raise UnknownHazardToken(token) from None
        multipliers[hazard] = _num(value, f"hazard_multipliers.{token}")

    raw_transition = _object(doc, "transition")
    default = _num(raw_transition.pop("default", 0.0), "transition.default")
    by_sector = {
        sector: _num(value, f"transition.{sector}")
        for sector, value in raw_transition.items()
    }

    repricing = _params(doc, "repricing", Repricing)
    betas = _params(doc, "betas", BetaParams)

    return Scenario(
        id=doc["id"],
        kind=kind,
        hazard_multipliers=multipliers,
        transition=TransitionMap(default=default, by_sector=by_sector),
        financing_tightening=_num(
            doc.get("financing_tightening", 0.0), "financing_tightening"
        ),
        lam=_num(doc.get("lambda", 0.0), "lambda"),
        repricing=repricing,
        lgd_gamma=_num(doc.get("lgd_gamma", 0.0), "lgd_gamma"),
        betas=betas,
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario as canonical JSON.

    Every field is explicit and keys are sorted, so structurally equal
    scenarios serialize byte-identically and
    parse_scenario(serialize_scenario(s)) == s.
    """
    doc = {
        "id": scenario.id,
        "kind": scenario.kind.value,
        "hazard_multipliers": {
            h.value: scenario.hazard_multipliers.get(h, 1.0) for h in HAZARD_TYPES
        },
        "transition": {
            "default": scenario.transition.default,
            **dict(sorted(scenario.transition.by_sector.items())),
        },
        "financing_tightening": scenario.financing_tightening,
        "lambda": scenario.lam,
        "repricing": asdict(scenario.repricing),
        "lgd_gamma": scenario.lgd_gamma,
        "betas": asdict(scenario.betas),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2)


def _field_max(a: _Params, b: _Params) -> _Params:
    """The parameters whose every field is the max of ``a``'s and ``b``'s."""
    return type(a)(**{f.name: max(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)})


def compose_compound(
    physical: Scenario, transition: Scenario, financing_tightening: float
) -> Scenario:
    """Merge a physical shock with a transition scenario into a compound.

    Every numeric field is the elementwise max of the two inputs, so the
    compound never double-counts an overlapping narrative and dominates
    each input. Callers who want additive stacking should pre-sum their
    inputs before composing.
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
    if financing_tightening < 0.0:
        raise NegativeParameter("financing_tightening", financing_tightening)

    multipliers = {
        h: max(
            physical.hazard_multipliers.get(h, 1.0),
            transition.hazard_multipliers.get(h, 1.0),
        )
        for h in HAZARD_TYPES
    }
    sectors = set(physical.transition.by_sector) | set(transition.transition.by_sector)
    merged_transition = TransitionMap(
        default=max(physical.transition.default, transition.transition.default),
        by_sector={
            s: max(physical.transition.for_sector(s), transition.transition.for_sector(s))
            for s in sectors
        },
    )
    return Scenario(
        id=f"{physical.id}+{transition.id}",
        kind=ScenarioKind.COMPOUND,
        hazard_multipliers=multipliers,
        transition=merged_transition,
        financing_tightening=financing_tightening,
        lam=max(physical.lam, transition.lam),
        repricing=_field_max(physical.repricing, transition.repricing),
        lgd_gamma=max(physical.lgd_gamma, transition.lgd_gamma),
        betas=_field_max(physical.betas, transition.betas),
    )


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
