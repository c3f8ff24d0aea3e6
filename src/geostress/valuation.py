"""Valuation transmission: mark-to-market repricing and the scenario
stress metric.

Repricing is linear in the hazard, transition, and financing shocks with
a cap at total value; losses are negative by market convention. The
scenario stress metric is the weighted repricing sum plus lambda times
the expected-loss sum, so a negative value signals a net valuation loss
after the credit add-on. Lambda's unit interpretation (capital vs.
valuation burden) is a calibration choice, not fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from typing import Sequence

from .credit import CreditRow, _require_nonnegative, effective_hazard
from .errors import DomainError, LengthMismatch, Misalignment
from .ingest import LinkedPortfolio
from .model import _check_weights
from .scenarios import Repricing, Scenario


@dataclass(frozen=True)
class ValuationRow:
    """Per-instrument repricing outcome; losses are negative."""

    id: str
    dv_s: float


def repricing_delta(
    value: float,
    hazard: float,
    transition: float,
    financing: float,
    repricing: Repricing,
) -> float:
    """Mark-to-market change: -value * min(1, dH*H + dT*T + dF*F)."""
    _require_nonnegative(
        value=value,
        hazard=hazard,
        transition=transition,
        financing=financing,
        delta_hazard=repricing.delta_hazard,
        delta_transition=repricing.delta_transition,
        delta_financing=repricing.delta_financing,
    )
    loss_fraction = min(
        1.0,
        repricing.delta_hazard * hazard
        + repricing.delta_transition * transition
        + repricing.delta_financing * financing,
    )
    return -value * loss_fraction


def climate_var(
    weights: Sequence[float],
    dvs: Sequence[float],
    els: Sequence[float],
    lam: float,
) -> float:
    """Scenario stress metric: sum(w_i * dv_i) + lambda * sum(el_i).

    Summation is deterministic left-to-right over the input order.
    """
    if not len(weights) == len(dvs) == len(els):
        raise LengthMismatch(
            f"weights/dvs/els lengths differ: {len(weights)}/{len(dvs)}/{len(els)}"
        )
    _check_weights(weights, len(weights))
    _require_nonnegative(**{"lambda": lam})
    weighted_dv = 0.0
    for w, dv in zip(weights, dvs):
        if not isfinite(dv):
            raise DomainError(f"dv must be finite, got {dv}")
        weighted_dv += w * dv
    total_el = 0.0
    for el in els:
        if not 0.0 <= el < inf:
            raise DomainError(f"expected loss must be >= 0 and finite, got {el}")
        total_el += el
    return weighted_dv + lam * total_el


def portfolio_valuation(
    linked: LinkedPortfolio, scenario: Scenario, credit_rows: Sequence[CreditRow]
) -> tuple[list[ValuationRow], float]:
    """Evaluate the valuation layer and aggregate the stress metric.

    Credit rows must align one-to-one with portfolio order; hazard and
    transition shocks are resolved exactly as in the credit layer.
    """
    instruments = linked.portfolio.instruments
    if len(credit_rows) != len(instruments) or any(
        row.id != inst.id for row, inst in zip(credit_rows, instruments)
    ):
        raise Misalignment("credit rows do not match portfolio ids/order")

    rows: list[ValuationRow] = []
    for inst, context in zip(instruments, linked.contexts):
        hazard = effective_hazard(context, scenario)
        transition = scenario.transition.for_sector(inst.sector)
        dv = repricing_delta(
            inst.value, hazard, transition, scenario.financing_tightening, scenario.repricing
        )
        rows.append(ValuationRow(id=inst.id, dv_s=dv))

    assert linked.portfolio.weights is not None  # linking normalizes weights
    metric = climate_var(
        linked.portfolio.weights,
        [row.dv_s for row in rows],
        [row.el_s for row in credit_rows],
        scenario.lam,
    )
    return rows, metric
