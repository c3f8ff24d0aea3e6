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

from math import inf, isfinite
from typing import Sequence

from .analytics import _check_alignment
from .errors import DomainError, LengthMismatch
from .ingest import LinkedPortfolio
from .model import StressRow, _check_weights, _require_nonnegative
from .pipeline import _stress_metric, run_scenario
from .scenarios import Repricing, Scenario


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

    Summation is deterministic left-to-right over the input order; a
    total of finite inputs that overflows raises ``NonFiniteSum``.
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
    return _stress_metric(weighted_dv, total_el, lam)


def portfolio_valuation(
    linked: LinkedPortfolio, scenario: Scenario, credit_rows: Sequence[StressRow]
) -> tuple[list[StressRow], float]:
    """Evaluate the valuation layer and aggregate the stress metric.

    Rows come from ``run_scenario``; the metric takes its expected losses
    from ``credit_rows``, which must align one-to-one with portfolio
    order.
    """
    _check_alignment(credit_rows, linked)
    result, _ = run_scenario(linked, scenario)
    dvs = [row.dv_s for row in result.rows]
    els = [row.el_s for row in credit_rows]
    return list(result.rows), climate_var(linked.codes.weights, dvs, els, scenario.lam)
