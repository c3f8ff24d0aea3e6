"""Credit transmission: scenario PD, scenario LGD, and expected loss.

Scenario PD multiplies the baseline by an exponential response to the
hazard, transition, and fragility shocks, attenuated by adaptation, and
clamps at 1. Scenario LGD rises linearly in hazard intensity with a
clamp at 1. Expected loss is the PD x LGD x EAD triple product.

The per-instrument scalar hazard intensity is the maximum across the
four hazard types of (scenario multiplier x baseline intensity): the
binding hazard drives the response, so correlated hazards are not
double-counted. An additive combination can be emulated by folding the
sum into a single hazard's baseline if desired.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .errors import DomainError, NonFiniteSum
from .ingest import ExposureContext, LinkedPortfolio
from .model import BetaParams, StressRow, _require_nonnegative
from .scenarios import Repricing, Scenario


def scenario_pd(
    pd0: float,
    hazard: float,
    transition: float,
    fragility: float,
    adaptation: float,
    betas: BetaParams,
) -> float:
    """Scenario default probability.

    min(1, pd0 * exp(b_H*hazard + b_T*transition + b_U*fragility
                     - b_A*adaptation)).
    """
    if not 0.0 <= pd0 <= 1.0:
        raise DomainError(f"pd0 must lie in [0,1], got {pd0}")
    _require_nonnegative(
        hazard=hazard,
        transition=transition,
        fragility=fragility,
        adaptation=adaptation,
        beta_hazard=betas.hazard,
        beta_transition=betas.transition,
        beta_fragility=betas.fragility,
        beta_adaptation=betas.adaptation,
    )
    exponent = (
        betas.hazard * hazard
        + betas.transition * transition
        + betas.fragility * fragility
        - betas.adaptation * adaptation
    )
    try:
        pd = pd0 * math.exp(exponent)
    except OverflowError:
        pd = math.nan
    return pd_after_overflow(pd0, exponent) if math.isnan(pd) else min(1.0, pd)


def pd_after_overflow(pd0: float, exponent: float) -> float:
    """min(1, pd0 * exp(exponent)) where that product is NaN: exp
    overflowed, or a zero baseline met exp(inf).

    The product is formed in log space; a zero baseline stays zero. A NaN
    exponent, whose terms overflowed to +inf and -inf, has no PD.
    """
    if math.isnan(exponent):
        raise NonFiniteSum("PD exponent is nan: its terms overflowed to +inf and -inf")
    if pd0 == 0.0:
        return 0.0
    return math.exp(min(0.0, exponent + math.log(pd0)))


def scenario_lgd(lgd0: float, hazard: float, lgd_gamma: float) -> float:
    """Scenario loss given default: min(1, lgd0 * (1 + gamma * hazard))."""
    if not 0.0 <= lgd0 <= 1.0:
        raise DomainError(f"lgd0 must lie in [0,1], got {lgd0}")
    _require_nonnegative(hazard=hazard, lgd_gamma=lgd_gamma)
    lgd = lgd0 * (1.0 + lgd_gamma * hazard)
    # A NaN product is a zero baseline times an overflowed factor.
    return 0.0 if math.isnan(lgd) else min(1.0, lgd)


def expected_loss(pd: float, lgd: float, ead: float) -> float:
    """Expected loss: pd * lgd * ead."""
    if not 0.0 <= pd <= 1.0:
        raise DomainError(f"pd must lie in [0,1], got {pd}")
    if not 0.0 <= lgd <= 1.0:
        raise DomainError(f"lgd must lie in [0,1], got {lgd}")
    _require_nonnegative(ead=ead)
    return pd * lgd * ead


def effective_hazard(context: ExposureContext, scenario: Scenario) -> float:
    """Binding scaled hazard intensity for one exposure.

    Every scaled value is checked, binding or not, since ``max`` passes
    over a NaN or not depending on the hazards' order: one that is
    negative, NaN or infinite raises ``DomainError``, as does a context
    without hazards.
    """
    multiplier = scenario.hazard_multipliers.get
    scaled = [multiplier(h, 1.0) * baseline for h, baseline in context.baseline_hazards.items()]
    if not scaled:
        raise DomainError("an exposure context needs at least one baseline hazard, got none")
    for value in scaled:
        if not 0.0 <= value < math.inf:
            _require_nonnegative(hazard=value)
    return max(scaled)


def portfolio_credit(
    linked: LinkedPortfolio, scenario: Scenario
) -> tuple[list[StressRow], float]:
    """Evaluate the credit layer for every instrument, in portfolio order.

    These are ``run_scenario``'s rows and total with financing, repricing
    and lambda zeroed: this layer neither reads nor checks them, and each
    row's ``dv_s`` is -0.0.
    """
    from .pipeline import run_scenario  # pipeline imports this module

    credit_only = replace(scenario, financing_tightening=0.0, lam=0.0, repricing=Repricing())
    result, _ = run_scenario(linked, credit_only)
    return list(result.rows), result.total_el
