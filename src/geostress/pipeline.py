"""End-to-end scenario evaluation over a linked portfolio.

``run_scenario`` is the one evaluation path: link once, evaluate many.
For each scenario it computes the binding hazard H once per geo context
and the transition shock T once per sector, into lists indexed by the
linked portfolio's integer codes (``LinkedPortfolio.codes``), then makes
one pass over the instruments that sums into lists indexed the same way.
Each row takes the float operations of ``scenario_pd``, ``scenario_lgd``,
``expected_loss`` and ``repricing_delta`` in their order, so it is
bit-identical to composing them, and every domain check they make runs
once per scenario, geo context, sector or instrument. The layer
functions ``portfolio_credit`` and ``portfolio_valuation`` are
projections of its output.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from .analytics import ExposureReport, hhi, top_contributors
from .credit import _require_nonnegative, effective_hazard, pd_after_overflow
from .errors import DomainError, Misalignment, NonFiniteSum
from .ingest import LinkedPortfolio
from .model import Instrument, StressResult, StressRow, _check_weights
from .scenarios import Scenario


def _check_fields(inst: Instrument) -> None:
    """Raise the error that names an instrument's out-of-domain field."""
    for name, value in (("pd0", inst.pd0), ("lgd0", inst.lgd0)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0,1], got {value}")
    _require_nonnegative(adaptation=inst.adaptation, ead=inst.ead, value=inst.value)


def run_scenario(
    linked: LinkedPortfolio, scenario: Scenario, top_k: int = 10
) -> tuple[StressResult, ExposureReport]:
    """Evaluate credit and valuation for every instrument and build the
    diagnostics, in one pass over the portfolio.

    The linked portfolio is reusable across scenarios: link once,
    evaluate many.
    """
    instruments = linked.portfolio.instruments
    weights = linked.portfolio.weights
    assert weights is not None  # linking normalizes weights
    if len(linked.contexts) != len(instruments):
        raise Misalignment("contexts do not match portfolio ids/order")
    _check_weights(weights, len(instruments))

    betas, repricing = scenario.betas, scenario.repricing
    _require_nonnegative(
        **{f"beta_{name}": value for name, value in asdict(betas).items()},
        lgd_gamma=scenario.lgd_gamma,
        financing=scenario.financing_tightening,
        **asdict(repricing),
        **{"lambda": scenario.lam},
    )
    b_a = betas.adaptation
    d_f = repricing.delta_financing * scenario.financing_tightening

    codes = linked.codes
    # Per distinct geo context: b_H*H, b_U*U, 1 + gamma*H, dH*H, channel code.
    context_terms = []
    for context, channel_code in zip(codes.contexts, codes.context_channels):
        hazard = effective_hazard(context, scenario)
        _require_nonnegative(hazard=hazard, fragility=context.fragility)
        context_terms.append((
            betas.hazard * hazard,
            betas.fragility * context.fragility,
            1.0 + scenario.lgd_gamma * hazard,
            repricing.delta_hazard * hazard,
            channel_code,
        ))
    # Per sector: b_T*T, dT*T.
    sector_terms = []
    for sector in codes.sectors:
        transition = scenario.transition.for_sector(sector)
        _require_nonnegative(transition=transition)
        sector_terms.append(
            (betas.transition * transition, repricing.delta_transition * transition)
        )

    exp, inf = math.exp, math.inf
    new_row = tuple.__new__  # StressRow(...) without its Python-level __new__
    rows = []
    append_row = rows.append
    total_el = 0.0
    weighted_dv = 0.0
    # Sums indexed by code, each added to in row order.
    geo_el = [0.0] * len(codes.geo_ids)
    geo_ead = [0.0] * len(codes.geo_ids)
    sector_el = [0.0] * len(codes.sectors)
    channel_el = [0.0] * len(codes.channels)
    for inst, context_code, geo_code, sector_code, weight in zip(
        instruments, codes.context_codes, codes.geo_codes, codes.sector_codes, weights
    ):
        b_h, b_u, lgd_factor, d_h, channel_code = context_terms[context_code]
        b_t, d_t = sector_terms[sector_code]
        pd0, lgd0, ead, value, adaptation = (
            inst.pd0, inst.lgd0, inst.ead, inst.value, inst.adaptation
        )
        if not (
            0.0 <= pd0 <= 1.0
            and 0.0 <= lgd0 <= 1.0
            and 0.0 <= adaptation < inf
            and 0.0 <= ead < inf
            and 0.0 <= value < inf
        ):
            _check_fields(inst)

        exponent = b_h + b_t + b_u - b_a * adaptation
        try:
            pd_s = pd0 * exp(exponent)
        except OverflowError:
            pd_s = pd_after_overflow(pd0, exponent)
        if not pd_s < 1.0:
            pd_s = 1.0
        lgd_s = lgd0 * lgd_factor
        if not lgd_s < 1.0:
            lgd_s = 1.0
        # The clamps keep pd_s and lgd_s in [0, 1] (a NaN clamps to 1),
        # so 0 <= el_s <= ead.
        el_s = pd_s * lgd_s * ead
        loss_fraction = d_h + d_t + d_f
        if not loss_fraction < 1.0:
            loss_fraction = 1.0
        dv_s = -value * loss_fraction

        append_row(new_row(StressRow, (inst.id, pd_s, lgd_s, el_s, dv_s)))
        total_el += el_s
        weighted_dv += weight * dv_s
        geo_el[geo_code] += el_s
        sector_el[sector_code] += el_s
        channel_el[channel_code] += el_s
        geo_ead[geo_code] += ead

    metric = weighted_dv + scenario.lam * total_el
    # Finite inputs can still overflow a sum. A finite total_el bounds every
    # grouped EL sum, a finite metric needs a finite weighted dV sum, and
    # hhi rejects an EAD basis whose total overflows.
    for name, total in (("total_el", total_el), ("climate_var", metric)):
        if not -math.inf < total < math.inf:
            raise NonFiniteSum(f"{name} is {total!r}: a sum of finite inputs overflowed")

    result = StressResult(
        scenario_id=scenario.id, rows=tuple(rows), total_el=total_el, climate_var=metric
    )
    el_by_geo, el_by_sector, el_by_channel = (
        dict(sorted(zip(names, sums)))
        for names, sums in (
            (codes.geo_ids, geo_el),
            (codes.sectors, sector_el),
            (codes.channels, channel_el),
        )
    )
    report = ExposureReport(
        scenario_id=scenario.id,
        el_by_geo=el_by_geo,
        el_by_hazard_channel=el_by_channel,
        el_by_sector=el_by_sector,
        hhi_geo=hhi(list(el_by_geo.values())),
        hhi_sector=hhi(list(el_by_sector.values())),
        hhi_channel=hhi(list(el_by_channel.values())),
        hhi_geo_ead=hhi(geo_ead),
        top_contributors=tuple(top_contributors(result.rows, top_k)),
        climate_var=metric,
        weight_source=linked.weight_source,
    )
    return result, report
