"""End-to-end scenario evaluation over a linked portfolio.

``run_scenario`` is the one evaluation path: link once, evaluate many.
For each scenario it computes the binding hazard H once per geo context,
the transition shock T once per sector, and the PD shock, LGD factor and
clamped loss fraction once per (context, sector) pair that occurs, indexed
by the linked portfolio's codes (``LinkedPortfolio.codes``). It then makes
one pass over the instruments that emits four result columns and the
totals; ``StressResult.rows`` is built from the columns only if read. Each
row takes the float operations of ``scenario_pd``, ``scenario_lgd``,
``expected_loss`` and ``repricing_delta`` in their order (a pair's sums add
left to right, as a row's would), so it is bit-identical to composing them,
and raises their domain errors. The checks that no scenario can change run
once per linked portfolio, when its codes are built; ``run_scenario``
checks only the scenario's parameters, each sector's transition and the
scaled hazards, so its row loop holds only the equations and the clamps.
The grouped sums, HHIs and top contributors come from ``analytics``, which
builds them the same way for any rows. The layer functions
``portfolio_credit`` and ``portfolio_valuation`` are projections of it.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from itertools import chain, repeat
from operator import mul

from .analytics import ExposureReport, _report
from .credit import pd_after_overflow
from .errors import NonFiniteSum
from .ingest import LinkedPortfolio
from .model import HAZARD_TYPES, RowColumns, StressResult, _require_nonnegative
from .scenarios import Scenario


def _stress_metric(weighted_dv: float, total_el: float, lam: float) -> float:
    """The stress metric ``weighted_dv + lam * total_el``.

    Finite inputs can still overflow a sum; ``NonFiniteSum`` names it. A
    finite ``total_el`` bounds every grouped EL sum.
    """
    metric = weighted_dv + lam * total_el
    for name, total in (("total_el", total_el), ("climate_var", metric)):
        if not -math.inf < total < math.inf:
            raise NonFiniteSum(f"{name} is {total!r}: a sum of finite inputs overflowed")
    return metric


def run_scenario(
    linked: LinkedPortfolio, scenario: Scenario, top_k: int = 10
) -> tuple[StressResult, ExposureReport]:
    """Evaluate credit and valuation for every instrument and build the
    diagnostics, in one pass over the portfolio.

    The linked portfolio is reusable across scenarios: link once,
    evaluate many.
    """
    codes = linked.codes  # checks what does not depend on the scenario
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

    # Per distinct geo context: each scaled hazard, binding or not, checked a column at a
    # time; a column that fails is walked context by context to name the first bad value
    # (a sum that only overflows finds none). Then b_H*H, b_U*U, 1 + gamma*H, dH*H.
    multiplier, contexts = scenario.hazard_multipliers.get, codes.contexts
    scaled = [list(map(mul, repeat(multiplier(h, 1.0)), column))
              for h, column in zip(HAZARD_TYPES, contexts.hazards)]
    if not all(math.isfinite(sum(column)) and min(column) >= 0.0 for column in scaled):
        for value in chain.from_iterable(zip(*scaled)):
            _require_nonnegative(hazard=value)
    context_terms = [(betas.hazard * h, betas.fragility * f, 1.0 + scenario.lgd_gamma * h,
                      repricing.delta_hazard * h)
                     for h, f in zip(map(max, *scaled), contexts.fragility)]
    del scaled
    # Per sector: b_T*T, dT*T.
    sector_terms = []
    for sector in codes.columns.sectors:
        transition = scenario.transition.for_sector(sector)
        _require_nonnegative(transition=transition)
        sector_terms.append(
            (betas.transition * transition, repricing.delta_transition * transition)
        )
    # One entry per (context, sector) pair that occurs, in float lists (not tuples, which
    # the garbage collector tracks), each sum added left to right as a row adds it: PD
    # shock b_H*H + b_T*T + b_U*U, LGD factor, loss fraction dH*H + dT*T + d_f clamped at 1.
    shocks, lgd_factors, loss_fractions = [], [], []
    for context_code, sector_code in map(divmod, codes.pairs, repeat(len(sector_terms))):
        b_h, b_u, lgd_factor, d_h = context_terms[context_code]
        b_t, d_t = sector_terms[sector_code]
        loss_fraction = d_h + d_t + d_f
        shocks.append(b_h + b_t + b_u)
        lgd_factors.append(lgd_factor)
        loss_fractions.append(loss_fraction if loss_fraction < 1.0 else 1.0)
    del context_terms, sector_terms

    exp, nan = math.exp, math.nan
    # Four float columns, not a StressRow per instrument: floats are not
    # tracked by the cyclic garbage collector, tuples are.
    pd_column, lgd_column, el_column, dv_column = [], [], [], []
    add_pd, add_lgd, add_el, add_dv = (
        pd_column.append, lgd_column.append, el_column.append, dv_column.append
    )
    total_el = 0.0
    weighted_dv = 0.0
    columns = codes.columns
    for pd0, lgd0, ead, value, adaptation, pair_code, weight in zip(
        columns.pd0, columns.lgd0, columns.ead, columns.value, columns.adaptation,
        codes.pair_codes, codes.weights,
    ):
        exponent = shocks[pair_code] - b_a * adaptation
        try:
            pd_s = pd0 * exp(exponent)
        except OverflowError:
            pd_s = nan
        if not pd_s < 1.0:
            # A NaN product (exp overflowed, a zero baseline met exp(inf),
            # or the exponent is NaN) goes to pd_after_overflow.
            pd_s = 1.0 if pd_s >= 1.0 else pd_after_overflow(pd0, exponent)
        lgd_s = lgd0 * lgd_factors[pair_code]
        if not lgd_s < 1.0:
            # A NaN product is a zero baseline times an overflowed factor.
            lgd_s = 1.0 if lgd_s >= 1.0 else 0.0
        # The clamps keep pd_s and lgd_s in [0, 1], so 0 <= el_s <= ead.
        el_s = pd_s * lgd_s * ead
        dv_s = -value * loss_fractions[pair_code]

        add_pd(pd_s)
        add_lgd(lgd_s)
        add_el(el_s)
        add_dv(dv_s)
        total_el += el_s
        weighted_dv += weight * dv_s

    del shocks, lgd_factors, loss_fractions
    metric = _stress_metric(weighted_dv, total_el, scenario.lam)
    columns = RowColumns(columns.id, pd_column, lgd_column, el_column, dv_column)
    result = StressResult(
        scenario_id=scenario.id, rows=columns, total_el=total_el, climate_var=metric
    )
    return result, _report(linked, scenario.id, columns, metric, top_k, total_el)
