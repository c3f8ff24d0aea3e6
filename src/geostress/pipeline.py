"""End-to-end scenario evaluation over a linked portfolio.

``run_scenario`` is the one evaluation path: link once, evaluate many.
For each scenario it computes the binding hazard H once per geo context,
the transition shock T once per sector, and the PD shock, LGD factor and
clamped loss fraction once per (context, sector) pair that occurs, indexed
by the linked portfolio's codes (``LinkedPortfolio.codes``). It then makes
one pass over the instruments, a ``report.ROWS_PER_BLOCK`` block at a time,
that emits four result columns and the totals. The result gathers the
blocks into its columns, and builds rows only if read; or a caller's
``rows`` takes each block once it is made (``stress run`` writes it to the
report), and only the losses are kept, for the diagnostics. Each
row takes the float operations of ``scenario_pd``, ``scenario_lgd``,
``expected_loss`` and ``repricing_delta`` in their order (a pair's sums add
left to right, as a row's would), so it is bit-identical to composing them,
and raises their domain errors. The checks no scenario can change run once
per linked portfolio, on one path, when its codes are built; ``run_scenario``
checks only the scenario's parameters, each sector's transition and the
scaled hazards, so its row loop holds only the equations and the clamps.
The grouped sums, HHIs and top contributors come from ``analytics``, which
builds them the same way for any rows. The layer functions
``portfolio_credit`` and ``portfolio_valuation`` are projections of it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict
from itertools import cycle, islice, repeat, starmap
from operator import mul
from typing import Callable, Optional

from . import report
from .analytics import ExposureReport, _report
from .credit import pd_after_overflow
from .errors import NonFiniteSum
from .ingest import LinkedPortfolio, _per_context
from .model import HAZARD_TYPES, RowColumns, StressResult, _in_domain, _require_in_domain
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
    linked: LinkedPortfolio, scenario: Scenario, top_k: int = 10,
    rows: Optional[Callable[..., object]] = None,
) -> tuple[StressResult, ExposureReport]:
    """Evaluate credit and valuation for every instrument and build the
    diagnostics, in one pass over the portfolio, a block of rows at a time.

    The result holds the rows. Given ``rows``, it holds none: each block
    goes to ``rows(ids, pd_s, lgd_s, el_s, dv_s)`` once it is evaluated.
    The linked portfolio is reusable across scenarios: link once,
    evaluate many.
    """
    codes = linked.codes  # checks what does not depend on the scenario
    betas, repricing = scenario.betas, scenario.repricing
    _require_in_domain(
        **{f"beta_{name}": value for name, value in asdict(betas).items()},
        lgd_gamma=scenario.lgd_gamma,
        financing=scenario.financing_tightening,
        **asdict(repricing),
        **{"lambda": scenario.lam},
    )
    b_a = betas.adaptation
    d_f = repricing.delta_financing * scenario.financing_tightening

    # Per distinct geo context: each scaled hazard, binding or not, checked in one column
    # test; a column that fails is walked context by context to name the first bad value
    # (a sum that only overflows finds none). Then the binding hazard H, as a float column.
    multipliers = [scenario.hazard_multipliers.get(h, 1.0) for h in HAZARD_TYPES]
    contexts = codes.contexts
    scaled = list(map(mul, cycle(multipliers), contexts.hazards))
    if not _in_domain(scaled):
        for value in scaled:
            _require_in_domain(hazard=value)
    binding = array("d", starmap(max, _per_context(scaled)))
    del scaled
    # Per sector: b_T*T, dT*T.
    sector_terms = []
    for sector in codes.columns.sectors:
        transition = scenario.transition.for_sector(sector)
        _require_in_domain(transition=transition)
        sector_terms.append(
            (betas.transition * transition, repricing.delta_transition * transition)
        )
    # One entry per (context, sector) pair that occurs, in float lists (not tuples, which the
    # garbage collector tracks), each sum added left to right as a row adds it: PD shock
    # b_H*H + b_T*T + b_U*U, LGD factor 1 + gamma*H, loss fraction dH*H + dT*T + d_f, at most 1.
    b_h, b_u, d_h = betas.hazard, betas.fragility, repricing.delta_hazard
    gamma, fragility = scenario.lgd_gamma, contexts.fragility
    shocks, lgd_factors, loss_fractions = [], [], []
    for context_code, sector_code in map(divmod, codes.pairs, repeat(len(sector_terms))):
        hazard, (b_t, d_t) = binding[context_code], sector_terms[sector_code]
        loss_fraction = d_h * hazard + d_t + d_f
        shocks.append(b_h * hazard + b_t + b_u * fragility[context_code])
        lgd_factors.append(1.0 + gamma * hazard)
        loss_fractions.append(loss_fraction if loss_fraction < 1.0 else 1.0)
    del binding, sector_terms

    exp, nan = math.exp, math.nan
    # Four float columns, not a StressRow per instrument: floats are not tracked by the cyclic
    # garbage collector, tuples are. Without ``rows`` they are the result's; with it, each
    # block's are handed over and dropped, and only the losses are kept, unboxed, for the report.
    columns, step = codes.columns, report.ROWS_PER_BLOCK
    kept = RowColumns(columns.id, [], [], [] if rows is None else array("d"), [])
    total_el = weighted_dv = 0.0
    values = zip(columns.pd0, columns.lgd0, columns.ead, columns.value, columns.adaptation,
                 codes.pair_codes, codes.weights)
    for start in range(0, len(kept.id), step):
        block = kept[1:] if rows is None else ([], [], [], [])
        add_pd, add_lgd, add_el, add_dv = (column.append for column in block)
        for pd0, lgd0, ead, value, adaptation, pair_code, weight in islice(values, step):
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
        if rows is not None:
            rows(kept.id[start:start + step], *block)
            kept.el_s.extend(block[2])

    del shocks, lgd_factors, loss_fractions
    metric = _stress_metric(weighted_dv, total_el, scenario.lam)
    result = StressResult(scenario_id=scenario.id, rows=kept if rows is None else (),
                          total_el=total_el, climate_var=metric)
    return result, _report(linked, scenario.id, kept, metric, top_k, total_el)
