"""Concentration and attribution diagnostics.

Answers the portfolio-diagnostic questions a stress run should settle:
where the portfolio is exposed (by geo unit), which hazard channels
matter (by regional channel tag), which sectors and counterparties
drive the losses, and how concentrated the stressed loss profile is.

Concentration is measured on scenario expected loss, because the risk
of interest is stressed losses, not notional exposure; an EAD-based
geographic HHI is emitted alongside for reference.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isfinite
from typing import Literal, Sequence, get_args

from .errors import AllZero, Misalignment, NonFiniteSum, ZeroDenominator
from .ingest import LinkedPortfolio
from .model import RowColumns, StressResult, StressRow, _transpose, ordered_sum
from .scenarios import Scenario

GroupKey = Literal["geo", "sector", "channel"]
_GROUP_KEYS = get_args(GroupKey)


@dataclass(frozen=True)
class Contributor:
    """One ranked loss contributor."""

    id: str
    el_s: float
    share: float


@dataclass(frozen=True)
class ExposureReport:
    """Concentration metrics and ranked contributors for one scenario."""

    scenario_id: str
    el_by_geo: dict[str, float]
    el_by_hazard_channel: dict[str, float]
    el_by_sector: dict[str, float]
    hhi_geo: float
    hhi_sector: float
    hhi_channel: float
    hhi_geo_ead: float
    top_contributors: tuple[Contributor, ...]
    climate_var: float
    weight_source: str


def hhi(basis: Sequence[float]) -> float:
    """Herfindahl-Hirschman index of a nonnegative share basis.

    Shares are basis entries normalized by their sum; the result lies in
    [1/n, 1] with 1/n at equal shares and 1 at full concentration.
    """
    total = ordered_sum(basis)
    if total <= 0.0:
        raise AllZero("HHI needs at least one strictly positive entry")
    if not isfinite(total):
        raise NonFiniteSum(f"HHI basis sums to {total!r}")
    return ordered_sum((x / total) ** 2 for x in basis)


def _check_alignment(
    rows: Sequence[StressRow], linked: LinkedPortfolio, layer: str = "credit"
) -> None:
    ids = linked.codes.ids
    if len(rows) != len(ids) or any(row.id != inst_id for row, inst_id in zip(rows, ids)):
        raise Misalignment(f"{layer} rows do not match portfolio ids/order")


def _grouped(values: Sequence[float], linked: LinkedPortfolio) -> tuple[dict[str, float], ...]:
    """Sum one value per row by geo unit, sector and channel tag, in
    ``GroupKey`` order. Each group adds its values in row order; keys are
    sorted for reproducible reports."""
    codes = linked.codes
    names = (codes.geo_ids, codes.sectors, codes.channels)
    by_geo, by_sector, by_channel = sums = [[0.0] * len(keys) for keys in names]
    for value, geo, sector, channel in zip(
        values, codes.geo_codes, codes.sector_codes, codes.channel_codes
    ):
        by_geo[geo] += value
        by_sector[sector] += value
        by_channel[channel] += value
    return tuple(dict(sorted(zip(keys, group))) for keys, group in zip(names, sums))


def group_el(
    rows: Sequence[StressRow], linked: LinkedPortfolio, by: GroupKey
) -> dict[str, float]:
    """Sum expected loss by geo unit, sector, or channel tag.

    Group sums preserve the portfolio total; output keys are sorted for
    reproducible reports.
    """
    _check_alignment(rows, linked)
    if by not in _GROUP_KEYS:
        raise ValueError(f"unknown grouping key {by!r}")
    return _grouped([row.el_s for row in rows], linked)[_GROUP_KEYS.index(by)]


def top_contributors(
    rows: Sequence[StressRow], k: int
) -> list[Contributor]:
    """The k largest loss contributors, ties broken by id ascending."""
    losses = [row.el_s for row in rows]
    return _top_contributors([row.id for row in rows], losses, k, ordered_sum(losses))


def _top_contributors(
    ids: Sequence[str], losses: Sequence[float], k: int, total: float
) -> list[Contributor]:
    """``top_contributors`` over the id and loss columns; ``total`` is their EL."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # sorted(range(n), key=...)[:k], sorting only the rows that reach the
    # k-th largest loss; rows tied with it stay, to be ranked by id.
    ranked: Sequence[int] = range(len(losses))
    if len(losses) > k:
        threshold = heapq.nlargest(k, losses)[-1]
        ranked = [i for i, el_s in enumerate(losses) if el_s >= threshold]
    ranked = sorted(ranked, key=lambda i: (-losses[i], ids[i]))[:k]
    return [
        Contributor(
            id=ids[i],
            el_s=losses[i],
            share=losses[i] / total if total > 0.0 else 0.0,
        )
        for i in ranked
    ]


def concentration_comparison(
    concentrated: StressResult, diversified: StressResult
) -> float:
    """Stressed-loss ratio of a concentrated vs. a diversified portfolio.

    Both results must come from the same scenario with equal aggregate
    exposure baselines; a ratio above 1 quantifies the concentration
    penalty.
    """
    if diversified.total_el == 0.0:
        raise ZeroDenominator("diversified portfolio has zero total expected loss")
    return concentrated.total_el / diversified.total_el


def exposure_summary(
    linked: LinkedPortfolio,
    scenario: Scenario,
    credit_rows: Sequence[StressRow],
    valuation_rows: Sequence[StressRow],
    metric: float,
    top_k: int = 10,
) -> ExposureReport:
    """Build the full diagnostic report for one scenario run."""
    _check_alignment(credit_rows, linked)
    _check_alignment(valuation_rows, linked, "valuation")
    columns = _transpose(credit_rows)
    return _report(linked, scenario.id, columns, metric, top_k, ordered_sum(columns.el_s))


def _report(
    linked: LinkedPortfolio, scenario_id: str, columns: RowColumns, metric: float, top_k: int,
    total_el: float,
) -> ExposureReport:
    """The diagnostic report over result columns in portfolio order, which sum to ``total_el``."""
    el_by_geo, el_by_sector, el_by_channel = _grouped(columns.el_s, linked)
    return ExposureReport(
        scenario_id=scenario_id,
        el_by_geo=el_by_geo,
        el_by_hazard_channel=el_by_channel,
        el_by_sector=el_by_sector,
        hhi_geo=hhi(list(el_by_geo.values())),
        hhi_sector=hhi(list(el_by_sector.values())),
        hhi_channel=hhi(list(el_by_channel.values())),
        hhi_geo_ead=hhi(linked.codes.geo_ead),
        top_contributors=tuple(_top_contributors(columns.id, columns.el_s, top_k, total_el)),
        climate_var=metric,
        weight_source=linked.weight_source,
    )
