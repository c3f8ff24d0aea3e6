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
from typing import Literal, Sequence

from .errors import AllZero, Misalignment, NonFiniteSum, ZeroDenominator
from .ingest import LinkedPortfolio
from .model import StressResult, StressRow, ordered_sum
from .scenarios import Scenario

GroupKey = Literal["geo", "sector", "channel"]


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
    instruments = linked.portfolio.instruments
    if len(rows) != len(instruments) or any(
        row.id != inst.id for row, inst in zip(rows, instruments)
    ):
        raise Misalignment(f"{layer} rows do not match portfolio ids/order")


def group_el(
    rows: Sequence[StressRow], linked: LinkedPortfolio, by: GroupKey
) -> dict[str, float]:
    """Sum expected loss by geo unit, sector, or channel tag.

    Group sums preserve the portfolio total; output keys are sorted for
    reproducible reports.
    """
    _check_alignment(rows, linked)
    sums: dict[str, float] = {}
    for row, inst, context in zip(rows, linked.portfolio.instruments, linked.contexts):
        if by == "geo":
            key = inst.geo_id
        elif by == "sector":
            key = inst.sector
        elif by == "channel":
            key = context.channel.value
        else:
            raise ValueError(f"unknown grouping key {by!r}")
        sums[key] = sums.get(key, 0.0) + row.el_s
    return dict(sorted(sums.items()))


def top_contributors(
    rows: Sequence[StressRow], k: int
) -> list[Contributor]:
    """The k largest loss contributors, ties broken by id ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    losses = [row.el_s for row in rows]
    total = ordered_sum(losses)
    # sorted(rows, key=...)[:k], sorting only the rows that reach the k-th
    # largest loss; rows tied with it stay, to be ranked by id.
    ranked = rows
    if len(losses) > k:
        threshold = heapq.nlargest(k, losses)[-1]
        ranked = [row for row, el_s in zip(rows, losses) if el_s >= threshold]
    ranked = sorted(ranked, key=lambda row: (-row.el_s, row.id))[:k]
    return [
        Contributor(
            id=row.id,
            el_s=row.el_s,
            share=row.el_s / total if total > 0.0 else 0.0,
        )
        for row in ranked
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

    el_by_geo = group_el(credit_rows, linked, "geo")
    el_by_sector = group_el(credit_rows, linked, "sector")
    el_by_channel = group_el(credit_rows, linked, "channel")

    ead_by_geo: dict[str, float] = {}
    for inst in linked.portfolio.instruments:
        ead_by_geo[inst.geo_id] = ead_by_geo.get(inst.geo_id, 0.0) + inst.ead

    return ExposureReport(
        scenario_id=scenario.id,
        el_by_geo=el_by_geo,
        el_by_hazard_channel=el_by_channel,
        el_by_sector=el_by_sector,
        hhi_geo=hhi(list(el_by_geo.values())),
        hhi_sector=hhi(list(el_by_sector.values())),
        hhi_channel=hhi(list(el_by_channel.values())),
        hhi_geo_ead=hhi(list(ead_by_geo.values())),
        top_contributors=tuple(top_contributors(credit_rows, top_k)),
        climate_var=metric,
        weight_source=linked.weight_source,
    )
