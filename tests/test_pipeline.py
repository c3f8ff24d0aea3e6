"""run_scenario against the public scalar functions, bit for bit."""

import dataclasses

import pytest

from geostress import (
    BetaParams,
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    Repricing,
    StressResult,
    StressRow,
    builtin_scenarios,
    climate_var,
    expected_loss,
    exposure_summary,
    link_exposures,
    repricing_delta,
    run_scenario,
    scenario_lgd,
    scenario_pd,
)
from geostress.credit import effective_hazard
from geostress.model import ordered_sum

# Sectors named by the built-in transition maps, then two that take the default.
SECTORS = ("agriculture", "real_estate", "tourism", "retail", "mining")
CHANNELS = tuple(Channel)


def _mixed_linked():
    """Shared geo units (twelve instruments each), unshared ones (one
    instrument each), a high-hazard geo unit, and rows with pd0 and lgd0
    near 1, so the clamps bind, and rows with pd0 = 0, which must stay 0
    when exp overflows."""
    shared = [f"s{k}" for k in range(4)]
    single = [f"u{k:02d}" for k in range(12)]
    geos = shared + single + ["hot"]
    baselines = {
        geo: {h: ((k * 7 + j * 3) % 10) / 10.0 for j, h in enumerate(HazardType)}
        for k, geo in enumerate(geos)
    }
    baselines["hot"] = {h: 5.0 for h in HazardType}
    instruments = []
    placements = [shared[k % 4] for k in range(48)] + single + ["hot"] * 4
    for k, geo in enumerate(placements):
        high = k % 9 == 0
        instruments.append(
            Instrument(
                id=f"i{k:03d}",
                geo_id=geo,
                sector=SECTORS[k % len(SECTORS)],
                ead=1_000.0 + 37.0 * k,
                pd0=0.9 if high else (k % 13) / 100.0,
                lgd0=0.95 if high else 0.2 + (k % 7) / 10.0,
                value=2_000.0 + 11.0 * k,
                adaptation=(k % 5) / 4.0,
            )
        )
    return link_exposures(
        Portfolio(instruments=tuple(instruments)),
        HazardField(
            entries={(g, h): x for g, per in baselines.items() for h, x in per.items()}
        ),
        FragilityTable(entries={g: (k % 6) / 5.0 for k, g in enumerate(geos)}),
        [GeoUnit(g, g, CHANNELS[k % len(CHANNELS)]) for k, g in enumerate(geos)],
    )


def _scenarios():
    orderly, disorderly, physical, compound = builtin_scenarios()
    scaled = dataclasses.replace(
        compound,
        id="compound-scaled",
        lam=1.5,
        betas=BetaParams(hazard=1.05, transition=1.35, fragility=0.75, adaptation=0.6),
        repricing=Repricing(delta_hazard=0.2, delta_transition=0.3, delta_financing=0.5),
    )
    overflow = dataclasses.replace(
        physical, id="physical-overflow", betas=BetaParams(hazard=1000.0)
    )
    return [orderly, disorderly, physical, compound, scaled, overflow]


def _reference(linked, scenario, top_k):
    """The scalar equations applied one instrument at a time."""
    rows = []
    for inst, context in zip(linked.portfolio.instruments, linked.contexts):
        hazard = effective_hazard(context, scenario)
        transition = scenario.transition.for_sector(inst.sector)
        pd_s = scenario_pd(
            inst.pd0, hazard, transition, context.fragility, inst.adaptation, scenario.betas
        )
        lgd_s = scenario_lgd(inst.lgd0, hazard, scenario.lgd_gamma)
        el_s = expected_loss(pd_s, lgd_s, inst.ead)
        dv_s = repricing_delta(
            inst.value, hazard, transition, scenario.financing_tightening, scenario.repricing
        )
        rows.append(StressRow(inst.id, pd_s, lgd_s, el_s, dv_s))
    els = [row.el_s for row in rows]
    metric = climate_var(linked.portfolio.weights, [row.dv_s for row in rows], els, scenario.lam)
    result = StressResult(scenario.id, tuple(rows), ordered_sum(els), metric)
    report = exposure_summary(linked, scenario, rows, rows, metric, top_k=top_k)
    return result, report


@pytest.mark.parametrize("scenario", _scenarios(), ids=lambda s: s.id)
@pytest.mark.parametrize("top_k", [3, 1000])
def test_fused_path_is_bit_identical_to_layers(scenario, top_k):
    linked = _mixed_linked()
    result, report = run_scenario(linked, scenario, top_k=top_k)
    expected_result, expected_report = _reference(linked, scenario, top_k)
    # Dataclass equality compares floats exactly; repr also tells -0.0 from 0.0.
    assert result == expected_result
    assert report == expected_report
    assert repr(result) == repr(expected_result)
    assert repr(report) == repr(expected_report)
    assert len(report.top_contributors) == min(top_k, len(result.rows))


def test_fixture_exercises_sharing_defaults_and_clamps():
    linked = _mixed_linked()
    assert len({id(c) for c in linked.contexts}) == 17  # 4 shared + 12 single + hot
    by_id = {s.id: s for s in _scenarios()}
    assert "mining" not in by_id["compound"].transition.by_sector
    result, _ = run_scenario(linked, by_id["compound-scaled"])
    values = {i.id: i.value for i in linked.portfolio.instruments}
    assert any(row.pd_s == 1.0 for row in result.rows)
    assert any(row.pd_s < 1.0 for row in result.rows)
    assert any(row.dv_s == -values[row.id] for row in result.rows)
    assert any(row.dv_s > -values[row.id] for row in result.rows)
    overflowed, _ = run_scenario(linked, by_id["physical-overflow"])
    baseline = {i.id: i.pd0 for i in linked.portfolio.instruments}
    assert {row.pd_s for row in overflowed.rows if baseline[row.id] == 0.0} == {0.0}


def _outcome(evaluate):
    try:
        return repr(evaluate())
    except Exception as exc:  # the outcome under test may be any error
        return f"{type(exc).__name__}: {exc}"


def _with_instrument(linked, index, **changes):
    instruments = list(linked.portfolio.instruments)
    instruments[index] = dataclasses.replace(instruments[index], **changes)
    portfolio = dataclasses.replace(linked.portfolio, instruments=tuple(instruments))
    return dataclasses.replace(linked, portfolio=portfolio)


def _with_context(linked, index, **changes):
    contexts = list(linked.contexts)
    contexts[index] = dataclasses.replace(contexts[index], **changes)
    return dataclasses.replace(linked, contexts=tuple(contexts))


_COMPOUND = builtin_scenarios()[3]
_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "linked_change, scenario",
    [
        (None, dataclasses.replace(_COMPOUND, betas=BetaParams(hazard=-1.0))),
        (None, dataclasses.replace(_COMPOUND, lgd_gamma=-0.5)),
        (None, dataclasses.replace(_COMPOUND, financing_tightening=-0.3)),
        (None, dataclasses.replace(_COMPOUND, repricing=Repricing(delta_financing=-0.1))),
        (None, dataclasses.replace(_COMPOUND, lam=-1.0)),
        (None, dataclasses.replace(_COMPOUND, lam=_NAN)),
        (None, dataclasses.replace(
            _COMPOUND, transition=dataclasses.replace(_COMPOUND.transition, by_sector={"mining": -0.2})
        )),
        (None, dataclasses.replace(
            _COMPOUND, transition=dataclasses.replace(_COMPOUND.transition, default=_NAN)
        )),
        (lambda lk: _with_instrument(lk, 20, pd0=1.5), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, lgd0=_NAN), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, adaptation=-1.0), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, adaptation=_NAN), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, ead=-5.0), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, value=-2.0), _COMPOUND),
        (lambda lk: _with_context(lk, 60, fragility=-0.1), _COMPOUND),
        (lambda lk: _with_context(lk, 60, fragility=_NAN), _COMPOUND),
        (lambda lk: _with_context(
            lk, 60, baseline_hazards={h: -1.0 for h in HazardType}
        ), _COMPOUND),
        (lambda lk: _with_context(
            lk, 60, baseline_hazards={h: _NAN for h in HazardType}
        ), _COMPOUND),
        (None, dataclasses.replace(_COMPOUND, lam=_INF)),
        (None, dataclasses.replace(_COMPOUND, lgd_gamma=_INF)),
        (lambda lk: _with_instrument(lk, 20, adaptation=_INF), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, ead=_NAN), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, ead=_INF), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, value=_NAN), _COMPOUND),
        (lambda lk: _with_instrument(lk, 20, value=_INF), _COMPOUND),
        (lambda lk: _with_context(lk, 60, fragility=_INF), _COMPOUND),
    ],
)
def test_fused_path_checks_match_layers(linked_change, scenario):
    linked = _mixed_linked()
    if linked_change is not None:
        linked = linked_change(linked)
    fused = _outcome(lambda: run_scenario(linked, scenario))
    assert fused.startswith("DomainError: ")
    assert fused == _outcome(lambda: _reference(linked, scenario, 10))


def _assert_fused_matches_reference(linked):
    for scenario in _scenarios():
        result, report = run_scenario(linked, scenario, top_k=5)
        expected_result, expected_report = _reference(linked, scenario, 5)
        assert repr(result) == repr(expected_result)
        assert repr(report) == repr(expected_report)


def test_one_geo_id_served_by_two_equal_context_objects():
    linked = _mixed_linked()
    contexts = list(linked.contexts)
    first = contexts[0]
    twin = dataclasses.replace(first)  # equal, but another object
    assert twin == first and twin is not first
    served = [k for k, c in enumerate(contexts) if c is first]
    for k in served[1::2]:
        contexts[k] = twin
    split = dataclasses.replace(linked, contexts=tuple(contexts))
    codes = split.codes
    assert len(codes.contexts) == len(linked.codes.contexts) + 1
    assert codes.geo_ids == linked.codes.geo_ids
    assert codes.geo_codes is not codes.context_codes
    _assert_fused_matches_reference(split)


def _reordered(linked, order):
    """The linked portfolio with its rows, contexts and weights in ``order``."""
    portfolio = linked.portfolio
    return dataclasses.replace(
        linked,
        portfolio=dataclasses.replace(
            portfolio,
            instruments=tuple(portfolio.instruments[k] for k in order),
            weights=tuple(portfolio.weights[k] for k in order),
        ),
        contexts=tuple(linked.contexts[k] for k in order),
    )


def test_first_appearance_order_need_not_be_sorted():
    linked = _mixed_linked()
    reordered = _reordered(linked, range(len(linked.contexts) - 1, -1, -1))
    codes = reordered.codes
    assert list(codes.geo_ids) != sorted(codes.geo_ids)
    assert list(codes.sectors) != sorted(codes.sectors)
    assert list(codes.channels) != sorted(codes.channels)
    assert codes.geo_ids[0] == reordered.portfolio.instruments[0].geo_id
    assert codes.geo_codes is codes.context_codes  # one context per geo id
    _assert_fused_matches_reference(reordered)
    result, report = run_scenario(reordered, _COMPOUND)
    assert list(report.el_by_geo) == sorted(report.el_by_geo)
    assert list(report.el_by_sector) == sorted(report.el_by_sector)


def test_codes_follow_a_replaced_portfolio():
    linked = _mixed_linked()
    before = run_scenario(linked, _COMPOUND)
    old_codes = linked.codes
    moved = _with_instrument(linked, 5, geo_id="zz-new", sector="aa-new")
    codes = moved.codes
    assert codes is not old_codes
    assert set(codes.geo_ids) == {*old_codes.geo_ids, "zz-new"}
    assert set(codes.sectors) == {*old_codes.sectors, "aa-new"}
    assert codes.geo_ids[codes.geo_codes[5]] == "zz-new"
    assert codes.sectors[codes.sector_codes[5]] == "aa-new"
    _assert_fused_matches_reference(moved)
    result, report = run_scenario(moved, _COMPOUND)
    assert "zz-new" in report.el_by_geo and "aa-new" in report.el_by_sector
    assert linked.codes is old_codes
    assert repr(run_scenario(linked, _COMPOUND)) == repr(before)


def test_stress_row_is_an_immutable_named_tuple():
    row = StressRow("i1", 0.25, 0.5, 125.0, -0.0)
    assert repr(row) == "StressRow(id='i1', pd_s=0.25, lgd_s=0.5, el_s=125.0, dv_s=-0.0)"
    assert row == ("i1", 0.25, 0.5, 125.0, -0.0)
    assert row._replace(el_s=1.0).el_s == 1.0
    with pytest.raises(AttributeError):
        row.el_s = 1.0
    result, _ = run_scenario(_mixed_linked(), _COMPOUND)
    assert all(type(r) is StressRow for r in result.rows)
    assert repr(result.rows[0]).startswith("StressRow(id='i000', pd_s=")
