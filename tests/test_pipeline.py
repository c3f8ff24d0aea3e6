"""run_scenario against the public scalar functions and a per-row dict
grouping, bit for bit."""

import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostress import (
    BetaParams,
    Channel,
    ExposureContext,
    ExposureReport,
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
    group_el,
    hhi,
    link_exposures,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
    portfolio_credit,
    portfolio_valuation,
    repricing_delta,
    run_scenario,
    scenario_lgd,
    scenario_pd,
    top_contributors,
)
from geostress.credit import effective_hazard
from geostress.errors import DomainError, InvalidWeights
from geostress.model import ordered_sum
from geostress.model import RowColumns, row_columns
from geostress.report import emit_report

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
    infinite = dataclasses.replace(physical, id="physical-inf", betas=BetaParams(hazard=1e308))
    return [orderly, disorderly, physical, compound, scaled, overflow, infinite]


def _group(rows, linked, key):
    """Expected loss summed per key in row order, with sorted keys."""
    sums = {}
    for row, inst, context in zip(rows, linked.portfolio.instruments, linked.contexts):
        name = key(inst, context)
        sums[name] = sums.get(name, 0.0) + row.el_s
    return dict(sorted(sums.items()))


def _reference(linked, scenario, top_k):
    """The scalar equations applied one instrument at a time, grouped in
    dicts keyed by name."""
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
    el_by_geo = _group(rows, linked, lambda inst, _: inst.geo_id)
    el_by_sector = _group(rows, linked, lambda inst, _: inst.sector)
    el_by_channel = _group(rows, linked, lambda _, context: context.channel.value)
    ead_by_geo = {}  # in first-appearance order, the order hhi_geo_ead adds in
    for inst in linked.portfolio.instruments:
        ead_by_geo[inst.geo_id] = ead_by_geo.get(inst.geo_id, 0.0) + inst.ead
    report = ExposureReport(
        scenario_id=scenario.id,
        el_by_geo=el_by_geo,
        el_by_hazard_channel=el_by_channel,
        el_by_sector=el_by_sector,
        hhi_geo=hhi(list(el_by_geo.values())),
        hhi_sector=hhi(list(el_by_sector.values())),
        hhi_channel=hhi(list(el_by_channel.values())),
        hhi_geo_ead=hhi(list(ead_by_geo.values())),
        top_contributors=tuple(top_contributors(rows, top_k)),
        climate_var=metric,
        weight_source=linked.weight_source,
    )
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


@pytest.mark.parametrize("scenario", _scenarios(), ids=lambda s: s.id)
def test_zero_baseline_pd_stays_zero(scenario):
    linked = _mixed_linked()
    result, _ = run_scenario(linked, scenario)
    zero = {i.id for i in linked.portfolio.instruments if i.pd0 == 0.0}
    assert zero and {row.pd_s for row in result.rows if row.id in zero} == {0.0}


def test_zero_baseline_lgd_stays_zero_when_its_factor_overflows():
    # Row 60 sits in the hot geo unit: lgd_gamma * H overflows to inf.
    linked = _with_instrument(_mixed_linked(), 60, lgd0=0.0)
    scenario = dataclasses.replace(builtin_scenarios()[2], id="lgd-inf", lgd_gamma=1e308)
    result, report = run_scenario(linked, scenario)
    row = result.rows[60]
    assert row.pd_s > 0.0 and (row.lgd_s, row.el_s) == (0.0, 0.0)
    assert {r.lgd_s for r in result.rows[61:]} == {1.0}  # the other hot rows
    expected_result, expected_report = _reference(linked, scenario, 10)
    assert repr(result) == repr(expected_result)
    assert repr(report) == repr(expected_report)


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
        (lambda lk: _with_context(lk, 60, baseline_hazards=dict(
            zip(HazardType, (0.5, _NAN, 0.1, 0.1))
        )), _COMPOUND),
        (lambda lk: _with_context(lk, 60, baseline_hazards=dict(
            zip(HazardType, (0.5, -1.0, 0.1, 0.1))
        )), _COMPOUND),
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
    assert len(codes.contexts.fragility) == len(linked.codes.contexts.fragility) + 1
    assert codes.columns.geo_ids == linked.codes.columns.geo_ids
    # s0 (code 0) and its twin (code 4) take turns; the later geo units move up one.
    assert codes.contexts.codes == (0, 1, 2, 3, 4, 1, 2, 3) * 6 + (*range(5, 17),) + (17,) * 4
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
    assert list(codes.columns.geo_ids) != sorted(codes.columns.geo_ids)
    assert list(codes.columns.sectors) != sorted(codes.columns.sectors)
    assert list(codes.channels) != sorted(codes.channels)
    assert codes.columns.geo_ids[0] == reordered.portfolio.instruments[0].geo_id
    assert codes.columns.geo_codes == codes.contexts.codes  # one context per geo id
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
    assert set(codes.columns.geo_ids) == {*old_codes.columns.geo_ids, "zz-new"}
    assert set(codes.columns.sectors) == {*old_codes.columns.sectors, "aa-new"}
    assert codes.columns.geo_ids[codes.columns.geo_codes[5]] == "zz-new"
    assert codes.columns.sectors[codes.columns.sector_codes[5]] == "aa-new"
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


def _column_values(result):
    return [list(column) for column in row_columns(result)]


def test_rows_read_the_same_from_columns_or_from_rows():
    result, _ = run_scenario(_mixed_linked(), _COMPOUND)
    columns = vars(result)["rows"]
    assert type(columns) is RowColumns and row_columns(result) is columns
    rows = tuple(StressRow(*values) for values in zip(*columns))
    eager = StressResult(result.scenario_id, rows, result.total_el, result.climate_var)

    def lazy():  # reading rows builds them, so each check takes a new result
        return StressResult(result.scenario_id, columns, result.total_el, result.climate_var)

    assert lazy() == eager and eager == lazy()
    assert repr(lazy()) == repr(eager)
    assert hash(lazy()) == hash(eager)
    assert dataclasses.replace(lazy(), total_el=1.0) == dataclasses.replace(eager, total_el=1.0)
    assert dataclasses.asdict(lazy()) == dataclasses.asdict(eager)
    unpickled = pickle.loads(pickle.dumps(lazy()))
    assert unpickled == eager and repr(unpickled) == repr(eager)
    assert repr(_column_values(lazy())) == repr(_column_values(eager))
    assert repr(_column_values(unpickled)) == repr(_column_values(eager))

    built = lazy()
    assert type(built.rows) is tuple and built.rows is built.rows
    assert all(type(row) is StressRow for row in built.rows)
    assert vars(built)["rows"] is columns  # the columns stay
    assert repr(_column_values(built)) == repr(_column_values(eager))
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.rows = rows


def test_stress_result_fields_and_signature_are_unchanged():
    assert [(f.name, f.type, f.default, f.default_factory)
            for f in dataclasses.fields(StressResult)] == [
        (name, annotation, dataclasses.MISSING, dataclasses.MISSING)
        for name, annotation in [
            ("scenario_id", "str"),
            ("rows", "tuple[StressRow, ...]"),
            ("total_el", "float"),
            ("climate_var", "float"),
        ]
    ]
    parameters = inspect.signature(StressResult).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
        for name in ("scenario_id", "rows", "total_el", "climate_var")
    ]


def test_no_rows_give_five_empty_columns():
    assert row_columns(StressResult("empty", (), 0.0, 0.0)) == RowColumns((), (), (), (), ())


@pytest.mark.parametrize("format", ["json", "csv"])
def test_writing_a_report_builds_no_rows(format):
    results = [run_scenario(_mixed_linked(), scenario) for scenario in _scenarios()]
    assert emit_report(results, format)
    assert all(type(vars(result)["rows"]) is RowColumns for result, _ in results)


# The checks that no scenario can change run when the codes are built.
_PORTFOLIO_FAULTS = {
    "pd0": (lambda lk: _with_instrument(lk, 20, pd0=1.5), "pd0 must lie in [0,1], got 1.5"),
    "ead": (lambda lk: _with_instrument(lk, 20, ead=_NAN), "ead must be >= 0 and finite, got nan"),
    "fragility": (
        lambda lk: _with_context(lk, 60, fragility=-0.1),
        "fragility must be >= 0 and finite, got -0.1",
    ),
}


@pytest.mark.parametrize("fault", list(_PORTFOLIO_FAULTS))
def test_a_bad_linked_portfolio_fails_every_evaluation_every_time(fault):
    change, message = _PORTFOLIO_FAULTS[fault]
    clean = _mixed_linked()
    credit_rows, _ = portfolio_credit(clean, _COMPOUND)
    bad = change(clean)
    evaluations = [
        lambda: run_scenario(bad, _COMPOUND),
        lambda: portfolio_credit(bad, _COMPOUND),
        lambda: portfolio_valuation(bad, _COMPOUND, credit_rows),
        lambda: group_el(credit_rows, bad, "geo"),
        lambda: exposure_summary(bad, _COMPOUND, credit_rows, credit_rows, 0.0),
    ]
    for evaluate in evaluations * 2:  # a failed check caches nothing
        assert _outcome(evaluate) == f"DomainError: {message}"
    assert "codes" not in vars(bad)


def test_replacing_an_instrument_after_a_clean_run_checks_it_again():
    linked = _mixed_linked()
    run_scenario(linked, _COMPOUND)
    bad = _with_instrument(linked, 7, adaptation=-1.0)
    with pytest.raises(DomainError, match="adaptation must be >= 0 and finite, got -1.0"):
        run_scenario(bad, _COMPOUND)
    run_scenario(linked, _COMPOUND)  # the original keeps its checked codes


def test_instruments_mutated_after_the_first_run_do_not_reach_the_sums():
    linked = _mixed_linked()
    instruments = list(linked.portfolio.instruments)
    listed = dataclasses.replace(
        linked, portfolio=dataclasses.replace(linked.portfolio, instruments=instruments)
    )
    first = repr(run_scenario(listed, _COMPOUND))
    assert first == repr(run_scenario(linked, _COMPOUND))
    instruments[20] = dataclasses.replace(instruments[20], ead=-5.0)
    assert repr(run_scenario(listed, _COMPOUND)) == first


def test_weights_mutated_after_the_first_run_do_not_reach_the_sums():
    linked = _mixed_linked()
    weights = list(linked.portfolio.weights)
    listed = dataclasses.replace(
        linked, portfolio=dataclasses.replace(linked.portfolio, weights=weights)
    )
    first = repr(run_scenario(listed, _COMPOUND))
    assert first == repr(run_scenario(linked, _COMPOUND))
    credit_rows, _ = portfolio_credit(listed, _COMPOUND)
    metric = portfolio_valuation(listed, _COMPOUND, credit_rows)[1]
    weights[0], weights[-1] = weights[-1], weights[0]  # still valid weights
    assert repr(run_scenario(listed, _COMPOUND)) == first
    assert portfolio_valuation(listed, _COMPOUND, credit_rows)[1] == metric


def test_a_linked_portfolio_without_weights_raises_invalid_weights():
    linked = _mixed_linked()
    unweighted = dataclasses.replace(
        linked, portfolio=dataclasses.replace(linked.portfolio, weights=None)
    )
    with pytest.raises(InvalidWeights, match="needs weights"):
        run_scenario(unweighted, _COMPOUND)


def test_a_context_without_hazards_raises_a_domain_error():
    linked = _with_context(_mixed_linked(), 60, baseline_hazards={})
    fused = _outcome(lambda: run_scenario(linked, _COMPOUND))
    assert fused == "DomainError: an exposure context needs at least one baseline hazard, got none"
    assert fused == _outcome(lambda: _reference(linked, _COMPOUND, 10))
    with pytest.raises(DomainError, match="got none"):
        effective_hazard(ExposureContext({}, 0.1, Channel.WUI), _COMPOUND)


@pytest.mark.parametrize("bad", [-1.0, _NAN, _INF])
@pytest.mark.parametrize("position", range(4))
def test_effective_hazard_checks_every_scaled_value(bad, position):
    hazards = [0.5, 0.2, 0.1, 0.3]
    hazards[position] = bad
    context = ExposureContext(dict(zip(HazardType, hazards)), 0.1, Channel.WUI)
    unscaled = dataclasses.replace(_COMPOUND, hazard_multipliers={})
    with pytest.raises(DomainError, match=f"^hazard must be >= 0 and finite, got {bad}$"):
        effective_hazard(context, unscaled)


# The pair kernel: one set of terms per (context, sector) pair that occurs.

_PAIR_SECTORS = SECTORS + tuple(f"x{k}" for k in range(len(SECTORS), 12))


def _pair_linked(placements, numbers, hazards, fragility):
    """Instrument k in geo unit ``g{placements[k][0]}`` and sector
    ``placements[k][1]``, with ``numbers[k]`` as (ead, pd0, lgd0, value,
    adaptation). Then g0's second row takes an equal twin of g0's context,
    and g2's rows take g1's context object: one geo id served by two
    context objects, one context object shared by two geo ids."""
    geos = [f"g{k}" for k in range(len(hazards))]
    instruments = tuple(
        Instrument(f"i{k:02d}", geos[geo], sector, *values)
        for k, ((geo, sector), values) in enumerate(zip(placements, numbers))
    )
    linked = link_exposures(
        Portfolio(instruments=instruments),
        HazardField(entries={
            (g, h): x for g, per in zip(geos, hazards) for h, x in zip(HazardType, per)
        }),
        FragilityTable(entries=dict(zip(geos, fragility))),
        [GeoUnit(g, g, CHANNELS[k % len(CHANNELS)]) for k, g in enumerate(geos)],
    )
    contexts = list(linked.contexts)
    rows_of = {g: [k for k, (geo, _) in enumerate(placements) if geo == g] for g in (0, 1, 2)}
    contexts[rows_of[0][1]] = dataclasses.replace(contexts[rows_of[0][0]])
    for k in rows_of[2]:
        contexts[k] = contexts[rows_of[1][0]]
    return dataclasses.replace(linked, contexts=tuple(contexts))


def _placements(shared, n, sectors=None):
    """Few contexts x few sectors (rows take geo units 0-2 in turn and one
    of ``sectors``), or one (context, sector) pair per row (two rows per
    geo unit, a sector of its own per row)."""
    if shared:
        return [(k % 3, sectors[k]) for k in range(n)]
    return [(k // 2, _PAIR_SECTORS[k]) for k in range(n)]


_UNIT = st.sampled_from([0.0, 0.95, 1.0]) | st.floats(0.0, 1.0)
_MAGNITUDE = st.sampled_from([0.0, 1.0, 1e3, 1e308]) | st.floats(0.0, 5.0)


@st.composite
def _pair_portfolios(draw):
    shared = draw(st.booleans())
    n = draw(st.integers(6, 12))
    sectors = None
    if shared:
        names = st.sampled_from(SECTORS[:draw(st.integers(1, 3))])
        sectors = draw(st.lists(names, min_size=n, max_size=n))
    placements = _placements(shared, n, sectors)
    number = st.tuples(st.floats(1.0, 1e6), _UNIT, _UNIT, st.floats(1.0, 1e6), st.floats(0.0, 2.0))
    geos = max(geo for geo, _ in placements) + 1
    return _pair_linked(
        placements,
        draw(st.lists(number, min_size=n, max_size=n)),
        draw(st.lists(st.tuples(*[st.floats(0.0, 5.0)] * 4), min_size=geos, max_size=geos)),
        draw(st.lists(st.floats(0.0, 2.0), min_size=geos, max_size=geos)),
    )


_drawn_scenarios = st.builds(
    dataclasses.replace,
    st.just(_COMPOUND),
    id=st.just("drawn"),
    betas=st.builds(BetaParams, _MAGNITUDE, _MAGNITUDE, _MAGNITUDE, _MAGNITUDE),
    lgd_gamma=_MAGNITUDE,
    financing_tightening=st.floats(0.0, 1.0),
    repricing=st.builds(Repricing, _MAGNITUDE, _MAGNITUDE, _MAGNITUDE),
    lam=st.floats(0.0, 2.0),
)


@settings(max_examples=200, deadline=None)
@given(linked=_pair_portfolios(), scenario=_drawn_scenarios, top_k=st.sampled_from([1, 3, 100]))
def test_pair_kernel_matches_the_per_row_reference(linked, scenario, top_k):
    fused = _outcome(lambda: run_scenario(linked, scenario, top_k))
    assert fused == _outcome(lambda: _reference(linked, scenario, top_k))


def _probe_linked(shared):
    """Ten rows whose first has a zero baseline PD and LGD and whose second
    has both at 0.95, in geo units whose binding hazard is at least 2."""
    placements = _placements(shared, 10, [SECTORS[k % 2] for k in range(10)])
    numbers = [(1e3 + k, 0.02 * k, 0.1 * k, 2e3 + k, 0.1 * k) for k in range(10)]
    numbers[:2] = [(1e3, 0.0, 0.0, 2e3, 0.0), (1e3, 0.95, 0.95, 2e3, 0.0)]
    geos = max(geo for geo, _ in placements) + 1
    return _pair_linked(placements, numbers, [(2.0 + k, 1.0, 0.5, 0.25) for k in range(geos)],
                        [0.1 * k for k in range(geos)])


# Scenarios that each drive one clamp, and how its rows show it.
_CLAMP_SCENARIOS = {
    "pd at 1": (
        {"betas": BetaParams(hazard=3.0)},
        lambda rows: rows[1].pd_s == 1.0,
    ),
    "pd after overflow": (
        {"betas": BetaParams(hazard=1e3)},
        lambda rows: rows[0].pd_s == 0.0 and rows[1].pd_s == 1.0,
    ),
    "pd after exp(inf)": (
        {"betas": BetaParams(hazard=1e308)},
        lambda rows: rows[0].pd_s == 0.0 and rows[1].pd_s == 1.0,
    ),
    "zero lgd, overflowed factor": (
        {"betas": BetaParams(hazard=1.0), "lgd_gamma": 1e308},
        lambda rows: rows[0].lgd_s == 0.0 and {r.lgd_s for r in rows[1:]} == {1.0},
    ),
    "loss fraction at 1": (
        {"repricing": Repricing(delta_hazard=0.7, delta_transition=0.3)},
        lambda rows: all(r.dv_s == -(2e3 + (k if k > 1 else 0)) for k, r in enumerate(rows)),
    ),
}


@pytest.mark.parametrize("shared", [True, False], ids=["shared pairs", "one pair per row"])
@pytest.mark.parametrize("clamp", list(_CLAMP_SCENARIOS))
def test_pair_kernel_matches_the_reference_where_each_clamp_binds(shared, clamp):
    changes, binds = _CLAMP_SCENARIOS[clamp]
    scenario = dataclasses.replace(_COMPOUND, id=clamp, **changes)
    linked = _probe_linked(shared)
    result, report = run_scenario(linked, scenario, top_k=3)
    assert binds(result.rows)
    expected_result, expected_report = _reference(linked, scenario, 3)
    assert repr(result) == repr(expected_result)
    assert repr(report) == repr(expected_report)


def _distinct_pairs(linked):
    return len({(id(context), inst.sector)
                for context, inst in zip(linked.contexts, linked.portfolio.instruments)})


def _assert_pair_codes_decode(linked):
    codes = linked.codes
    assert len(codes.pairs) == len(set(codes.pairs)) == _distinct_pairs(linked)
    assert sorted(set(codes.pair_codes)) == list(range(len(codes.pairs)))
    assert [divmod(codes.pairs[p], len(codes.columns.sectors)) for p in codes.pair_codes] == list(
        zip(codes.contexts.codes, codes.columns.sector_codes)
    )
    assert list(codes.pairs) == sorted(codes.pairs)  # each context's pairs together


def test_pair_codes_are_built_once_per_linked_portfolio():
    linked = _mixed_linked()
    codes = linked.codes
    for scenario in _scenarios():
        run_scenario(linked, scenario)
        assert linked.codes is codes
    _assert_pair_codes_decode(linked)
    assert len(codes.pairs) < len(codes.pair_codes)
    for shared in (True, False):
        _assert_pair_codes_decode(_probe_linked(shared))
    assert len(_probe_linked(False).codes.pairs) == 10
    replaced = dataclasses.replace(linked)
    assert replaced.codes is not codes
    assert replaced.codes.pair_codes is not codes.pair_codes
    assert replaced.codes.pair_codes == codes.pair_codes
    moved = _with_instrument(linked, 5, sector="aa-new")
    assert len(moved.codes.pairs) == len(codes.pairs) + 1
    _assert_pair_codes_decode(moved)


def test_pair_codes_of_a_generated_portfolio_with_two_rows_per_geo_unit(tmp_path):
    from test_golden import gen

    paths = gen.generate(str(tmp_path), 5, 600, 300, 40)["paths"]
    loaders = (load_portfolio, load_hazard_table, load_fragility, load_geounits)
    inputs = []
    for name, load in zip(("portfolio", "hazards", "fragility", "geounits"), loaders):
        with open(paths[name], "rb") as source:
            inputs.append(load(source))
    linked = link_exposures(*inputs)
    _assert_pair_codes_decode(linked)
    assert len(linked.codes.pairs) > len(linked.codes.contexts.fragility)
    _assert_fused_matches_reference(linked)
