"""Concentration metrics, grouping, ranking, and the exposure report."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASELINE_HAZARDS,
    FRAGILITY,
    INSTRUMENT_DICTS,
    make_hazard_field,
    make_registry,
)
from geostress import (
    FragilityTable,
    Instrument,
    Portfolio,
    Scenario,
    ScenarioKind,
    builtin_scenarios,
    concentration_comparison,
    exposure_summary,
    group_el,
    hhi,
    link_exposures,
    portfolio_credit,
    portfolio_valuation,
    run_scenario,
    serialize_scenario,
    top_contributors,
)
from geostress.errors import AllZero, Misalignment, ZeroDenominator
from geostress.model import StressRow
from oracle import oracle_portfolio


class TestHhi:
    def test_left_to_right_sum_on_every_python(self):
        # Python 3.12's compensated builtin sum gives 0.5555555555555554.
        assert hhi([1.0, 1e-16, 1e-16, 0.5]) == 0.5555555555555556

    def test_two_equal_shares(self):
        assert hhi([0.5, 0.5]) == pytest.approx(0.5)

    def test_single_group(self):
        assert hhi([123.0]) == 1.0

    def test_hand_computed(self):
        assert hhi([0.6, 0.3, 0.1]) == pytest.approx(0.46)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            hhi([0.0, 0.0])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
    @settings(max_examples=300)
    def test_bounds(self, basis):
        if sum(basis) <= 0.0:
            return
        n = len(basis)
        value = hhi(basis)
        assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12

    @given(st.integers(min_value=1, max_value=50))
    def test_equal_shares_floor(self, n):
        assert hhi([3.5] * n) == pytest.approx(1.0 / n, rel=1e-12)


class TestGroupEl:
    def test_single_geo_portfolio(self):
        insts = tuple(
            Instrument(**{**d, "geo_id": "g1"}) for d in INSTRUMENT_DICTS[:3]
        )
        linked = link_exposures(
            Portfolio(instruments=insts),
            make_hazard_field(),
            FragilityTable(entries=dict(FRAGILITY)),
            make_registry(),
        )
        rows, total = portfolio_credit(linked, builtin_scenarios()[2])
        groups = group_el(rows, linked, "geo")
        assert list(groups) == ["g1"]
        assert groups["g1"] == pytest.approx(total, rel=1e-12)

    def test_distinct_sectors(self, fixture_linked):
        rows, _ = portfolio_credit(fixture_linked, builtin_scenarios()[0])
        by_sector = group_el(rows, fixture_linked, "sector")
        per_row = {}
        for row, inst in zip(rows, fixture_linked.portfolio.instruments):
            per_row[inst.sector] = per_row.get(inst.sector, 0.0) + row.el_s
        for sector, el in by_sector.items():
            assert el == pytest.approx(per_row[sector], rel=1e-12)

    @pytest.mark.parametrize("key", ["geo", "sector", "channel"])
    def test_conservation(self, fixture_linked, key):
        rows, total = portfolio_credit(fixture_linked, builtin_scenarios()[3])
        groups = group_el(rows, fixture_linked, key)
        assert sum(groups.values()) == pytest.approx(total, rel=1e-9)

    def test_misalignment(self, fixture_linked):
        rows, _ = portfolio_credit(fixture_linked, builtin_scenarios()[0])
        with pytest.raises(Misalignment):
            group_el(rows[:-1], fixture_linked, "geo")


class TestTopContributors:
    def _rows(self, els):
        return [StressRow(id=k, pd_s=0.1, lgd_s=0.5, el_s=v, dv_s=0.0) for k, v in els.items()]

    def test_sorted_descending(self):
        top = top_contributors(self._rows({"A": 5.0, "B": 9.0, "C": 1.0}), k=2)
        assert [c.id for c in top] == ["B", "A"]

    def test_tie_break_by_id(self):
        top = top_contributors(self._rows({"B": 5.0, "A": 5.0}), k=1)
        assert [c.id for c in top] == ["A"]

    def test_k_larger_than_n(self):
        top = top_contributors(self._rows({"A": 5.0, "B": 9.0}), k=10)
        assert len(top) == 2

    def test_shares_sum_to_at_most_one(self):
        top = top_contributors(self._rows({"A": 5.0, "B": 9.0, "C": 1.0}), k=2)
        assert sum(c.share for c in top) <= 1.0 + 1e-12

    def test_deterministic(self):
        rows = self._rows({"A": 5.0, "B": 5.0, "C": 5.0})
        assert top_contributors(rows, 2) == top_contributors(list(rows), 2)

    def test_tie_at_the_kth_place_breaks_by_id(self):
        # Four rows tie at the 3rd-largest loss: all four are ranked by id.
        rows = self._rows({"E": 4.0, "D": 4.0, "Z": 9.0, "C": 4.0, "A": 1.0, "B": 4.0, "Y": 7.0})
        assert [c.id for c in top_contributors(rows, 3)] == ["Z", "Y", "B"]
        assert [c.id for c in top_contributors(rows, 5)] == ["Z", "Y", "B", "C", "D"]
        assert [c.id for c in top_contributors(rows, 6)] == ["Z", "Y", "B", "C", "D", "E"]

    @settings(max_examples=200)
    @given(
        st.dictionaries(
            st.text(alphabet="abc", max_size=3),
            st.sampled_from([0.0, -0.0, 1.0, 2.5, 2.5, 1e-300, 7.0]),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=14),
    )
    def test_matches_a_full_sort(self, els, k):
        rows = self._rows(els)
        expected = sorted(rows, key=lambda row: (-row.el_s, row.id))[:k]
        assert [c.id for c in top_contributors(rows, k)] == [row.id for row in expected]


def _linked_for(instrument_dicts):
    return link_exposures(
        Portfolio(instruments=tuple(Instrument(**d) for d in instrument_dicts)),
        make_hazard_field(),
        FragilityTable(entries=dict(FRAGILITY)),
        make_registry(),
    )


def concentration_fixture_pair():
    """Equal total EAD: all in g1 vs. split evenly across g1..g4."""
    base = dict(sector="retail", pd0=0.03, lgd0=0.5, adaptation=0.0)
    concentrated = [
        {"id": f"c{k}", "geo_id": "g1", "ead": 250_000.0, "value": 250_000.0, **base}
        for k in range(4)
    ]
    diversified = [
        {"id": f"d{k}", "geo_id": f"g{k+1}", "ead": 250_000.0, "value": 250_000.0, **base}
        for k in range(4)
    ]
    return _linked_for(concentrated), _linked_for(diversified)


class TestConcentrationComparison:
    def test_identical_portfolios(self, fixture_linked):
        result, _ = run_scenario(fixture_linked, builtin_scenarios()[3])
        assert concentration_comparison(result, result) == 1.0

    def test_concentration_penalty(self):
        from geostress import HazardType

        concentrated, diversified = concentration_fixture_pair()
        shock = Scenario(
            id="g1-wildfire",
            kind=ScenarioKind.PHYSICAL_SHOCK,
            hazard_multipliers={HazardType.WILDFIRE: 4.0},
            betas=dataclasses.replace(builtin_scenarios()[2].betas),
        )
        result_c, _ = run_scenario(concentrated, shock)
        result_d, _ = run_scenario(diversified, shock)
        ratio = concentration_comparison(result_c, result_d)
        assert ratio > 1.0

        # Oracle recomputation of both totals.
        doc = json.loads(serialize_scenario(shock))
        for linked, result in ((concentrated, result_c), (diversified, result_d)):
            dicts = [dataclasses.asdict(i) for i in linked.portfolio.instruments]
            expected = oracle_portfolio(dicts, BASELINE_HAZARDS, FRAGILITY, doc)
            assert result.total_el == pytest.approx(expected["total_el"], rel=1e-9)

    def test_identity_scenario_symmetry(self):
        concentrated, diversified = concentration_fixture_pair()
        identity = Scenario(id="noop", kind=ScenarioKind.PHYSICAL_SHOCK)
        result_c, _ = run_scenario(concentrated, identity)
        result_d, _ = run_scenario(diversified, identity)
        assert concentration_comparison(result_c, result_d) == pytest.approx(1.0, rel=1e-12)

    def test_zero_denominator(self):
        concentrated, _ = concentration_fixture_pair()
        result, _ = run_scenario(concentrated, Scenario(id="noop", kind=ScenarioKind.PHYSICAL_SHOCK))
        zeroed = dataclasses.replace(result, total_el=0.0)
        with pytest.raises(ZeroDenominator):
            concentration_comparison(result, zeroed)


class TestExposureSummary:
    def test_single_instrument_all_hhi_one(self):
        linked = _linked_for(INSTRUMENT_DICTS[:1])
        scenario = builtin_scenarios()[0]
        credit_rows, _ = portfolio_credit(linked, scenario)
        val_rows, metric = portfolio_valuation(linked, scenario, credit_rows)
        report = exposure_summary(linked, scenario, credit_rows, val_rows, metric)
        assert report.hhi_geo == 1.0
        assert report.hhi_sector == 1.0
        assert report.hhi_channel == 1.0
        assert len(report.top_contributors) == 1
        assert report.top_contributors[0].share == pytest.approx(1.0)

    def test_identity_scenario_reflects_baseline(self, fixture_linked):
        identity = Scenario(id="noop", kind=ScenarioKind.PHYSICAL_SHOCK)
        credit_rows, _ = portfolio_credit(fixture_linked, identity)
        val_rows, metric = portfolio_valuation(fixture_linked, identity, credit_rows)
        report = exposure_summary(fixture_linked, identity, credit_rows, val_rows, metric)
        baseline_by_geo = {}
        for inst in fixture_linked.portfolio.instruments:
            baseline_by_geo[inst.geo_id] = (
                baseline_by_geo.get(inst.geo_id, 0.0) + inst.pd0 * inst.lgd0 * inst.ead
            )
        for geo, el in report.el_by_geo.items():
            assert el == pytest.approx(baseline_by_geo[geo], rel=1e-12)

    def test_fixture_under_compound_matches_oracle(self, fixture_linked):
        scenario = builtin_scenarios()[3]
        result, report = run_scenario(fixture_linked, scenario)
        expected = oracle_portfolio(
            INSTRUMENT_DICTS, BASELINE_HAZARDS, FRAGILITY,
            json.loads(serialize_scenario(scenario)),
        )
        by_geo = {}
        for exp, d in zip(expected["rows"], INSTRUMENT_DICTS):
            by_geo[d["geo_id"]] = by_geo.get(d["geo_id"], 0.0) + exp["el_s"]
        for geo, el in report.el_by_geo.items():
            assert el == pytest.approx(by_geo[geo], rel=1e-9)
        shares = [v / sum(by_geo.values()) for v in by_geo.values()]
        assert report.hhi_geo == pytest.approx(sum(s * s for s in shares), rel=1e-9)
        assert report.climate_var == pytest.approx(expected["climate_var"], rel=1e-9)
