"""Credit transmission: PD response, LGD adjustment, expected loss."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE_HAZARDS, FRAGILITY, INSTRUMENT_DICTS
from geostress import (
    BetaParams,
    Channel,
    ExposureContext,
    HazardType,
    Repricing,
    Scenario,
    ScenarioKind,
    builtin_scenarios,
    expected_loss,
    portfolio_credit,
    scenario_lgd,
    scenario_pd,
    serialize_scenario,
)
from geostress.credit import effective_hazard
from geostress.errors import DomainError, NonFiniteSum
from oracle import oracle_portfolio

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
shock = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
beta = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
betas_strategy = st.builds(BetaParams, hazard=beta, transition=beta, fragility=beta, adaptation=beta)


class TestScenarioPd:
    def test_identity_at_zero_shocks(self):
        assert scenario_pd(0.02, 0.0, 0.0, 0.0, 0.0, BetaParams()) == 0.02

    def test_hand_computed_value(self):
        # exponent = 0.5*1.0 + 0.3*0.5 + 0.2*0.5 - 0.4*1.0 = 0.35
        got = scenario_pd(0.02, 1.0, 0.5, 0.5, 1.0, BetaParams(0.5, 0.3, 0.2, 0.4))
        assert got == pytest.approx(0.02 * math.exp(0.35), rel=1e-12)
        assert got == pytest.approx(0.0283814, abs=5e-8)

    def test_clamp_at_one(self):
        assert scenario_pd(0.5, 3.0, 0.0, 0.0, 0.0, BetaParams(hazard=2.0)) == 1.0

    def test_overflowing_exponent(self):
        # exp(710) overflows a float; the product is formed in log space.
        steep = BetaParams(hazard=1.0)
        assert scenario_pd(0.5, 710.0, 0.0, 0.0, 0.0, steep) == 1.0
        assert scenario_pd(0.0, 710.0, 0.0, 0.0, 0.0, steep) == 0.0
        assert scenario_pd(1e-320, 710.0, 0.0, 0.0, 0.0, steep) == pytest.approx(
            math.exp(710.0 + math.log(1e-320)), rel=1e-9
        )

    def test_infinite_exponent(self):
        # 1e308 * 8.0 is inf, and exp(inf) is inf without an OverflowError.
        steep = BetaParams(hazard=1e308)
        assert scenario_pd(0.5, 8.0, 0.0, 0.0, 0.0, steep) == 1.0
        assert scenario_pd(0.0, 8.0, 0.0, 0.0, 0.0, steep) == 0.0
        both = BetaParams(hazard=1e308, adaptation=1e308)
        for pd0 in (0.0, 0.5):
            with pytest.raises(NonFiniteSum, match="^PD exponent is nan"):
                scenario_pd(pd0, 8.0, 0.0, 0.0, 2.0, both)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            scenario_pd(0.02, -0.1, 0.0, 0.0, 0.0, BetaParams())
        with pytest.raises(DomainError):
            scenario_pd(1.5, 0.0, 0.0, 0.0, 0.0, BetaParams())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(5))
    def test_non_finite_argument_rejected(self, position, bad):
        args = [0.02, 0.1, 0.1, 0.1, 0.1]
        args[position] = bad
        with pytest.raises(DomainError):
            scenario_pd(*args, BetaParams())
        with pytest.raises(DomainError):
            scenario_pd(0.02, 0.1, 0.1, 0.1, 0.1, BetaParams(adaptation=bad))

    @given(unit, shock, shock, shock, shock, betas_strategy)
    @settings(max_examples=300)
    def test_bounds(self, pd0, h, t, u, a, betas):
        assert 0.0 <= scenario_pd(pd0, h, t, u, a, betas) <= 1.0

    @given(unit, shock, shock, shock, shock, shock, betas_strategy)
    @settings(max_examples=300)
    def test_monotone_in_hazard_and_adaptation(self, pd0, h, dh, t, u, a, betas):
        base = scenario_pd(pd0, h, t, u, a, betas)
        assert scenario_pd(pd0, h + dh, t, u, a, betas) >= base
        assert scenario_pd(pd0, h, t + dh, u, a, betas) >= base
        assert scenario_pd(pd0, h, t, u + dh, a, betas) >= base
        assert scenario_pd(pd0, h, t, u, a + dh, betas) <= base

    @given(unit, shock, shock, shock, shock, betas_strategy)
    @settings(max_examples=300)
    def test_multiplicative_below_clamp(self, pd0, h, t, u, a, betas):
        scaled = scenario_pd(1.0, h, t, u, a, betas)
        full = scenario_pd(pd0, h, t, u, a, betas)
        if scaled < 1.0 and full < 1.0:
            assert full == pytest.approx(pd0 * scaled, rel=1e-12)


class TestScenarioLgd:
    def test_identity_at_zero_hazard(self):
        assert scenario_lgd(0.4, 0.0, 0.5) == 0.4

    def test_hand_computed_value(self):
        assert scenario_lgd(0.4, 1.0, 0.5) == pytest.approx(0.6, rel=1e-12)

    def test_clamp(self):
        assert scenario_lgd(0.8, 2.0, 1.0) == 1.0

    def test_zero_baseline_with_an_overflowing_factor(self):
        # gamma * hazard overflows to inf, and 0.0 * inf is NaN.
        assert repr(scenario_lgd(0.0, 2.0, 1e308)) == "0.0"
        assert scenario_lgd(0.5, 2.0, 1e308) == 1.0
        assert repr(scenario_lgd(-0.0, 2.0, 1.0)) == "-0.0"

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            scenario_lgd(0.4, -1.0, 0.5)

    @given(unit, shock, shock)
    def test_bounds(self, lgd0, h, gamma):
        assert 0.0 <= scenario_lgd(lgd0, h, gamma) <= 1.0


class TestExpectedLoss:
    def test_direct_product(self):
        assert expected_loss(0.02, 0.4, 1_000_000.0) == pytest.approx(8_000.0)

    def test_absorbing_zero(self):
        assert expected_loss(0.0, 0.7, 123.0) == 0.0

    def test_identity_factors(self):
        assert expected_loss(1.0, 1.0, 42.5) == 42.5

    def test_bound_violations(self):
        with pytest.raises(DomainError):
            expected_loss(1.1, 0.5, 1.0)
        with pytest.raises(DomainError):
            expected_loss(0.5, -0.1, 1.0)
        with pytest.raises(DomainError):
            expected_loss(0.5, 0.5, -1.0)


    @pytest.mark.parametrize("ead", [math.nan, math.inf])
    def test_non_finite_ead_rejected(self, ead):
        with pytest.raises(DomainError, match="ead must be >= 0 and finite"):
            expected_loss(0.5, 0.5, ead)

    @given(unit, unit, st.floats(min_value=0.0, max_value=1e9))
    def test_el_within_ead(self, pd, lgd, ead):
        assert 0.0 <= expected_loss(pd, lgd, ead) <= ead


@pytest.mark.parametrize("call, message", [
    (lambda: expected_loss(1.5, 0.5, 1.0), "pd must lie in [0,1], got 1.5"),
    (lambda: expected_loss(0.5, math.nan, 1.0), "lgd must lie in [0,1], got nan"),
    (lambda: scenario_pd(0.02, 0.0, 0.0, 0.0, 0.0, BetaParams(fragility=-1.0)),
     "beta_fragility must be >= 0 and finite, got -1.0"),
    (lambda: effective_hazard(  # built in the call: a test elsewhere counts live contexts
        ExposureContext(dict(zip(HazardType, [0.5, math.nan, 0.1, 0.3])), 0.1, Channel.WUI),
        Scenario(id="s", kind=ScenarioKind.COMPOUND)), "hazard must be >= 0 and finite, got nan"),
], ids=["pd", "lgd", "beta", "scaled-hazard"])
def test_domain_error_text(call, message):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == message


class TestPortfolioCredit:
    def test_identity_scenario_reproduces_baseline(self, fixture_linked):
        identity = Scenario(id="noop", kind=ScenarioKind.PHYSICAL_SHOCK)
        rows, total = portfolio_credit(fixture_linked, identity)
        expected_total = 0.0
        for row, inst in zip(rows, fixture_linked.portfolio.instruments):
            assert row.pd_s == inst.pd0
            assert row.lgd_s == inst.lgd0
            expected_total += inst.pd0 * inst.lgd0 * inst.ead
        assert total == pytest.approx(expected_total, rel=1e-12)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_matches_brute_force_oracle(self, fixture_linked, index):
        scenario = builtin_scenarios()[index]
        rows, total = portfolio_credit(fixture_linked, scenario)
        expected = oracle_portfolio(
            INSTRUMENT_DICTS, BASELINE_HAZARDS, FRAGILITY,
            json.loads(serialize_scenario(scenario)),
        )
        for row, exp in zip(rows, expected["rows"]):
            assert row.id == exp["id"]
            assert row.pd_s == pytest.approx(exp["pd_s"], rel=1e-9)
            assert row.lgd_s == pytest.approx(exp["lgd_s"], rel=1e-9)
            assert row.el_s == pytest.approx(exp["el_s"], rel=1e-9)
        assert total == pytest.approx(expected["total_el"], rel=1e-9)

    def test_doubling_ead_doubles_total(self, fixture_linked):
        from conftest import FRAGILITY as frag, make_hazard_field, make_registry
        from geostress import FragilityTable, Instrument, Portfolio, link_exposures

        scenario = builtin_scenarios()[3]
        _, total = portfolio_credit(fixture_linked, scenario)
        doubled_insts = tuple(
            Instrument(**{**d, "ead": 2.0 * d["ead"]}) for d in INSTRUMENT_DICTS
        )
        doubled = link_exposures(
            Portfolio(instruments=doubled_insts),
            make_hazard_field(),
            FragilityTable(entries=dict(frag)),
            make_registry(),
        )
        _, total2 = portfolio_credit(doubled, scenario)
        assert total2 == 2.0 * total

    def test_rows_in_portfolio_order(self, fixture_linked):
        rows, _ = portfolio_credit(fixture_linked, builtin_scenarios()[0])
        assert [r.id for r in rows] == [i.id for i in fixture_linked.portfolio.instruments]

    def test_valuation_parameters_are_neither_read_nor_checked(self, fixture_linked):
        scenario = builtin_scenarios()[3]
        expected = repr(portfolio_credit(fixture_linked, scenario))
        for change in ({"lam": -1.0}, {"financing_tightening": -0.3},
                       {"repricing": Repricing(delta_hazard=0.1, delta_financing=-0.2)}):
            changed = portfolio_credit(fixture_linked, dataclasses.replace(scenario, **change))
            assert repr(changed) == expected
