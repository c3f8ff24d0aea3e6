"""Valuation transmission: repricing and the scenario stress metric."""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASELINE_HAZARDS, FRAGILITY, INSTRUMENT_DICTS
from geostress import (
    Repricing,
    Scenario,
    ScenarioKind,
    builtin_scenarios,
    climate_var,
    portfolio_credit,
    portfolio_valuation,
    repricing_delta,
    serialize_scenario,
)
from geostress.errors import (
    DomainError,
    InvalidWeights,
    LengthMismatch,
    Misalignment,
    NonFiniteSum,
)
from oracle import oracle_portfolio

shock = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


class TestRepricingDelta:
    def test_identity_at_zero(self):
        assert repricing_delta(100.0, 0.0, 0.0, 0.0, Repricing()) == 0.0

    def test_hand_computed(self):
        assert repricing_delta(100.0, 1.0, 0.0, 0.0, Repricing(delta_hazard=0.1)) == pytest.approx(-10.0)

    def test_floor_at_total_value(self):
        assert repricing_delta(100.0, 5.0, 0.0, 0.0, Repricing(delta_hazard=1.0)) == -100.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            repricing_delta(-1.0, 0.0, 0.0, 0.0, Repricing())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        for position in range(4):
            args = [100.0, 0.1, 0.1, 0.1]
            args[position] = bad
            with pytest.raises(DomainError):
                repricing_delta(*args, Repricing())
        with pytest.raises(DomainError):
            repricing_delta(100.0, 0.1, 0.1, 0.1, Repricing(delta_transition=bad))

    @given(shock, shock, shock, shock, shock, shock, shock)
    @settings(max_examples=300)
    def test_bounded_and_monotone(self, value, h, t, f, dh, dt, df):
        params = Repricing(delta_hazard=dh, delta_transition=dt, delta_financing=df)
        dv = repricing_delta(value, h, t, f, params)
        assert -value <= dv <= 0.0
        assert repricing_delta(value, h + 1.0, t, f, params) <= dv
        assert repricing_delta(value, h, t + 1.0, f, params) <= dv
        assert repricing_delta(value, h, t, f + 1.0, params) <= dv


class TestClimateVar:
    def test_null_metric(self):
        assert climate_var([0.5, 0.5], [0.0, 0.0], [1.0, 2.0], 0.0) == 0.0

    def test_hand_summed(self):
        got = climate_var([0.6, 0.4], [-10.0, -5.0], [2.0, 3.0], 0.5)
        assert got == pytest.approx(-8.0 + 2.5, rel=1e-12)

    def test_single_instrument(self):
        assert climate_var([1.0], [-7.0], [4.0], 1.0) == pytest.approx(-3.0, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            ([1.0], [-7.0], [4.0], math.nan),
            ([1.0], [-7.0], [4.0], math.inf),
            ([1.0], [math.nan], [4.0], 1.0),
            ([1.0], [-math.inf], [4.0], 1.0),
            ([1.0], [-7.0], [math.nan], 1.0),
            ([1.0], [-7.0], [math.inf], 1.0),
        ],
        ids=["lambda-nan", "lambda-inf", "dv-nan", "dv-inf", "el-nan", "el-inf"],
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError):
            climate_var(*args)

    @pytest.mark.parametrize(
        "args, name",
        [
            (([1.0], [-1.0], [10.0], 1e308), "climate_var is inf"),
            (([0.5, 0.5], [-1.0, -1.0], [1e308, 1e308], 0.0), "total_el is inf"),
        ],
        ids=["metric", "total-el"],
    )
    def test_overflow_raises_non_finite_sum(self, args, name):
        # The kernel's check and message: finite inputs, a sum that overflows.
        with pytest.raises(NonFiniteSum, match=f"^{name}: a sum of finite inputs overflowed$"):
            climate_var(*args)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(InvalidWeights):
            climate_var([0.5, weight], [-7.0, -1.0], [4.0, 1.0], 1.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            climate_var([1.0], [-7.0, 0.0], [4.0], 1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=10),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_lambda_linearity(self, raw_weights, lam):
        total = sum(raw_weights)
        weights = [w / total for w in raw_weights]
        rng = random.Random(7)
        dvs = [-rng.uniform(0.0, 50.0) for _ in weights]
        els = [rng.uniform(0.0, 20.0) for _ in weights]
        base = climate_var(weights, dvs, els, 0.0)
        shifted = climate_var(weights, dvs, els, lam)
        assert shifted - base == pytest.approx(lam * sum(els), rel=1e-12, abs=1e-12)
        assert shifted >= base  # monotone nondecreasing in lambda


class TestPortfolioValuation:
    def test_identity_scenario(self, fixture_linked):
        identity = Scenario(id="noop", kind=ScenarioKind.PHYSICAL_SHOCK)
        credit_rows, _ = portfolio_credit(fixture_linked, identity)
        rows, metric = portfolio_valuation(fixture_linked, identity, credit_rows)
        assert all(r.dv_s == 0.0 for r in rows)
        assert metric == 0.0  # lambda defaults to 0 on the identity scenario

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_matches_brute_force_oracle(self, fixture_linked, index):
        scenario = builtin_scenarios()[index]
        credit_rows, _ = portfolio_credit(fixture_linked, scenario)
        rows, metric = portfolio_valuation(fixture_linked, scenario, credit_rows)
        expected = oracle_portfolio(
            INSTRUMENT_DICTS, BASELINE_HAZARDS, FRAGILITY,
            json.loads(serialize_scenario(scenario)),
        )
        for row, exp in zip(rows, expected["rows"]):
            assert row.id == exp["id"]
            assert row.dv_s == pytest.approx(exp["dv_s"], rel=1e-9, abs=1e-12)
        assert metric == pytest.approx(expected["climate_var"], rel=1e-9)

    def test_lambda_zero_ignores_el(self, fixture_linked):
        import dataclasses
        scenario = dataclasses.replace(builtin_scenarios()[1], lam=0.0)
        credit_rows, _ = portfolio_credit(fixture_linked, scenario)
        _, metric = portfolio_valuation(fixture_linked, scenario, credit_rows)
        scaled_rows = [r._replace(el_s=r.el_s * 10.0) for r in credit_rows]
        _, metric2 = portfolio_valuation(fixture_linked, scenario, scaled_rows)
        assert metric == metric2

    def test_misalignment_rejected(self, fixture_linked):
        scenario = builtin_scenarios()[0]
        credit_rows, _ = portfolio_credit(fixture_linked, scenario)
        with pytest.raises(Misalignment):
            portfolio_valuation(fixture_linked, scenario, list(reversed(credit_rows)))

    def test_permutation_invariance(self, fixture_linked):
        from conftest import FRAGILITY as frag, make_hazard_field, make_registry
        from geostress import FragilityTable, Instrument, Portfolio, link_exposures

        scenario = builtin_scenarios()[3]
        credit_rows, _ = portfolio_credit(fixture_linked, scenario)
        _, metric = portfolio_valuation(fixture_linked, scenario, credit_rows)

        permuted_dicts = list(reversed(INSTRUMENT_DICTS))
        permuted = link_exposures(
            Portfolio(instruments=tuple(Instrument(**d) for d in permuted_dicts)),
            make_hazard_field(),
            FragilityTable(entries=dict(frag)),
            make_registry(),
        )
        credit_rows_p, _ = portfolio_credit(permuted, scenario)
        _, metric_p = portfolio_valuation(permuted, scenario, credit_rows_p)
        assert metric_p == pytest.approx(metric, rel=1e-9)
