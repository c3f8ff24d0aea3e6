"""Domain type validation and weight normalization."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geostress import Instrument, Portfolio, normalize_weights, validate_portfolio
from geostress.errors import InvalidWeights, ZeroTotalValue
from geostress.model import ordered_sum


def inst(id="a", value=100.0, **overrides):
    base = dict(
        id=id, geo_id="g1", sector="retail", ead=100.0, pd0=0.02, lgd0=0.4,
        value=value, adaptation=0.0,
    )
    base.update(overrides)
    return Instrument(**base)


class TestNormalizeWeights:
    def test_proportional_shares(self):
        p = Portfolio(instruments=(inst("a", 100.0), inst("b", 300.0)))
        assert normalize_weights(p).weights == (0.25, 0.75)

    def test_single_instrument(self):
        p = Portfolio(instruments=(inst("a", 42.0),))
        assert normalize_weights(p).weights == (1.0,)

    def test_all_zero_values_rejected(self):
        p = Portfolio(instruments=(inst("a", 0.0), inst("b", 0.0)))
        with pytest.raises(ZeroTotalValue):
            normalize_weights(p)

    def test_provided_weights_kept(self):
        p = Portfolio(instruments=(inst("a"), inst("b")), weights=(0.9, 0.1))
        assert normalize_weights(p) is p

    def test_bad_provided_weights_rejected(self):
        p = Portfolio(instruments=(inst("a"), inst("b")), weights=(0.9, 0.3))
        with pytest.raises(InvalidWeights):
            normalize_weights(p)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=20))
    def test_idempotent_and_normalized(self, values):
        p = Portfolio(
            instruments=tuple(inst(f"i{k}", value=v) for k, v in enumerate(values))
        )
        if sum(values) <= 0.0:
            with pytest.raises(ZeroTotalValue):
                normalize_weights(p)
            return
        once = normalize_weights(p)
        twice = normalize_weights(once)
        assert once == twice
        assert abs(sum(once.weights) - 1.0) <= 1e-9
        assert all(w >= 0.0 for w in once.weights)


class TestValidatePortfolio:
    def test_clean_portfolio(self):
        p = Portfolio(instruments=(inst("a"), inst("b"), inst("c")))
        assert validate_portfolio(p) == []

    def test_pd0_out_of_bounds(self):
        p = Portfolio(instruments=(inst("a"), inst("bad", pd0=1.5)))
        violations = validate_portfolio(p)
        assert len(violations) == 1
        assert violations[0].instrument_id == "bad"
        assert violations[0].field == "pd0"
        assert "[0,1]" in violations[0].rule

    def test_duplicate_id(self):
        p = Portfolio(instruments=(inst("X"), inst("X")))
        violations = validate_portfolio(p)
        assert len(violations) == 1
        assert violations[0].instrument_id == "X"
        assert "unique" in violations[0].rule

    def test_empty_portfolio(self):
        assert validate_portfolio(Portfolio(instruments=())) != []

    @pytest.mark.parametrize("field", ["ead", "value", "adaptation"])
    def test_negative_quantities(self, field):
        p = Portfolio(instruments=(inst("a", **{field: -1.0}),))
        violations = validate_portfolio(p)
        assert [v.field for v in violations] == [field]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["ead", "value", "adaptation"])
    def test_non_finite_quantities(self, field, bad):
        p = Portfolio(instruments=(inst("a", **{field: bad}),))
        assert [v.field for v in validate_portfolio(p)] == [field]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight(self, bad):
        p = Portfolio(instruments=(inst("a"), inst("b")), weights=(1.0, bad))
        assert [v.field for v in validate_portfolio(p)] == ["weights"]
        with pytest.raises(InvalidWeights):
            normalize_weights(p)

    def test_weight_sum_checked(self):
        p = Portfolio(instruments=(inst("a"), inst("b")), weights=(0.7, 0.7))
        assert any(v.field == "weights" for v in validate_portfolio(p))


def test_ordered_sum_adds_left_to_right():
    # A compensated sum, such as Python 3.12's builtin sum, gives 1.0000000000000002.
    assert ordered_sum([1.0, 1e-16, 1e-16]) == 1.0
    assert ordered_sum([]) == 0.0


def test_instruments_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst("a").ead = 5.0
