"""Scenario parsing, canonical serialization, built-ins, composition."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geostress import (
    BetaParams,
    HazardType,
    Repricing,
    Scenario,
    ScenarioKind,
    TransitionMap,
    builtin_scenarios,
    compose_compound,
    parse_scenario,
    serialize_scenario,
)
from geostress.errors import (
    KindMismatch,
    NegativeParameter,
    ScenarioParseError,
    UnknownField,
    UnknownHazardToken,
    UnknownKind,
)

nonneg = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
sector_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
).filter(lambda s: s != "default")


@st.composite
def scenario_strategy(draw):
    return Scenario(
        id=draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=16)),
        kind=draw(st.sampled_from(list(ScenarioKind))),
        hazard_multipliers={h: draw(nonneg) for h in HazardType},
        transition=TransitionMap(
            default=draw(nonneg),
            by_sector=draw(st.dictionaries(sector_names, nonneg, max_size=5)),
        ),
        financing_tightening=draw(nonneg),
        lam=draw(nonneg),
        repricing=Repricing(
            delta_hazard=draw(nonneg),
            delta_transition=draw(nonneg),
            delta_financing=draw(nonneg),
        ),
        lgd_gamma=draw(nonneg),
        betas=BetaParams(
            hazard=draw(nonneg),
            transition=draw(nonneg),
            fragility=draw(nonneg),
            adaptation=draw(nonneg),
        ),
    )


class TestParse:
    def test_minimal_document_fills_identity_defaults(self):
        s = parse_scenario('{"id":"noop","kind":"physical_shock"}')
        assert s.id == "noop"
        assert s.kind is ScenarioKind.PHYSICAL_SHOCK
        assert all(s.hazard_multipliers[h] == 1.0 for h in HazardType)
        assert s.transition.default == 0.0 and s.transition.by_sector == {}
        assert s.financing_tightening == 0.0
        assert s.lam == 0.0
        assert s.repricing == Repricing()
        assert s.lgd_gamma == 0.0
        assert s.betas == BetaParams()

    def test_unknown_hazard_token(self):
        with pytest.raises(UnknownHazardToken):
            parse_scenario('{"id":"x","kind":"physical_shock","hazard_multipliers":{"smog":2.0}}')

    def test_negative_lambda(self):
        with pytest.raises(NegativeParameter, match="lambda"):
            parse_scenario('{"id":"x","kind":"physical_shock","lambda":-1}')

    def test_unknown_top_level_field(self):
        with pytest.raises(UnknownField, match="frobnicate"):
            parse_scenario('{"id":"x","kind":"compound","frobnicate":1}')

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            parse_scenario('{"id":"x","kind":"apocalypse"}')

    @pytest.mark.parametrize("kind", ['["compound"]', '{"compound": 1}', "1", "null"])
    def test_kind_that_is_not_a_string(self, kind):
        with pytest.raises(UnknownKind):
            parse_scenario('{"id":"x","kind":%s}' % kind)

    def test_invalid_json_reports_position(self):
        with pytest.raises(ScenarioParseError, match="line"):
            parse_scenario('{"id": "x",')

    def test_missing_id(self):
        with pytest.raises(ScenarioParseError, match="id"):
            parse_scenario('{"kind":"compound"}')


class TestSerialize:
    def test_round_trip_on_builtins(self):
        for s in builtin_scenarios():
            assert parse_scenario(serialize_scenario(s)) == s

    def test_canonical_bytes_for_equal_scenarios(self):
        a = parse_scenario('{"id":"x","kind":"compound","lambda":0.5}')
        b = parse_scenario('{"lambda":0.5,"kind":"compound","id":"x"}')
        assert serialize_scenario(a) == serialize_scenario(b)

    def test_all_fields_explicit(self):
        doc = json.loads(serialize_scenario(parse_scenario('{"id":"x","kind":"compound"}')))
        assert set(doc) == {
            "id", "kind", "hazard_multipliers", "transition", "financing_tightening",
            "lambda", "repricing", "lgd_gamma", "betas",
        }
        assert set(doc["hazard_multipliers"]) == {"wildfire", "drought", "flood", "heat"}

    @given(scenario_strategy())
    def test_parse_serialize_identity(self, scenario):
        assert parse_scenario(serialize_scenario(scenario)) == scenario


class TestBuiltins:
    def test_kinds_in_order(self):
        kinds = [s.kind for s in builtin_scenarios()]
        assert kinds == [
            ScenarioKind.ORDERLY_TRANSITION,
            ScenarioKind.DISORDERLY_TRANSITION,
            ScenarioKind.PHYSICAL_SHOCK,
            ScenarioKind.COMPOUND,
        ]

    def test_physical_shock_profile(self):
        physical = builtin_scenarios()[2]
        assert physical.kind is ScenarioKind.PHYSICAL_SHOCK
        assert all(m > 1.0 for m in physical.hazard_multipliers.values())
        assert physical.transition.default == 0.0
        assert physical.transition.by_sector == {}

    def test_transition_ordering(self):
        orderly, disorderly = builtin_scenarios()[:2]
        assert 0.0 < orderly.transition.default < disorderly.transition.default
        for sector, value in orderly.transition.by_sector.items():
            assert disorderly.transition.for_sector(sector) > value
        assert orderly.repricing.delta_transition > 0.0
        assert disorderly.repricing.delta_transition > orderly.repricing.delta_transition

    def test_compound_profile(self):
        compound = builtin_scenarios()[3]
        assert compound.financing_tightening > 0.0
        assert any(m > 1.0 for m in compound.hazard_multipliers.values())


class TestCompose:
    def _physical(self, **overrides):
        defaults = dict(id="P", kind=ScenarioKind.PHYSICAL_SHOCK)
        defaults.update(overrides)
        return Scenario(**defaults)

    def _transition(self, **overrides):
        defaults = dict(id="T", kind=ScenarioKind.DISORDERLY_TRANSITION)
        defaults.update(overrides)
        return Scenario(**defaults)

    def test_identity_absorption(self):
        p = self._physical(
            hazard_multipliers={h: 2.0 for h in HazardType},
            lam=0.7,
            lgd_gamma=0.3,
        )
        c = compose_compound(p, self._transition(), 0.0)
        assert c.id == "P+T"
        assert c.kind is ScenarioKind.COMPOUND
        assert c.hazard_multipliers == p.hazard_multipliers
        assert c.lam == p.lam
        assert c.lgd_gamma == p.lgd_gamma
        assert c.financing_tightening == 0.0

    def test_elementwise_max_multipliers(self):
        p = self._physical(
            hazard_multipliers={
                HazardType.WILDFIRE: 3.0,
                HazardType.DROUGHT: 1.0,
                HazardType.FLOOD: 1.0,
                HazardType.HEAT: 1.0,
            }
        )
        t = self._transition(
            hazard_multipliers={
                HazardType.WILDFIRE: 1.0,
                HazardType.DROUGHT: 2.0,
                HazardType.FLOOD: 1.0,
                HazardType.HEAT: 1.0,
            }
        )
        c = compose_compound(p, t, 0.1)
        assert c.hazard_multipliers[HazardType.WILDFIRE] == 3.0
        assert c.hazard_multipliers[HazardType.DROUGHT] == 2.0

    def test_repricing_and_betas_are_fieldwise_max(self):
        p = self._physical(repricing=Repricing(0.1, 0.5, 0.0), betas=BetaParams(0.3, 0.0, 0.9, 0.2))
        t = self._transition(repricing=Repricing(0.4, 0.2, 0.3), betas=BetaParams(0.1, 0.6, 0.0, 0.2))
        c = compose_compound(p, t, 0.0)
        assert (c.repricing, c.betas) == (Repricing(0.4, 0.5, 0.3), BetaParams(0.3, 0.6, 0.9, 0.2))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            compose_compound(self._transition(), self._transition(id="T2"), 0.1)
        with pytest.raises(KindMismatch):
            compose_compound(self._physical(), self._physical(id="P2"), 0.1)

    def test_transition_default_interacts_with_sector_max(self):
        p = self._physical(transition=TransitionMap(default=0.4))
        t = self._transition(transition=TransitionMap(default=0.1, by_sector={"ag": 0.2}))
        c = compose_compound(p, t, 0.0)
        assert c.transition.default == 0.4
        assert c.transition.for_sector("ag") == 0.4  # physical default dominates

    @given(scenario_strategy(), scenario_strategy(), nonneg)
    def test_monotone_dominance(self, a, b, financing):
        import dataclasses
        p = dataclasses.replace(a, kind=ScenarioKind.PHYSICAL_SHOCK)
        t = dataclasses.replace(b, kind=ScenarioKind.ORDERLY_TRANSITION)
        c = compose_compound(p, t, financing)
        for inp in (p, t):
            for h in HazardType:
                assert c.hazard_multipliers[h] >= inp.hazard_multipliers[h]
            assert c.transition.default >= inp.transition.default
            for sector in inp.transition.by_sector:
                assert c.transition.for_sector(sector) >= inp.transition.for_sector(sector)
            assert c.lam >= inp.lam
            assert c.lgd_gamma >= inp.lgd_gamma
            assert c.repricing.delta_hazard >= inp.repricing.delta_hazard
            assert c.repricing.delta_transition >= inp.repricing.delta_transition
            assert c.repricing.delta_financing >= inp.repricing.delta_financing
            assert c.betas.hazard >= inp.betas.hazard
            assert c.betas.adaptation >= inp.betas.adaptation

    def test_commutative_in_magnitudes(self):
        p = self._physical(lam=0.2, lgd_gamma=0.5)
        t = self._transition(lam=0.9, lgd_gamma=0.1)
        p_swapped = self._physical(lam=0.9, lgd_gamma=0.1)
        t_swapped = self._transition(lam=0.2, lgd_gamma=0.5)
        c1 = compose_compound(p, t, 0.3)
        c2 = compose_compound(p_swapped, t_swapped, 0.3)
        assert c1 == c2
