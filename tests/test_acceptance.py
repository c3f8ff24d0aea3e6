"""Acceptance suite: one test per release criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); tolerances are pinned in the assertions.
"""

import dataclasses
import json
import random
import time

import pytest

from conftest import (
    BASELINE_HAZARDS,
    FRAGILITY,
    GEO_CHANNELS,
    INSTRUMENT_DICTS,
    fragility_csv,
    geounits_csv,
    hazards_csv,
    make_hazard_field,
    make_registry,
    portfolio_csv,
)
from geostress import (
    BetaParams,
    FragilityTable,
    HazardType,
    Instrument,
    Portfolio,
    Scenario,
    ScenarioKind,
    ScenarioKind as Kind,
    builtin_scenarios,
    climate_var,
    concentration_comparison,
    group_el,
    link_exposures,
    parse_scenario,
    portfolio_credit,
    portfolio_valuation,
    run_scenario,
    scenario_pd,
    serialize_scenario,
)
from geostress.cli import main
from oracle import oracle_portfolio


def _fixture_linked():
    return link_exposures(
        Portfolio(instruments=tuple(Instrument(**d) for d in INSTRUMENT_DICTS)),
        make_hazard_field(),
        FragilityTable(entries=dict(FRAGILITY)),
        make_registry(),
    )


def test_criterion_1_pd_identity():
    """All-zero shocks and betas reproduce pd0 to <= 1e-12 absolute."""
    start = time.perf_counter()
    rng = random.Random(1)
    zero = BetaParams()
    for _ in range(1000):
        pd0 = rng.random()
        assert abs(scenario_pd(pd0, 0.0, 0.0, 0.0, 0.0, zero) - pd0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: PD identity on 1000 draws ({elapsed:.3f}s)")


def test_criterion_2_pd_monotonicity_and_clamp():
    """10,000 random draws: monotone in H/T/U, antitone in A, in [0,1]."""
    start = time.perf_counter()
    rng = random.Random(2)
    for _ in range(10_000):
        pd0 = rng.random()
        h, t, u, a = (rng.uniform(0.0, 5.0) for _ in range(4))
        betas = BetaParams(*(rng.uniform(0.0, 2.0) for _ in range(4)))
        base = scenario_pd(pd0, h, t, u, a, betas)
        assert 0.0 <= base <= 1.0
        step = rng.uniform(0.0, 2.0)
        assert scenario_pd(pd0, h + step, t, u, a, betas) >= base
        assert scenario_pd(pd0, h, t + step, u, a, betas) >= base
        assert scenario_pd(pd0, h, t, u + step, a, betas) >= base
        assert scenario_pd(pd0, h, t, u, a + step, betas) <= base
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: PD monotonicity/clamp on 10000 draws ({elapsed:.3f}s)")


def test_criterion_3_oracle_equivalence():
    """Fixture portfolio matches the brute-force oracle under all builtins."""
    start = time.perf_counter()
    linked = _fixture_linked()
    for scenario in builtin_scenarios():
        result, _ = run_scenario(linked, scenario)
        expected = oracle_portfolio(
            INSTRUMENT_DICTS, BASELINE_HAZARDS, FRAGILITY,
            json.loads(serialize_scenario(scenario)),
        )
        for row, exp in zip(result.rows, expected["rows"]):
            assert row.id == exp["id"]
            assert row.pd_s == pytest.approx(exp["pd_s"], rel=1e-9)
            assert row.lgd_s == pytest.approx(exp["lgd_s"], rel=1e-9)
            assert row.el_s == pytest.approx(exp["el_s"], rel=1e-9)
            assert row.dv_s == pytest.approx(exp["dv_s"], rel=1e-9, abs=1e-12)
        assert result.total_el == pytest.approx(expected["total_el"], rel=1e-9)
        assert result.climate_var == pytest.approx(expected["climate_var"], rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: oracle equivalence, 4 builtins x 10 rows ({elapsed:.3f}s)")


def test_criterion_4_lambda_linearity():
    """climate_var(lambda) - climate_var(0) = lambda * sum(EL), <= 1e-12 rel."""
    start = time.perf_counter()
    linked = _fixture_linked()
    for scenario in builtin_scenarios():
        credit_rows, total_el = portfolio_credit(linked, scenario)
        for lam in (0.25, 0.5, 1.0, 2.0):
            shifted = dataclasses.replace(scenario, lam=lam)
            at_zero = dataclasses.replace(scenario, lam=0.0)
            _, cv_lam = portfolio_valuation(linked, shifted, credit_rows)
            _, cv_zero = portfolio_valuation(linked, at_zero, credit_rows)
            assert cv_lam - cv_zero == pytest.approx(lam * total_el, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 4: lambda linearity ({elapsed:.3f}s)")


def test_criterion_5_builtin_coverage():
    """Four builtin kinds in order; compound tightens financing; round-trips."""
    start = time.perf_counter()
    builtins = builtin_scenarios()
    assert [s.kind for s in builtins] == [
        Kind.ORDERLY_TRANSITION,
        Kind.DISORDERLY_TRANSITION,
        Kind.PHYSICAL_SHOCK,
        Kind.COMPOUND,
    ]
    assert builtins[3].financing_tightening > 0.0
    for s in builtins:
        assert parse_scenario(serialize_scenario(s)) == s
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 5: builtin coverage and round-trip ({elapsed:.3f}s)")


def _equal_ead_pair():
    base = dict(sector="retail", pd0=0.03, lgd0=0.5, adaptation=0.0)
    concentrated = [
        {"id": f"c{k}", "geo_id": "g1", "ead": 250_000.0, "value": 250_000.0, **base}
        for k in range(4)
    ]
    diversified = [
        {"id": f"d{k}", "geo_id": f"g{k+1}", "ead": 250_000.0, "value": 250_000.0, **base}
        for k in range(4)
    ]
    link = lambda dicts: link_exposures(
        Portfolio(instruments=tuple(Instrument(**d) for d in dicts)),
        make_hazard_field(),
        FragilityTable(entries=dict(FRAGILITY)),
        make_registry(),
    )
    return link(concentrated), link(diversified)


def test_criterion_6_concentration_penalty():
    """Shock on the concentration geo: ratio > 1; identity scenario: 1.0."""
    start = time.perf_counter()
    concentrated, diversified = _equal_ead_pair()
    shock = Scenario(
        id="g1-wildfire",
        kind=ScenarioKind.PHYSICAL_SHOCK,
        hazard_multipliers={HazardType.WILDFIRE: 4.0},
        betas=BetaParams(hazard=0.35, transition=0.45, fragility=0.25, adaptation=0.20),
    )
    result_c, _ = run_scenario(concentrated, shock)
    result_d, _ = run_scenario(diversified, shock)
    assert concentration_comparison(result_c, result_d) > 1.0

    identity = Scenario(id="noop", kind=ScenarioKind.PHYSICAL_SHOCK)
    result_c0, _ = run_scenario(concentrated, identity)
    result_d0, _ = run_scenario(diversified, identity)
    assert concentration_comparison(result_c0, result_d0) == pytest.approx(1.0, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 6: concentration penalty ({elapsed:.3f}s)")


def test_criterion_7_conservation_and_hhi_bounds():
    """Group sums preserve total EL; every HHI lies in [1/n, 1]."""
    linked = _fixture_linked()
    for scenario in builtin_scenarios():
        result, report = run_scenario(linked, scenario)
        for key in ("geo", "sector", "channel"):
            rows, total = portfolio_credit(linked, scenario)
            groups = group_el(rows, linked, key)
            assert sum(groups.values()) == pytest.approx(total, rel=1e-9)
        for value, n in (
            (report.hhi_geo, len(report.el_by_geo)),
            (report.hhi_sector, len(report.el_by_sector)),
            (report.hhi_channel, len(report.el_by_hazard_channel)),
        ):
            assert 1.0 / n - 1e-12 <= value <= 1.0 + 1e-12
    print("\nPASS criterion 7: conservation and HHI bounds")


def _synthetic_inputs(n_instruments, n_geos=50):
    rng = random.Random(42)
    sectors = ["agriculture", "real_estate", "tourism", "retail", "utilities"]
    channels = list(GEO_CHANNELS.values())
    geo_ids = [f"s{k:03d}" for k in range(n_geos)]
    hazards = {
        geo: {h: rng.random() for h in ("wildfire", "drought", "flood", "heat")}
        for geo in geo_ids
    }
    fragility = {geo: rng.random() for geo in geo_ids}
    instruments = [
        Instrument(
            id=f"n{k:06d}",
            geo_id=geo_ids[k % n_geos],
            sector=sectors[k % len(sectors)],
            ead=rng.uniform(1e4, 1e7),
            pd0=rng.uniform(0.001, 0.2),
            lgd0=rng.uniform(0.1, 0.9),
            value=rng.uniform(1e4, 1e7),
            adaptation=rng.uniform(0.0, 1.0),
        )
        for k in range(n_instruments)
    ]
    from geostress import Channel, GeoUnit, HazardField

    field = HazardField(
        entries={
            (geo, HazardType(token)): x
            for geo, per in hazards.items()
            for token, x in per.items()
        }
    )
    registry = [
        GeoUnit(id=geo, name=geo, channel=Channel(channels[k % len(channels)]))
        for k, geo in enumerate(geo_ids)
    ]
    return Portfolio(instruments=tuple(instruments)), field, FragilityTable(entries=fragility), registry


def test_criterion_8_determinism_and_scale(tmp_path):
    """Byte-identical reruns; 100k instruments x 4 scenarios under 10 s."""
    # Determinism through the CLI.
    paths = {}
    for name, data in [
        ("portfolio.csv", portfolio_csv()),
        ("hazards.csv", hazards_csv()),
        ("fragility.csv", fragility_csv()),
        ("geounits.csv", geounits_csv()),
    ]:
        path = tmp_path / name
        path.write_bytes(data)
        paths[name.split(".")[0]] = str(path)
    outputs = []
    for out_name in ("r1.json", "r2.json"):
        out = tmp_path / out_name
        code = main(
            [
                "run",
                "--portfolio", paths["portfolio"],
                "--hazards", paths["hazards"],
                "--fragility", paths["fragility"],
                "--geounits", paths["geounits"],
                "--builtin", "all",
                "--out", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    # Scale: link once, evaluate the four builtins.
    portfolio, field, fragility, registry = _synthetic_inputs(100_000)
    start = time.perf_counter()
    linked = link_exposures(portfolio, field, fragility, registry)
    for scenario in builtin_scenarios():
        result, _ = run_scenario(linked, scenario)
        assert len(result.rows) == 100_000
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nPASS criterion 8: byte-identical reruns; 100k x 4 scenarios in {elapsed:.2f}s"
    )
