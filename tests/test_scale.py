"""The kernel against the brute-force oracle on a large, sparse portfolio:
about two instruments per geo unit and 1,000 sectors, so the kernel's
per-context and per-sector tables are as large as they get."""

import dataclasses
import json
import random

import pytest

from geostress import (
    Channel,
    FragilityTable,
    GeoUnit,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    builtin_scenarios,
    link_exposures,
    run_scenario,
    serialize_scenario,
)
from oracle import oracle_instrument

N = 100_000
GEOS = N // 2
# The sectors the built-in transition maps name come first.
SECTORS = ["agriculture", "real_estate", "tourism", "retail", "utilities"]
SECTORS += [f"sector{k:04d}" for k in range(len(SECTORS), 1_000)]
HAZARDS = list(HazardType)


def _sparse_inputs(seed):
    rng = random.Random(seed)
    draw = rng.random
    geo_ids = [f"g{k:06d}" for k in range(GEOS)]
    hazards = HazardField(entries={(geo, h): draw() for geo in geo_ids for h in HAZARDS})
    fragility = {geo: draw() for geo in geo_ids}
    sectors = rng.choices(SECTORS, k=N)
    instruments = tuple(
        Instrument(
            id=f"n{k:06d}",
            geo_id=geo_ids[k % GEOS],
            sector=sectors[k],
            ead=1e4 + 1e7 * draw(),
            pd0=0.001 + 0.2 * draw(),
            lgd0=0.1 + 0.8 * draw(),
            value=1e4 + 1e7 * draw(),
            adaptation=draw(),
        )
        for k in range(N)
    )
    channels = list(Channel)
    linked = link_exposures(
        Portfolio(instruments=instruments),
        hazards,
        FragilityTable(entries=fragility),
        [GeoUnit(geo, geo, channels[k % len(channels)]) for k, geo in enumerate(geo_ids)],
    )
    return linked, hazards, fragility


def test_oracle_agrees_on_a_sample_of_a_large_sparse_portfolio():
    linked, hazards, fragility = _sparse_inputs(seed=7)
    codes = linked.codes
    assert (len(codes.contexts.fragility), len(codes.columns.sectors)) == (GEOS, len(SECTORS))
    sample = sorted(random.Random(11).sample(range(N), N // 100))
    for scenario in builtin_scenarios():
        result, _ = run_scenario(linked, scenario)
        doc = json.loads(serialize_scenario(scenario))
        for k in sample:
            inst = linked.portfolio.instruments[k]
            expected = oracle_instrument(
                dataclasses.asdict(inst),
                {h.value: hazards.entries[inst.geo_id, h] for h in HAZARDS},
                fragility[inst.geo_id],
                doc,
            )
            row = result.rows[k]
            assert row.id == expected["id"]
            for name in ("pd_s", "lgd_s", "el_s", "dv_s"):
                assert getattr(row, name) == pytest.approx(expected[name], rel=1e-9), name
        del result
