"""Linked geo contexts held as columns: the same results as hand-built
contexts, no ``ExposureContext`` built on the engine's path, and the
checks a hand-built context still gets."""

import contextlib
import dataclasses
import gc
import io

import pytest

from geostress import (
    ExposureContext,
    HazardType,
    builtin_scenarios,
    cli,
    link_exposures,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
    run_scenario,
)
from geostress.errors import DomainError
from geostress.ingest import ContextColumns
from geostress.model import HAZARD_TYPES
from test_golden import INPUTS, gen
from test_pipeline import _mixed_linked, _outcome, _scenarios, _with_context

# Each workload's shape at a small N: (instruments, geo units, sectors).
SHAPES = {"dense": (1200, 4, 5), "sparse": (1200, 600, 1000)}


def _generated(directory, shape):
    n, geos, sectors = SHAPES[shape]
    return gen.generate(str(directory), 5, n, geos, sectors)["paths"]


def _load_linked(paths):
    loaders = (load_portfolio, load_hazard_table, load_fragility, load_geounits)
    inputs = []
    for name, load in zip(INPUTS, loaders):
        with open(paths[name], "rb") as source:
            inputs.append(load(source))
    return link_exposures(*inputs)


@pytest.mark.parametrize("shape", SHAPES)
def test_column_held_contexts_match_hand_built_ones(tmp_path, shape):
    linked = _load_linked(_generated(tmp_path, shape))
    scenarios = _scenarios()
    assert {s.id for s in builtin_scenarios()} <= {s.id for s in scenarios}
    held = [_outcome(lambda: run_scenario(linked, s, top_k=7)) for s in scenarios]
    assert type(vars(linked)["contexts"]) is ContextColumns  # the runs read only columns
    hand_built = dataclasses.replace(linked, contexts=tuple(linked.contexts))
    assert type(vars(hand_built)["contexts"]) is ContextColumns  # rows are stored as columns
    assert hand_built.codes.contexts == linked.codes.contexts
    assert [_outcome(lambda: run_scenario(hand_built, s, top_k=7)) for s in scenarios] == held


def _live_contexts_and_hazard_dicts():
    """Live ``ExposureContext`` objects, and dicts keyed by every hazard type:
    a context's baseline, or a scenario's multipliers."""
    gc.collect()
    objects = gc.get_objects()
    return (sum(type(o) is ExposureContext for o in objects),
            sum(type(o) is dict and set(o) == set(HazardType) for o in objects))


def test_the_engine_builds_no_context_object(tmp_path):
    paths = _generated(tmp_path, "sparse")
    scenarios = builtin_scenarios()
    before = _live_contexts_and_hazard_dicts()  # other modules' objects are not counted
    linked = _load_linked(paths)
    for scenario in scenarios:
        run_scenario(linked, scenario)
    assert _live_contexts_and_hazard_dicts() == before
    assert type(vars(linked)["contexts"]) is ContextColumns
    # A read still builds one context per geo unit, shared by its rows.
    contexts, geos = linked.contexts, SHAPES["sparse"][1]
    assert len(contexts) == len(linked.codes.columns.id) == 2 * geos  # rows take geo units in turn
    assert len(set(map(id, contexts))) == len(linked.codes.columns.geo_ids) == geos
    assert all(contexts[k] is contexts[k + geos] for k in range(geos))


def test_stress_run_and_validate_build_no_context_object(tmp_path, monkeypatch):
    paths = _generated(tmp_path, "sparse")
    built = []
    init = ExposureContext.__init__
    monkeypatch.setattr(ExposureContext, "__init__",
                        lambda self, *args: built.append(init(self, *args)))
    flags = [flag for name in INPUTS for flag in (f"--{name}", paths[name])]
    out = str(tmp_path / "report.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["validate", *flags]) == 0
        assert cli.main(["run", *flags, "--builtin", "all", "--format", "csv", "--out", out]) == 0
    assert built == []
    _load_linked(paths).contexts  # the counter works
    assert len(built) == SHAPES["sparse"][1]


@pytest.mark.parametrize("missing", [[h] for h in HAZARD_TYPES] + [list(HAZARD_TYPES[1:])])
def test_a_hand_built_context_without_a_hazard_type_fails_at_codes_time(missing):
    baseline = {h: 0.1 for h in HAZARD_TYPES if h not in missing}
    linked = _with_context(_mixed_linked(), 60, baseline_hazards=baseline)
    with pytest.raises(DomainError) as raised:
        linked.codes
    assert str(raised.value) == (
        f"an exposure context needs all four baseline hazards, got none for {missing[0].value}"
    )
    assert _outcome(lambda: run_scenario(linked, builtin_scenarios()[3])) == (
        f"DomainError: {raised.value}"
    )
