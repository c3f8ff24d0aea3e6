"""Library-mode worker for the sweep_lib workload: link once, evaluate many.

    python3 perfbench/sweep.py CONFIG.json

``run.py`` writes CONFIG.json and starts this script as one fresh child,
so the child's peak RSS belongs to this measurement alone. Each iteration
loads and links the inputs (timed as set-up), parses the scenario files,
then calls ``run_scenario`` once per scenario (timed as the run). Without
tracing, the reference loop (``reference.py``) also runs before the first
set-up, between each set-up and its run, and after each run. With
tracing on, iterations alternate between untraced and traced. The last
iteration's results are checked against the formulas, and every
iteration must give the same results bit for bit. The result JSON goes to
the config's ``out`` path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from array import array
from contextlib import nullcontext

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
from reference import reference_seconds  # noqa: E402
from tracing import Tracer, layer_metrics, new_imports  # noqa: E402

COLUMNS = ("pd_s", "lgd_s", "el_s", "dv_s")
GROUP_FIELDS = ("el_by_geo", "el_by_sector", "el_by_hazard_channel",
                "hhi_geo", "hhi_sector", "hhi_channel")


def _load_and_link(ingest, paths: dict[str, str]):
    loaded = {}
    for name, loader in (("portfolio", ingest.load_portfolio),
                         ("hazards", ingest.load_hazard_table),
                         ("fragility", ingest.load_fragility),
                         ("geounits", ingest.load_geounits)):
        with open(paths[name], "rb") as fh:
            loaded[name] = loader(fh, filename=paths[name])
    return ingest.link_exposures(loaded["portfolio"], loaded["hazards"],
                                 loaded["fragility"], loaded["geounits"])


def _columns(result, report) -> dict:
    """What the checks need from one result, so the result itself can go."""
    rows = result.rows
    groups = {f: getattr(report, f) for f in GROUP_FIELDS}
    groups["top_contributors"] = [{"id": c.id} for c in report.top_contributors]
    return {"scenario_id": result.scenario_id, "ids": [r.id for r in rows],
            "values": {c: array("d", [getattr(r, c) for r in rows]) for c in COLUMNS},
            "total_el": result.total_el, "climate_var": result.climate_var,
            "groups": groups}


def _digest(out: dict) -> str:
    h = hashlib.sha256(out["scenario_id"].encode())
    h.update("\n".join(out["ids"]).encode())
    for column in COLUMNS:
        h.update(out["values"][column].tobytes())
    h.update(array("d", [out["total_el"], out["climate_var"]]).tobytes())
    h.update(repr(sorted(out["groups"].items())).encode())
    return h.hexdigest()


def _iteration(ingest, scenarios_mod, pipeline, paths, texts, loops):
    """One load-and-link and one pass over the scenarios. Unless ``loops``
    is None, the reference loop runs between the two and after the pass,
    and its times are appended to ``loops``."""
    clock = time.perf_counter
    start = clock()
    linked = _load_and_link(ingest, paths)
    setup = clock() - start
    scenarios = [scenarios_mod.parse_scenario(text) for text in texts]
    if loops is not None:
        loops.append(reference_seconds())
    run = 0.0
    outputs = []
    for scenario in scenarios:
        start = clock()
        result, report = pipeline.run_scenario(linked, scenario)
        run += clock() - start
        outputs.append(_columns(result, report))
        del result, report
    if loops is not None:
        loops.append(reference_seconds())
    return setup, run, outputs


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        config = json.load(fh)
    before = set(sys.modules)
    from geostress import ingest, pipeline
    from geostress import scenarios as scenarios_mod

    texts = []
    for path in config["scenario_paths"]:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    per_iteration = 1 + len(texts)  # one load-and-link plus one evaluation per scenario
    out = {"setup_s": [], "setup_loop_s": [], "run_s": [], "run_loop_s": [],
           "traced_run_s": [], "layers": [], "spans": [], "attempted": 0, "failed": 0,
           "failures": [], "absent": []}
    # Reference loop times, each shared by the samples on either side of it.
    loops = None if config["trace"] else [reference_seconds()]
    deadline = time.perf_counter() + config["seconds"]
    first_digests = None
    outputs = None
    iteration = 0
    while iteration < config["min_iterations"] or time.perf_counter() < deadline:
        traced = config["trace"] and iteration % 2 == 1
        tracer = Tracer() if traced else None
        out["attempted"] += per_iteration
        try:
            with tracer or nullcontext():
                setup, run, outputs = _iteration(ingest, scenarios_mod, pipeline,
                                                 config["paths"], texts, loops)
        except Exception as exc:  # the engine failed: count it and stop measuring
            out["failed"] += per_iteration
            out["failures"].append(f"iteration {iteration}: {type(exc).__name__}: {exc}")
            break
        digests = [_digest(o) for o in outputs]
        if first_digests is None:
            first_digests = digests
        mismatched = sum(a != b for a, b in zip(digests, first_digests))
        if mismatched:
            out["failed"] += mismatched
            out["failures"].append(f"iteration {iteration}: {mismatched} results changed")
        if traced:
            out["traced_run_s"].append(run)
            out["layers"].append(layer_metrics(tracer.records(), tracer.counts))
            out["spans"] = tracer.records()
            out["absent"] = tracer.absent
        else:
            out["setup_s"].append(setup)
            out["run_s"].append(run)
            if loops is not None:
                out["setup_loop_s"].append((loops[-3] + loops[-2]) / 2.0)
                out["run_loop_s"].append((loops[-2] + loops[-1]) / 2.0)
        iteration += 1

    # The peak RSS of the measurement, before the checks add their own data.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if outputs is not None:
        inputs = check.Inputs(config["paths"])
        for o, scenario in zip(outputs, config["scenario_docs"]):
            failures = check.check_scenario(inputs, scenario, o["ids"], o["values"],
                                            o["total_el"], o["climate_var"],
                                            config["sample_seed"], o["groups"])
            if failures:
                out["failed"] += 1
                out["failures"] += failures
        out["report_sha256"] = hashlib.sha256("".join(first_digests).encode()).hexdigest()
    out["third_party"] = new_imports(before)
    with open(config["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
