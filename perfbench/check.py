"""Output checks that do not trust the engine.

The expected values come from the generated input files and the scenario
documents alone, through the defining formulas (the same equations as
``tests/oracle.py``, written out again here so the benchmark stands on
its own). Every check returns a list of failure messages; an empty list
means the output is right.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import defaultdict

HAZARDS = ("wildfire", "drought", "flood", "heat")
REL = 1e-9
SAMPLE_ROWS = 64


class Inputs:
    """The generated inputs, read back with the csv module."""

    def __init__(self, paths: dict[str, str]):
        with open(paths["portfolio"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for key in ("ead", "pd0", "lgd0", "value", "adaptation"):
                row[key] = float(row[key])
        self.instruments = rows
        self.ids = [row["id"] for row in rows]
        self.hazards: dict[str, dict[str, float]] = defaultdict(dict)
        with open(paths["hazards"], newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                self.hazards[row["geo_id"]][row["hazard"]] = float(row["intensity"])
        with open(paths["fragility"], newline="", encoding="utf-8") as fh:
            self.fragility = {r["geo_id"]: float(r["fragility"]) for r in csv.DictReader(fh)}
        with open(paths["geounits"], newline="", encoding="utf-8") as fh:
            self.channel = {r["geo_id"]: r["channel"] for r in csv.DictReader(fh)}
        total_value = math.fsum(row["value"] for row in rows)
        self.weights = [row["value"] / total_value for row in rows]


def oracle_row(inst: dict, hazards: dict, fragility: float, scenario: dict) -> dict:
    """One instrument under one scenario document, straight from the formulas."""
    mult = scenario.get("hazard_multipliers", {})
    hazard = max(mult.get(h, 1.0) * hazards[h] for h in HAZARDS)
    trans = scenario.get("transition", {})
    transition = trans.get(inst["sector"], trans.get("default", 0.0))
    betas = scenario.get("betas", {})
    exponent = (betas.get("hazard", 0.0) * hazard
                + betas.get("transition", 0.0) * transition
                + betas.get("fragility", 0.0) * fragility
                - betas.get("adaptation", 0.0) * inst["adaptation"])
    pd_s = min(1.0, inst["pd0"] * math.exp(exponent))
    lgd_s = min(1.0, inst["lgd0"] * (1.0 + scenario.get("lgd_gamma", 0.0) * hazard))
    rep = scenario.get("repricing", {})
    loss_fraction = min(1.0, rep.get("delta_hazard", 0.0) * hazard
                        + rep.get("delta_transition", 0.0) * transition
                        + rep.get("delta_financing", 0.0)
                        * scenario.get("financing_tightening", 0.0))
    return {"pd_s": pd_s, "lgd_s": lgd_s, "el_s": pd_s * lgd_s * inst["ead"],
            "dv_s": -inst["value"] * loss_fraction}


def _close(got: float, want: float, scale: float | None = None) -> bool:
    tolerance = REL * (abs(want) if scale is None else scale)
    return math.isfinite(got) and abs(got - want) <= max(tolerance, 1e-12)


def check_scenario(inputs: Inputs, scenario: dict, ids: list[str],
                   values: dict[str, list[float]], total_el: float, climate_var: float,
                   sample_seed: int, groups: dict | None = None) -> list[str]:
    """Checks on one scenario's output, whatever form it came in.

    ``values`` maps pd_s, lgd_s, el_s and dv_s to one sequence each, in row
    order. ``groups`` holds the exposure report (grouped EL, HHIs and top
    contributors) when the output has one.
    """
    sid = scenario["id"]
    if len(ids) != len(inputs.ids):
        return [f"{sid}: {len(ids)} rows, expected {len(inputs.ids)}"]
    if list(ids) != inputs.ids:
        return [f"{sid}: row ids are not the portfolio ids in portfolio order"]
    failures = [f"{sid}: non-finite {column}" for column, column_values in values.items()
                if not all(map(math.isfinite, column_values))]
    if failures:
        return failures
    for k, inst in enumerate(inputs.instruments):
        el = values["pd_s"][k] * values["lgd_s"][k] * inst["ead"]
        if not _close(values["el_s"][k], el):
            failures.append(f"{sid}: row {ids[k]} el_s != pd_s * lgd_s * ead")
            break
    rng = random.Random(f"{sample_seed}-{sid}")
    for k in sorted(rng.sample(range(len(ids)), min(SAMPLE_ROWS, len(ids)))):
        inst = inputs.instruments[k]
        want = oracle_row(inst, inputs.hazards[inst["geo_id"]],
                          inputs.fragility[inst["geo_id"]], scenario)
        for column, expected in want.items():
            if not _close(values[column][k], expected):
                failures.append(f"{sid}: row {ids[k]} {column}={values[column][k]!r}, "
                                f"oracle {expected!r}")
    els = values["el_s"]
    if not _close(total_el, math.fsum(els)):
        failures.append(f"{sid}: total_el {total_el!r} != fsum of rows {math.fsum(els)!r}")
    weighted = math.fsum(w * dv for w, dv in zip(inputs.weights, values["dv_s"]))
    burden = scenario.get("lambda", 0.0) * math.fsum(els)
    if not _close(climate_var, weighted + burden, abs(weighted) + abs(burden)):
        failures.append(f"{sid}: climate_var {climate_var!r} != {weighted + burden!r}")
    if groups is not None and not failures:
        failures += _check_groups(inputs, sid, els, groups)
    return failures


def _check_groups(inputs: Inputs, sid: str, els, report: dict) -> list[str]:
    """Grouped EL, HHIs and top contributors against the reported rows."""
    failures = []
    geo_ids = [i["geo_id"] for i in inputs.instruments]
    keys = {"el_by_geo": geo_ids,
            "el_by_sector": [i["sector"] for i in inputs.instruments],
            "el_by_hazard_channel": [inputs.channel[g] for g in geo_ids]}
    hhis = {"el_by_geo": "hhi_geo", "el_by_sector": "hhi_sector",
            "el_by_hazard_channel": "hhi_channel"}
    for field, row_keys in keys.items():
        groups: dict[str, list[float]] = defaultdict(list)
        for key, el in zip(row_keys, els):
            groups[key].append(el)
        sums = {k: math.fsum(v) for k, v in sorted(groups.items())}
        got = report[field]
        if list(got) != list(sums) or not all(_close(got[k], v) for k, v in sums.items()):
            failures.append(f"{sid}: {field} does not match the grouped rows")
        total = math.fsum(sums.values())
        hhi = math.fsum((v / total) ** 2 for v in sums.values())
        if not _close(report[hhis[field]], hhi):
            failures.append(f"{sid}: {hhis[field]} {report[hhis[field]]!r} != {hhi!r}")
    top = report["top_contributors"]
    ranked = sorted(range(len(els)), key=lambda k: (-els[k], inputs.ids[k]))[:len(top)]
    if [c["id"] for c in top] != [inputs.ids[k] for k in ranked]:
        failures.append(f"{sid}: top_contributors are not the largest losses")
    return failures


def _summary_lines(totals: list[tuple[str, float, float]]) -> list[str]:
    return [f"{sid}: total_el={el:.12g} climate_var={cv:.12g}" for sid, el, cv in totals]


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def check_json_report(data: bytes, stdout: str, inputs: Inputs, scenarios: list[dict],
                      sample_seed: int) -> list[str]:
    """A ``stress run --format json`` report and its stdout summary."""
    try:
        docs = json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report is not finite JSON: {exc}"]
    if [d.get("scenario_id") for d in docs] != [s["id"] for s in scenarios]:
        return ["report scenarios are not the requested ones in order"]
    failures = []
    totals = []
    for doc, scenario in zip(docs, scenarios):
        rows = doc["rows"]
        ids = [r["id"] for r in rows]
        values = {c: [r[c] for r in rows] for c in ("pd_s", "lgd_s", "el_s", "dv_s")}
        failures += check_scenario(inputs, scenario, ids, values, doc["total_el"],
                                   doc["climate_var"], sample_seed, doc["report"])
        totals.append((doc["scenario_id"], doc["total_el"], doc["climate_var"]))
    if stdout.splitlines() != _summary_lines(totals):
        failures.append("stdout summary lines do not match the report totals")
    return failures


def check_csv_report(data: bytes, stdout: str, inputs: Inputs, scenarios: list[dict],
                     sample_seed: int) -> list[str]:
    """A ``stress run --format csv`` report and its stdout summary."""
    text = data.decode("utf-8")
    rows_part, _, totals_part = text.partition("\n\n")
    rows = list(csv.reader(rows_part.splitlines()))
    totals_rows = list(csv.reader(totals_part.splitlines()))
    if (rows[:1] != [["scenario_id", "instrument_id", "pd_s", "lgd_s", "el_s", "dv_s"]]
            or totals_rows[:1] != [["scenario_id", "total_el", "climate_var"]]):
        return ["CSV report headers are wrong"]
    try:
        totals = [(r[0], float(r[1]), float(r[2])) for r in totals_rows[1:]]
        by_scenario: dict[str, list[list[str]]] = defaultdict(list)
        for r in rows[1:]:
            by_scenario[r[0]].append(r)
    except (IndexError, ValueError) as exc:
        return [f"CSV report is malformed: {exc}"]
    if [t[0] for t in totals] != [s["id"] for s in scenarios] or list(by_scenario) != [
            s["id"] for s in scenarios]:
        return ["report scenarios are not the requested ones in order"]
    failures = []
    for (sid, total_el, climate_var), scenario in zip(totals, scenarios):
        scenario_rows = by_scenario[sid]
        try:
            values = {c: [float(r[k]) for r in scenario_rows]
                      for k, c in enumerate(("pd_s", "lgd_s", "el_s", "dv_s"), start=2)}
        except (IndexError, ValueError) as exc:
            failures.append(f"{sid}: malformed row: {exc}")
            continue
        failures += check_scenario(inputs, scenario, [r[1] for r in scenario_rows], values,
                                   total_el, climate_var, sample_seed)
    if not all(map(math.isfinite, (x for t in totals for x in t[1:]))):
        failures.append("non-finite total in report")
    if stdout.splitlines() != _summary_lines(totals):
        failures.append("stdout summary lines do not match the report totals")
    return failures
