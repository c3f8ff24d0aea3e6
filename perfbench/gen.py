"""Seeded input generator for the geostress benchmark.

Writes the four input CSVs (and, when asked, scenario JSON files) for one
workload. The same arguments always give byte-identical files: every
random draw comes from one ``random.Random(seed)`` in a fixed order and
every float is written with ``repr`` so it round-trips exactly.
"""

from __future__ import annotations

import json
import os
import random

CHANNELS = ("wui", "central_valley", "coastal", "urban_heat", "other")
HAZARDS = ("wildfire", "drought", "flood", "heat")
# The sectors the built-in scenarios name come first, so they are used.
NAMED_SECTORS = ("agriculture", "real_estate", "tourism", "retail", "utilities")


def sector_names(count: int) -> list[str]:
    names = list(NAMED_SECTORS[:count])
    names.extend(f"sector{k:04d}" for k in range(len(names), count))
    return names


def _variant(doc: dict, rng: random.Random, suffix: str) -> dict:
    """A copy of a scenario document with every number scaled at random."""

    def scale(value):
        if isinstance(value, dict):
            return {k: scale(v) for k, v in value.items()}
        return value * rng.uniform(0.5, 1.5)

    out = {k: scale(v) for k, v in doc.items() if k not in ("id", "kind")}
    out["id"] = f"{doc['id']}-{suffix}"
    out["kind"] = doc["kind"]
    return out


def scenario_docs(builtin_docs: list[dict], variants: int, seed: int) -> list[dict]:
    """The built-in documents followed by ``variants`` seeded variants of them.

    Variant ``j`` scales the numbers of built-in ``j % len(builtin_docs)``,
    so every document differs from every other.
    """
    rng = random.Random(f"scenarios-{seed}")
    docs = list(builtin_docs)
    for j in range(variants):
        base = builtin_docs[j % len(builtin_docs)]
        docs.append(_variant(base, rng, f"v{j}"))
    return docs


def generate(out_dir: str, seed: int, n: int, geos: int, sectors: int,
             scenarios: list[dict] | None = None) -> dict:
    """Write the inputs into ``out_dir`` and return their paths and properties.

    Instruments take geo units in turn, so every geo unit is used, and draw
    their sector uniformly at random; the realised sharing is counted from
    the portfolio, not assumed.
    """
    if n < 1 or geos < 1 or sectors < 1:
        raise ValueError("n, geos and sectors must all be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    geo_ids = [f"g{k:06d}" for k in range(geos)]
    sector_ids = sector_names(sectors)
    paths = {name: os.path.join(out_dir, f"{name}.csv")
             for name in ("portfolio", "hazards", "fragility", "geounits")}

    hazards = {g: [rng.random() for _ in HAZARDS] for g in geo_ids}
    fragility = {g: rng.random() for g in geo_ids}
    with open(paths["geounits"], "w", encoding="utf-8", newline="") as fh:
        fh.write("geo_id,name,channel\n")
        fh.writelines(f"{g},{g},{CHANNELS[k % len(CHANNELS)]}\n"
                      for k, g in enumerate(geo_ids))
    with open(paths["hazards"], "w", encoding="utf-8", newline="") as fh:
        fh.write("geo_id,hazard,intensity\n")
        fh.writelines(f"{g},{h},{x!r}\n"
                      for g in geo_ids for h, x in zip(HAZARDS, hazards[g]))
    with open(paths["fragility"], "w", encoding="utf-8", newline="") as fh:
        fh.write("geo_id,fragility\n")
        fh.writelines(f"{g},{fragility[g]!r}\n" for g in geo_ids)

    used_geos: set[str] = set()
    used_sectors: set[str] = set()
    uniform = rng.uniform
    with open(paths["portfolio"], "w", encoding="utf-8", newline="") as fh:
        fh.write("id,geo_id,sector,ead,pd0,lgd0,value,adaptation\n")
        for k in range(n):
            geo = geo_ids[k % geos]
            sector = sector_ids[rng.randrange(sectors)]
            used_geos.add(geo)
            used_sectors.add(sector)
            fh.write(
                f"n{k:07d},{geo},{sector},{uniform(1e4, 1e7)!r},"
                f"{uniform(0.001, 0.2)!r},{uniform(0.1, 0.9)!r},"
                f"{uniform(1e4, 1e7)!r},{uniform(0.0, 1.0)!r}\n"
            )

    scenario_paths = []
    for k, doc in enumerate(scenarios or ()):
        path = os.path.join(out_dir, f"scenario_{k:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
        scenario_paths.append(path)

    return {
        "paths": paths,
        "scenario_paths": scenario_paths,
        "properties": {
            "n": n,
            "geos": geos,
            "sectors": sectors,
            "scenarios": len(scenario_paths),
            # Computed from the draws above, not from the requested sizes.
            "inst_per_geo": n / len(used_geos),
            "inst_per_sector": n / len(used_sectors),
            "bytes": sum(os.path.getsize(p) for p in (*paths.values(), *scenario_paths)),
        },
    }
