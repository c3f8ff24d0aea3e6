"""Timing wrappers around the public entry points of each geostress module.

The tracer replaces a function in every geostress module namespace that
binds it, so callers that look the name up at call time (``cli`` calling
``run_scenario``, ``pipeline`` calling ``portfolio_credit``) reach the
wrapper. Only functions called once per file or once per scenario are
wrapped, never per-instrument ones, so the wrappers add a few dozen clock
reads per scenario. A wrapped name that no longer exists is recorded as
absent instead of failing, so a refactor of ``src/`` does not break the
benchmark.

Run as a script it is the traced ``stress`` child:

    python3 perfbench/tracing.py --out RECORD.json [--trace] -- run --portfolio ...

It calls ``geostress.cli.main`` with the arguments after ``--``, then
writes the spans and the third-party modules the program imported to
RECORD.json, and exits with ``main``'s exit code.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time

# (module, function) pairs in the order the pipeline reaches them.
LAYERS = (
    ("cli", "main"),
    ("ingest", "load_portfolio"),
    ("ingest", "load_hazard_table"),
    ("ingest", "load_fragility"),
    ("ingest", "load_geounits"),
    ("ingest", "link_exposures"),
    ("scenarios", "parse_scenario"),
    ("pipeline", "run_scenario"),
    ("credit", "portfolio_credit"),
    ("valuation", "portfolio_valuation"),
    ("valuation", "climate_var"),
    ("analytics", "exposure_summary"),
    ("analytics", "group_el"),
    ("analytics", "hhi"),
    ("analytics", "top_contributors"),
    ("report", "emit_report"),
)

# Work counted at a span boundary, from the wrapped function's result.
COUNTS = {
    "ingest.load_portfolio": ("ingest.rows", lambda portfolio: len(portfolio.instruments)),
    "ingest.load_hazard_table": ("ingest.rows", len),
    "ingest.load_fragility": ("ingest.rows", len),
    "ingest.load_geounits": ("ingest.rows", len),
    "analytics.group_el": ("analytics.group_keys", len),
    "report.emit_report": ("report.bytes", len),
}

# Per-layer figures whose time is the span's own, minus its traced children.
SELF_TIMES = {"pipeline.self_s": "pipeline.run_scenario", "cli.self_s": "cli.main"}


def new_imports(before: set[str]) -> list[str]:
    """Top-level packages imported since ``before`` that are not stdlib."""
    tops = {name.partition(".")[0] for name in sys.modules if name not in before}
    return sorted(t for t in tops
                  if t not in sys.stdlib_module_names and t not in ("geostress", "__main__"))


class Tracer:
    """Records spans (name, start, end, parent) in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = []
        for module_name in dict.fromkeys(m for m, _ in LAYERS):
            try:
                namespaces.append(importlib.import_module(f"geostress.{module_name}"))
            except ImportError:
                pass
        namespaces.append(importlib.import_module("geostress"))
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"geostress.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                if vars(namespace).get(func_name) is original:
                    self._patches.append((namespace, func_name, original))
                    setattr(namespace, func_name, wrapper)

    def uninstall(self) -> None:
        for namespace, func_name, original in reversed(self._patches):
            setattr(namespace, func_name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                try:
                    counts[key] = counts.get(key, 0) + count(result)
                except (TypeError, AttributeError):
                    pass  # the result changed shape; the count stays as it is
            return result

        return traced

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals: ``<module>.<function>_s`` summed over its spans,
    the self times in SELF_TIMES, and the counts. Every layer in LAYERS
    gets a value; a layer that never ran reads 0."""
    totals = {f"{m}.{f}_s": 0.0 for m, f in LAYERS}
    child_time = [0.0] * len(spans)
    for span in spans:
        duration = span["end"] - span["start"]
        totals[span["name"] + "_s"] += duration
        if span["parent"] >= 0:
            child_time[span["parent"]] += duration
    for metric, span_name in SELF_TIMES.items():
        totals[metric] = sum(span["end"] - span["start"] - child_time[i]
                             for i, span in enumerate(spans) if span["name"] == span_name)
    for key in ("ingest.rows", "analytics.group_keys", "report.bytes"):
        totals[key] = float(counts.get(key, 0))
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the stress CLI, optionally traced.")
    parser.add_argument("--out", required=True, help="where to write spans and imports")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    before = set(sys.modules)
    cli = importlib.import_module("geostress.cli")
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.records(), "counts": tracer.counts,
                   "absent": tracer.absent, "third_party": new_imports(before)}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
