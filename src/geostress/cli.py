"""Command-line front door.

Subcommands:

* ``stress run``        — full pipeline: load, link, evaluate, report.
* ``stress validate``   — load, link and check only; exit 0 if clean, 2 if not.
* ``stress scenarios print`` — emit the four built-ins as canonical JSON.

Exit codes: 0 success, 2 input/validation error, 3 internal error.
Reports go to ``--out``; stdout carries one summary line per scenario.
A stdout whose reader is gone (``stress run ... | true``) exits 2 with
``error: BrokenPipeError: ...`` on stderr; a report already written stays.
``stress run`` evaluates one scenario at a time and streams its part of
the report into a temporary file beside ``--out``, which replaces
``--out`` only when the whole report is written, so a failed run never
leaves a partial report behind.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from typing import Iterable, Iterator, Optional, Sequence

from .analytics import ExposureReport
from .errors import ScenarioParseError, StressError
from .ingest import (
    LinkedPortfolio,
    link_channels,
    link_fragility,
    link_hazards,
    link_resolved,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
)
from .model import StressResult
from .pipeline import run_scenario
from .report import report_blocks
from .scenarios import Scenario, builtin_scenarios, parse_scenario, serialize_scenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_linked(args: argparse.Namespace) -> LinkedPortfolio:
    """Load the portfolio, then link each side table as it is read: one is alive at a time."""
    with open(args.portfolio, "rb") as fh:
        portfolio = load_portfolio(fh, filename=args.portfolio)
    with open(args.hazards, "rb") as fh:
        hazards = link_hazards(portfolio, load_hazard_table(fh, filename=args.hazards))
    with open(args.fragility, "rb") as fh:
        fragility = link_fragility(portfolio, load_fragility(fh, filename=args.fragility))
    with open(args.geounits, "rb") as fh:
        channels = link_channels(portfolio, load_geounits(fh, filename=args.geounits))
    return link_resolved(portfolio, hazards, fragility, channels)


def _load_scenarios(args: argparse.Namespace) -> list[Scenario]:
    scenarios: list[Scenario] = []
    for path in args.scenario:
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ScenarioParseError(f"{path}: not UTF-8: {exc}") from None
        scenarios.append(parse_scenario(text))
    if args.builtin is not None:
        scenarios.extend(
            s for s in builtin_scenarios() if args.builtin in ("all", s.id)
        )
    seen: set[str] = set()
    for scenario in scenarios:
        if scenario.id in seen:
            raise ScenarioParseError(f"duplicate scenario id {scenario.id!r} in one run")
        seen.add(scenario.id)
    return scenarios


def _write_atomic(path: str, chunks: Iterable[bytes]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".stress-")
    except OSError as exc:
        exc.filename = path  # name --out, not the temporary file
        raise
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; give the report the mode a
            # plain open() would.
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _evaluate(
    linked: LinkedPortfolio,
    scenarios: Sequence[Scenario],
    top_k: int,
    summary: list[tuple[str, float, float]],
) -> Iterator[tuple[StressResult, ExposureReport]]:
    """Evaluate the scenarios lazily, in order, and note each one's
    (scenario_id, total_el, climate_var) in ``summary``."""
    for scenario in scenarios:
        result, report = run_scenario(linked, scenario, top_k=top_k)
        summary.append((result.scenario_id, result.total_el, result.climate_var))
        yield result, report
        del result, report  # freed before the next scenario runs


def run(args: argparse.Namespace) -> int:
    """Execute the full pipeline for every scenario named on the command line."""
    if not args.scenario and args.builtin is None:
        print("error: at least one --scenario or --builtin required", file=sys.stderr)
        return EXIT_INPUT
    if args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    summary: list[tuple[str, float, float]] = []
    linked = _load_linked(args)
    scenarios = _load_scenarios(args)
    results = _evaluate(linked, scenarios, args.top_k, summary)
    _write_atomic(args.out, report_blocks(results, format=args.format))
    for scenario_id, total_el, climate_var in summary:
        print(f"{scenario_id}: total_el={total_el:.12g} climate_var={climate_var:.12g}")
    return EXIT_OK


def validate(args: argparse.Namespace) -> int:
    """Load, link and check what needs no scenario, in ``run``'s order, for ``main``."""
    linked = _load_linked(args)
    _load_scenarios(args)
    linked.codes.hhi_geo_ead  # taking them runs the checks that need no scenario
    print("ok")
    return EXIT_OK


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--portfolio", required=True)
    parser.add_argument("--hazards", required=True)
    parser.add_argument("--fragility", required=True)
    parser.add_argument("--geounits", required=True)
    parser.add_argument("--scenario", action="append", default=[], metavar="PATH")
    parser.add_argument(
        "--builtin", choices=["all", *(s.id for s in builtin_scenarios())]
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stress",
        description="Geospatial climate stress-testing engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run scenarios end-to-end")
    _add_input_flags(run_parser)
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--format", choices=["json", "csv"], default="json")
    run_parser.add_argument("--top-k", type=int, default=10, dest="top_k")

    validate_parser = sub.add_parser("validate", help="validate inputs only")
    _add_input_flags(validate_parser)

    scenarios_parser = sub.add_parser("scenarios", help="scenario utilities")
    scenarios_sub = scenarios_parser.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser("print", help="print the four built-ins as canonical JSON")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; the one place that maps an exception to an exit code."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # a command makes many objects, no cyclic garbage: a collection only scans
    try:
        if args.command == "scenarios":
            for scenario in builtin_scenarios():
                print(serialize_scenario(scenario))
            code = EXIT_OK
        else:
            code = run(args) if args.command == "run" else validate(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError as exc:  # an OSError, so first
        # As the Python docs advise for SIGPIPE: stdout to devnull, so that
        # the flush at exit succeeds.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StressError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug: exit 3 with one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
