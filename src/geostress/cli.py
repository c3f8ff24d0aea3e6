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
leaves a partial report behind. Given two usable CPUs, ``run`` and
``validate`` fork a load worker, which loads and links the side tables
while the portfolio is read; with two or more scenarios, ``run`` forks one
more after the link, which writes the later half's part into a nameless
file beside ``--out`` that is then copied in. The report, the summary and
any error line are a one-process run's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import marshal
import os
import shutil
import sys
import tempfile
from typing import Any, BinaryIO, Callable, Iterator, Optional, Sequence

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
from .model import CHANNEL_BY_TOKEN, Portfolio
from .pipeline import run_scenario
from .report import Totals, report_blocks, report_end
from .scenarios import Scenario, builtin_scenarios, parse_scenario, serialize_scenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
_TOKENS = {channel: token for token, channel in CHANNEL_BY_TOKEN.items()}  # not Enum.value: slow


def _side_tables(args: argparse.Namespace) -> Iterator:
    """The three side tables in order, each loaded from its file when it is asked for."""
    for path, load in ((args.hazards, load_hazard_table), (args.fragility, load_fragility),
                       (args.geounits, load_geounits)):
        with open(path, "rb") as fh:
            yield load(fh, filename=path)


def _column(linked: Any) -> Any:
    """A float column as the load worker sent it: its bytes, viewed read-only, or a gap's list."""
    return memoryview(linked).cast("d") if type(linked) is bytes else linked


def _load_linked(args: argparse.Namespace) -> LinkedPortfolio:
    """Load the portfolio, then link each side table to its distinct geo ids. A load worker
    (see ``_forked``) loads and links the side tables meanwhile; if it fails, they are linked
    here after the portfolio, one alive at a time, so the first error is one process's."""
    def worker(receive: Callable[[], Sequence[str]]) -> tuple:
        # A FIFO or a terminal is not even opened: the parent's rerun reads its bytes.
        if not all(map(os.path.isfile, (args.hazards, args.fragility, args.geounits))):
            os._exit(1)
        hazards, fragility, registry = _side_tables(args)  # while the portfolio is read
        geo_ids = receive()
        hazards = link_hazards(geo_ids, hazards)  # each table is dropped after its step,
        fragility = link_fragility(geo_ids, fragility)  # the hazards (most of the peak) first
        return hazards, fragility, list(map(_TOKENS.get, link_channels(geo_ids, registry)))

    def here(send: Callable[[Sequence[str]], None]) -> Portfolio:
        with open(args.portfolio, "rb") as fh:
            portfolio = load_portfolio(fh, filename=args.portfolio)
        send(vars(portfolio)["instruments"].geo_ids)
        return portfolio

    portfolio, linked = _forked(worker, here)
    if linked is None:
        tables, geo_ids = _side_tables(args), vars(portfolio)["instruments"].geo_ids
        return link_resolved(portfolio, link_hazards(geo_ids, next(tables)),
                             link_fragility(geo_ids, next(tables)),
                             link_channels(geo_ids, next(tables)))
    hazards, fragility, tokens = linked
    return link_resolved(portfolio, _column(hazards), _column(fragility),
                         tuple(map(CHANNEL_BY_TOKEN.get, tokens)))


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


@contextlib.contextmanager
def _write_atomic(path: str) -> Iterator[BinaryIO]:
    """A temporary file beside ``path`` that replaces it if the block ends without error."""
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
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _usable_cpus() -> int:
    """The CPUs this process may run on: the one probe behind a run's workers."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _write_share(out: BinaryIO, linked: LinkedPortfolio, scenarios: Sequence[Scenario],
                 args: argparse.Namespace, first: bool = True) -> Totals:
    """Evaluate ``scenarios`` in order and write their part of the report to ``out``, each
    result freed before the next runs, and flush it (a worker leaves through ``os._exit``);
    return their (scenario_id, total_el, climate_var)."""
    totals: Totals = []
    results = (run_scenario(linked, scenario, top_k=args.top_k) for scenario in scenarios)
    out.writelines(report_blocks(results, args.format, totals, first))
    out.flush()
    return totals


def _forked(work: Callable[[Callable[[], Any]], Any], here: Callable[[Callable], Any]) -> tuple:
    """Call ``here(send)`` while a forked worker calls ``work(receive)``: ``receive()`` returns
    what ``here`` passed to ``send``. Return what ``here`` returned, and what ``work`` did, sent
    back by marshal, or None if it failed or none was forked: a worker is forked only given
    ``os.fork`` and two usable CPUs. It leaves only through ``os._exit``; if ``here`` raises,
    it is killed and reaped."""
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return here(lambda message: None), None
    (sent_in, sent_out), (reply_in, reply_out) = os.pipe(), os.pipe()
    with open(sent_out, "wb") as sent, open(reply_in, "rb") as reply, \
            open(sent_in, "rb") as received, open(reply_out, "wb") as replied:
        try:
            pid = os.fork()
        except OSError:  # no process to be had (a process limit, no memory): run on one
            return here(lambda message: None), None
        if not pid:
            try:
                sent.close(), reply.close()  # else a parent gone leaves the worker waiting
                replied.write(marshal.dumps(work(lambda: marshal.loads(received.read()))))
                replied.close()  # the parent reads to EOF, which exiting would delay
            except BaseException:
                os._exit(1)
            os._exit(0)
        received.close(), replied.close()  # else no EOF comes

        def send(message: Any) -> None:
            with contextlib.suppress(BrokenPipeError), sent:  # the worker is gone: it failed
                sent.write(marshal.dumps(message))

        try:
            mine = here(send)
            data, status = reply.read(), os.waitpid(pid, 0)[1]
        except BaseException:
            import signal  # only a failure needs it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    with contextlib.suppress(EOFError, ValueError, TypeError):  # a short or spoiled reply
        return mine, None if status else marshal.loads(data)
    return mine, None


def _write_report(out: BinaryIO, linked: LinkedPortfolio, scenarios: Sequence[Scenario],
                  args: argparse.Namespace) -> Totals:
    """Write every scenario's part of the report to ``out``; return their totals in order.
    With two or more scenarios, a worker (see ``_forked``) writes the later half's part into
    a part file; if it fails, its share runs here again."""
    linked.codes  # every check that needs no scenario, once, before any fork
    later = scenarios[len(scenarios) - len(scenarios) // 2:]
    if not later:
        return _write_share(out, linked, scenarios, args)
    directory = os.path.dirname(os.path.abspath(args.out))
    with tempfile.TemporaryFile(dir=directory, prefix=".stress-") as part:  # it has no name
        earlier = scenarios[:-len(later)]
        totals, rest = _forked(lambda _: _write_share(part, linked, later, args, first=False),
                               lambda _: _write_share(out, linked, earlier, args))
        if rest is None:  # the worker failed, or none could be forked
            return totals + _write_share(out, linked, later, args, first=False)
        part.seek(0)
        shutil.copyfileobj(part, out, 1 << 16)  # larger reads raise the peak RSS
    return totals + rest


def run(args: argparse.Namespace) -> int:
    """Execute the full pipeline for every scenario named on the command line."""
    if not args.scenario and args.builtin is None:
        print("error: at least one --scenario or --builtin required", file=sys.stderr)
        return EXIT_INPUT
    if args.top_k < 1:
        print("error: --top-k must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    linked = _load_linked(args)
    scenarios = _load_scenarios(args)
    with _write_atomic(args.out) as out:
        totals = _write_report(out, linked, scenarios, args)
        out.write(report_end(totals, args.format))
    for scenario_id, total_el, climate_var in totals:
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
        with open(os.devnull, "wb") as devnull:  # closed once stdout is a copy of it
            os.dup2(devnull.fileno(), sys.stdout.fileno())
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
