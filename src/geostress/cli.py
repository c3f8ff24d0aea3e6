"""Command-line front door.

Subcommands:

* ``stress run``        — full pipeline: load, link, evaluate, report.
* ``stress validate``   — load, link and check only; exit 0 if clean, 2 if not.
* ``stress scenarios print`` — emit the four built-ins as canonical JSON.

Exit codes: 0 success, 2 input/validation error, 3 internal error.
Reports go to ``--out``; stdout carries one summary line per scenario.
A stdout whose reader is gone (``stress run ... | true``) exits 2 with
``error: BrokenPipeError: ...`` on stderr; a report already written stays.
``stress run`` evaluates one scenario at a time and streams its part of the
report through ``report.write_entries``, each block of rows once evaluated,
into a temporary file beside ``--out``, which replaces ``--out`` only when the
whole report is written, so a failed run never leaves a partial report behind.
Given two usable CPUs, ``run`` and ``validate`` fork a load worker, which loads
and links the side tables while the portfolio is read. If the side files hold S
bytes and the portfolio (a regular file) P, the worker also loads the
portfolio's last P/2 - S bytes, from a line start; should that part hold a
``"``, either part fail or an id be in both, the parent loads the whole file as
one process does. With two or more scenarios, ``run`` forks one more after the
link, which writes the later half's part into a nameless file beside ``--out``
that is then copied in. The report, the summary and any error line are a
one-process run's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import marshal
import os
import shutil
import sys
import tempfile
from functools import partial
from typing import Any, BinaryIO, Callable, Iterator, Optional, Sequence

from .errors import ScenarioParseError, StressError
from .ingest import (
    LinkedPortfolio,
    join_portfolio,
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
from .report import Totals, report_end, write_entries
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


class _Part(io.BufferedIOBase):
    """The header line of the portfolio open as ``fh`` (if ``start``), then its bytes from
    ``start`` to ``end``, for ``load_portfolio``. A ``"`` raises ValueError: a quoted field
    may hold a line end, so the part need not start at a record."""

    def __init__(self, fh: BinaryIO, start: int, end: int) -> None:
        self.fh, self.left, self.header = fh, end - start, fh.readline() if start else b""
        fh.seek(start)

    def readable(self) -> bool:
        return True

    def read1(self, size: int) -> bytes:  # the text layer's only read
        if self.header:
            data, self.header = self.header, b""
        else:
            data = self.fh.read(min(size, self.left))
            self.left -= len(data)
        if b'"' in data:
            raise ValueError("a quote in a part of the portfolio")
        return data


def _load_part(path: str, start: int = 0, end: int = 0) -> Portfolio:
    """``load_portfolio`` of the portfolio at ``path``, or of its ``_Part`` given an ``end``.
    A part is streamed, not read into one ``bytes``: at 1M rows that held the peak RSS higher."""
    with open(path, "rb") as fh:
        return load_portfolio(_Part(fh, start, end) if end else fh, filename=path)


def _split(args: argparse.Namespace) -> tuple[int, int]:
    """The portfolio's size P and where the load worker's part of it starts: after the first
    line end at or past byte P - share, the share being P/2 less the side files' sizes; 0 for
    no part, unless a worker is forked, the share is positive and each file is regular."""
    paths = (args.portfolio, args.hazards, args.fragility, args.geounits)
    with contextlib.suppress(OSError):  # the load raises it, as one process would
        size, *sides = map(os.path.getsize, paths)
        share = size // 2 - sum(sides)
        if _forks() and share > 0 and all(map(os.path.isfile, paths)):
            with open(args.portfolio, "rb") as fh:
                fh.seek(size - share)
                fh.readline()
                return size, fh.tell() if fh.tell() < size else 0
    return 0, 0


def _load_linked(args: argparse.Namespace) -> LinkedPortfolio:
    """Load the portfolio, then link each side table to its distinct geo ids. A load worker
    (see ``_forked``) loads and links the side tables meanwhile, and the part of the portfolio
    ``_split`` leaves it, which ``join_portfolio`` joins to the parent's. If the worker fails,
    a part raises or an id is in both, the whole portfolio is loaded here, then each side
    table linked, one alive at a time: the first error is one process's."""
    size, split = _split(args)

    def worker(receive: Callable[[], Sequence[str]]) -> tuple:
        # A FIFO or a terminal is not even opened: the parent's rerun reads its bytes.
        if not all(map(os.path.isfile, (args.hazards, args.fragility, args.geounits))):
            os._exit(1)
        hazards, fragility, registry = _side_tables(args)  # while the portfolio is read
        tail = vars(_load_part(args.portfolio, split, size))["instruments"] if split else ()
        geo_ids = receive()
        if tail:  # in one pass's order: the parent's, then the tail's new ones
            geo_ids = tuple(dict.fromkeys((*geo_ids, *tail.geo_ids)))
        hazards = link_hazards(geo_ids, hazards)  # each table is dropped after its step,
        fragility = link_fragility(geo_ids, fragility)  # the hazards (most of the peak) first
        return (hazards, fragility, list(map(_TOKENS.get, link_channels(geo_ids, registry))),
                list(tail))  # marshal writes a read-only column as its bytes

    def here(send: Callable[[Sequence[str]], None]) -> Portfolio:
        portfolio = _load_part(args.portfolio, 0, split)
        send(vars(portfolio)["instruments"].geo_ids)
        return portfolio

    try:
        portfolio, linked = _forked(worker, here)
    except Exception:  # a part failed: the whole, loaded below, fails as one process's does
        if not split:
            raise
        linked = None
    if split:  # the parts joined, or the whole (which fails if an id is in both parts)
        portfolio = linked and join_portfolio(portfolio, linked[3]) or _load_part(args.portfolio)
    if linked is None:
        tables, geo_ids = _side_tables(args), vars(portfolio)["instruments"].geo_ids
        return link_resolved(portfolio, link_hazards(geo_ids, next(tables)),
                             link_fragility(geo_ids, next(tables)),
                             link_channels(geo_ids, next(tables)))
    hazards, fragility, tokens, _ = linked
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


def _forks() -> bool:
    """Whether a run forks its workers: given ``os.fork`` and two usable CPUs."""
    return hasattr(os, "fork") and _usable_cpus() > 1


def _forked(work: Callable[[Callable[[], Any]], Any], here: Callable[[Callable], Any]) -> tuple:
    """Call ``here(send)`` while a forked worker calls ``work(receive)``: ``receive()`` returns
    what ``here`` passed to ``send``. Return what ``here`` returned, and what ``work`` did, sent
    back by marshal, or None if it failed or none was forked: a worker is forked only given
    ``os.fork`` and two usable CPUs. It leaves only through ``os._exit``; if ``here`` raises,
    it is killed and reaped. While it runs, the parent keeps to its first usable CPU and the
    worker to the others, where the platform places processes: else a new process can stay
    on its parent's CPU for longer than a run."""
    if not _forks():
        return here(lambda message: None), None
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    first = {min(cpus)} if len(cpus) > 1 else set()
    (sent_in, sent_out), (reply_in, reply_out) = os.pipe(), os.pipe()
    with open(sent_out, "wb") as sent, open(reply_in, "rb") as reply, \
            open(sent_in, "rb") as received, open(reply_out, "wb") as replied:
        try:
            pid = os.fork()
        except OSError:  # no process to be had (a process limit, no memory): run on one
            return here(lambda message: None), None
        if not pid:
            try:
                if first:
                    os.sched_setaffinity(0, cpus - first)
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
            if first:
                os.sched_setaffinity(0, first)
            mine = here(send)
            data, status = reply.read(), os.waitpid(pid, 0)[1]
        except BaseException:
            import signal  # only a failure needs it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            if first:
                os.sched_setaffinity(0, cpus)
    with contextlib.suppress(EOFError, ValueError, TypeError):  # a short or spoiled reply
        return mine, None if status else marshal.loads(data)
    return mine, None


def _write_report(out: BinaryIO, linked: LinkedPortfolio, scenarios: Sequence[Scenario],
                  args: argparse.Namespace) -> Totals:
    """Write every scenario's part of the report to ``out``, its scratch files nameless beside
    ``--out``; return their totals in order. With two or more scenarios, a worker (see
    ``_forked``) writes the later half's part into a part file; if it fails, its share runs here."""
    linked.codes.hhi_geo_ead  # every check that needs no scenario, once, before any fork
    scratch = partial(tempfile.TemporaryFile, dir=os.path.dirname(os.path.abspath(args.out)),
                      prefix=".stress-")

    def share(out: BinaryIO, scenarios: Sequence[Scenario], first: bool = True) -> Totals:
        entries = ((s.id, partial(run_scenario, linked, s, args.top_k)) for s in scenarios)
        return write_entries(out, entries, args.format, scratch, first)

    later = scenarios[len(scenarios) - len(scenarios) // 2:]
    if not later:
        return share(out, scenarios)
    with scratch() as part:
        earlier = scenarios[:-len(later)]
        totals, rest = _forked(lambda _: share(part, later, first=False),
                               lambda _: share(out, earlier))
        if rest is None:  # the worker failed, or none could be forked
            return totals + share(out, later, first=False)
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


def script() -> int:
    """``main`` as the ``stress`` script and ``python -m geostress.cli`` run it. The process
    ends after it, so every object is frozen out of the interpreter's collection at exit,
    which would only scan them: a command leaves no cyclic garbage worth the pass."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(script())
