"""The portfolio's tail in the load worker: given two usable CPUs and side
tables smaller than half the portfolio, the load worker also loads the
portfolio's last P/2 - S bytes (P the portfolio's size, S the side files'),
from just after a line end, and the parent joins its own part to it with
``ingest.join_portfolio``.

The property: for any plain portfolio and any split, the joined parts are
the portfolio ``load_portfolio`` makes of the whole file, column for column,
trusted by ``LinkedPortfolio.codes`` as the whole one is. Then each way a
split can fail to hold runs under one and under two usable CPUs through the
``pinned`` fixture: the exit code, stdout, stderr and report are those of
one CPU, and no child, descriptor or ``.stress-`` file is left behind.
"""

import argparse
import io
import marshal
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geostress import cli
from geostress.ingest import (
    PORTFOLIO_HEADER,
    join_portfolio,
    link_exposures,
    load_portfolio,
)
from geostress.model import _CHECKED, FragilityTable, _frozen
from conftest import make_hazard_field, make_registry
from test_golden import generate
from test_load_worker import _FEED

GEO_IDS = ("g1", "g2", "g3", "g4")
SECTORS = ("retail", "energy", "tourism")


def _sent(portfolio):
    """A part's columns as the load worker sends them: through marshal, a read-only column
    as its bytes."""
    columns = vars(portfolio)["instruments"]
    return marshal.loads(marshal.dumps(
        [column.obj if type(column) is memoryview else column for column in columns]))


def _part(data, start, end):
    return load_portfolio(cli._Part(io.BytesIO(data), start, end))


def _splits(data):
    """Each part start ``_split`` can choose: just after the first line end at or past an
    offset, past the header line and before the end."""
    starts = set()
    for offset in range(len(data)):
        end = data.find(b"\n", offset)
        if data.index(b"\n") < end < len(data) - 1:
            starts.add(end + 1)
    return sorted(starts)


def _linked(portfolio):
    return link_exposures(portfolio, make_hazard_field(),
                          FragilityTable(entries={g: 0.5 for g in GEO_IDS}), make_registry())


number = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
row = st.tuples(st.sampled_from(GEO_IDS[:2]), st.sampled_from(SECTORS[:2]),
                number, fraction, fraction, number, number)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(row, min_size=2, max_size=12), crlf=st.booleans(), bom=st.booleans(),
       tail_first=st.booleans())
def test_joined_parts_are_the_whole_portfolio(rows, crlf, bom, tail_first):
    # The last row's geo id or sector is its own, so a split can leave it to the tail alone.
    geo_id, sector, *numbers = rows[-1]
    rows[-1] = (GEO_IDS[3], sector, *numbers) if tail_first else (geo_id, SECTORS[2], *numbers)
    rows[0] = (*rows[0][:2], 1.0, 1.0, 1.0, 1.0, rows[0][6])  # a nonzero loss and total value
    end = "\r\n" if crlf else "\n"
    lines = [",".join(PORTFOLIO_HEADER)] + [
        ",".join([f"i{k}", geo_id, sector, *map(repr, numbers)])
        for k, (geo_id, sector, *numbers) in enumerate(rows)]
    data = ("\ufeff" if bom else "").encode() + (end.join(lines) + end).encode()
    whole = load_portfolio(io.BytesIO(data))
    expected = vars(whole)["instruments"]
    splits = _splits(data)
    assert splits
    for split in splits:
        joined = join_portfolio(_part(data, 0, split), _sent(_part(data, split, len(data))))
        columns = vars(joined)["instruments"]
        assert columns._fields == expected._fields
        assert columns[:5] == expected[:5]
        assert all(type(c) is tuple for c in columns[:5])
        for column, want in zip(columns[5:], expected[5:]):
            assert _frozen(column) and column.tobytes() == want.tobytes()
            assert _CHECKED.get(id(column)) is column  # trusted, as the whole's are
        assert joined.weights is None
        assert _linked(joined).codes == _linked(whole).codes


def test_a_part_with_a_quote_raises():
    data = b"id,geo_id,sector,ead,pd0,lgd0,value,adaptation\na,g1,s,1.0,0.1,0.1,1.0,0.0\n" \
           b'"b",g1,s,1.0,0.1,0.1,1.0,0.0\n'
    split = data.index(b"\n", data.index(b"\n") + 1) + 1
    assert len(vars(_part(data, 0, split))["instruments"].id) == 1
    with pytest.raises(ValueError):
        _part(data, split, len(data))


def test_an_id_in_both_parts_joins_to_none():
    data = b"id,geo_id,sector,ead,pd0,lgd0,value,adaptation\na,g1,s,1.0,0.1,0.1,1.0,0.0\n" \
           b"a,g2,s,1.0,0.1,0.1,1.0,0.0\n"
    split = data.index(b"\n", data.index(b"\n") + 1) + 1
    assert join_portfolio(_part(data, 0, split), _sent(_part(data, split, len(data)))) is None


# ---------------------------------------------------------------------------
# The CLI: one and two usable CPUs.


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The cli_json shape at 3,000 instruments: the side tables are far smaller than half
    the portfolio, so two CPUs split it."""
    return generate("cli_json", str(tmp_path_factory.mktemp("split")))["paths"]


def _args(paths):
    return argparse.Namespace(**{name: str(path) for name, path in paths.items()})


def test_the_split_follows_the_file_sizes(inputs, monkeypatch):
    size = os.path.getsize(inputs["portfolio"])
    side = sum(os.path.getsize(inputs[name]) for name in ("hazards", "fragility", "geounits"))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    got, split = cli._split(_args(inputs))
    with open(inputs["portfolio"], "rb") as fh:
        data = fh.read()
    assert got == size and data[split - 1:split] == b"\n"
    assert data.index(b"\n", size - (size // 2 - side)) + 1 == split
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    assert cli._split(_args(inputs)) == (0, 0)


def test_side_tables_as_large_as_half_the_portfolio_leave_no_part(inputs, tmp_path,
                                                                  monkeypatch):
    paths = {name: shutil.copy(path, tmp_path) for name, path in inputs.items()}
    with open(paths["geounits"], "ab") as fh:  # padding past the last row: a size only
        fh.write(b"\n" * (os.path.getsize(paths["portfolio"]) // 2))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert cli._split(_args(paths)) == (0, 0)


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().split(b"\n")[:-1]


def _write(path, lines):
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")


def _cells(line, **changes):
    cells = line.split(b",")
    for name, value in changes.items():
        cells[PORTFOLIO_HEADER.index(name)] = value
    return b",".join(cells)


# Each case edits the portfolio's lines; the first data line is in the parent's part and
# the last in the worker's.
CASES = {
    "plain": (lambda lines: lines, 0),
    "quoted-id-in-the-head": (
        lambda lines: [lines[0], _cells(lines[1], id=b'"q,1"'), *lines[2:]], 0),
    "quoted-id-in-the-tail": (
        lambda lines: [*lines[:-1], _cells(lines[-1], id=b'"q,2"')], 0),
    "an-id-in-both-parts": (
        lambda lines: [*lines[:-1], _cells(lines[-1], id=lines[1].split(b",")[0])], 2),
    "a-domain-violation-in-the-tail": (
        lambda lines: [*lines[:-1], _cells(lines[-1], pd0=b"2.0")], 2),
    "a-short-last-row": (lambda lines: [*lines[:-1], lines[-1].rsplit(b",", 1)[0]], 2),
    "a-short-first-row": (lambda lines: [lines[0], lines[1].rsplit(b",", 1)[0], *lines[2:]], 2),
}


def _command(command, paths, tmp_path, capfd):
    """``command`` on ``paths``: exit code, stdout, stderr and report bytes."""
    out = tmp_path / "report.json"
    flags = [flag for name in ("portfolio", "hazards", "fragility", "geounits")
             for flag in (f"--{name}", str(paths[name]))]
    extra = ["--builtin", "all", "--out", str(out)] if command == "run" else []
    code = cli.main([command, *flags, *extra])
    captured = capfd.readouterr()
    report = out.read_bytes() if out.exists() else None
    if report is not None:
        out.unlink()
    return code, captured.out, captured.err, report


def _watch_loads(monkeypatch, tmp_path):
    """Record each portfolio load's row count and process: a file per load, as the worker's
    memory is its own."""
    load, calls = cli.load_portfolio, tmp_path / "loads"
    calls.mkdir()

    def watched(*args, **kwargs):
        portfolio = load(*args, **kwargs)
        (calls / f"{os.getpid()}-{len(vars(portfolio)['instruments'].id)}").touch()
        return portfolio

    monkeypatch.setattr(cli, "load_portfolio", watched)
    return calls


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_split_that_does_not_hold_fails_as_on_one_cpu(
    inputs, pinned, tmp_path, capfd, monkeypatch, command, case
):
    edit, code = CASES[case]
    paths = {name: shutil.copy(path, tmp_path) for name, path in inputs.items()}
    _write(paths["portfolio"], edit(_lines(paths["portfolio"])))
    one = pinned(1, _command, command, paths, tmp_path, capfd)
    assert one[0] == code
    assert pinned(2, _command, command, paths, tmp_path, capfd) == one


def test_two_cpus_load_the_parts_in_two_processes(inputs, pinned, tmp_path, capfd,
                                                  monkeypatch):
    rows = len(_lines(inputs["portfolio"])) - 1
    calls = _watch_loads(monkeypatch, tmp_path)
    one = pinned(1, _command, "run", inputs, tmp_path, capfd)
    assert [p.name for p in calls.iterdir()] == [f"{os.getpid()}-{rows}"]
    for path in calls.iterdir():
        path.unlink()
    assert pinned(2, _command, "run", inputs, tmp_path, capfd) == one
    loads = {int(pid): int(count) for pid, count in (p.name.split("-") for p in calls.iterdir())}
    assert len(loads) == 2 and sum(loads.values()) == rows and 0 < loads[os.getpid()] < rows


@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_portfolio_fifo_is_read_once_by_the_parent(
    inputs, pinned, tmp_path, capfd, monkeypatch, command
):
    """A FIFO fed by another process: no part is split off, the worker does not open it,
    and the parent reads all its bytes."""
    paths = {name: shutil.copy(path, tmp_path) for name, path in inputs.items()}
    source = tmp_path / "portfolio-source.csv"
    os.replace(paths["portfolio"], source)
    os.mkfifo(paths["portfolio"])
    calls = _watch_loads(monkeypatch, tmp_path)

    def fed(*args):
        writer = subprocess.Popen([sys.executable, "-c", _FEED, str(source), paths["portfolio"]])
        try:
            return _command(*args)
        finally:
            assert writer.wait(timeout=60) == 0

    one = pinned(1, fed, command, paths, tmp_path, capfd)
    assert pinned(2, fed, command, paths, tmp_path, capfd) == one
    assert one[0] == 0
    rows = len(_lines(source)) - 1
    assert [p.name for p in calls.iterdir()] == [f"{os.getpid()}-{rows}"]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="placing the worker needs two CPUs this process may run on")
def test_the_worker_runs_on_other_cpus_than_the_parent(inputs, pinned, tmp_path, capfd,
                                                       monkeypatch):
    """Each process records the CPUs it may run on as it loads its part; the parent's are
    its own again once the command ends."""
    record, load = tmp_path / "cpus", cli.load_portfolio
    record.mkdir()

    def watched(*args, **kwargs):
        cpus = "-".join(map(str, sorted(os.sched_getaffinity(0))))
        (record / f"{os.getpid()}-{cpus}").touch()
        return load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_portfolio", watched)
    before = os.sched_getaffinity(0)
    assert pinned(2, _command, "validate", inputs, tmp_path, capfd)[0] == 0
    assert os.sched_getaffinity(0) == before
    cpus = {int(pid): set(map(int, rest)) for pid, *rest in
            (path.name.split("-") for path in record.iterdir())}
    parent = cpus.pop(os.getpid())
    assert parent == {min(before)} and list(cpus.values()) == [before - parent]
