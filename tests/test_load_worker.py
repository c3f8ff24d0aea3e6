"""The load worker: given ``os.fork`` and two usable CPUs, ``stress run`` and
``stress validate`` fork one worker that loads and links the side tables
while the parent reads the portfolio. Whatever the worker does, the exit
code, stdout, stderr and report are those of the same command on one CPU,
and no child, pipe, report or ``.stress-`` file outlives the command.

Each case runs under one and under two usable CPUs through the ``pinned``
fixture, so that both paths run on any host; ``test_cli`` runs its
several-fault inputs the same way. Output is captured at the file
descriptors, so a write by the worker would show.
"""

import marshal
import os
import signal
import subprocess
import sys
import types

import pytest

from geostress import cli
from geostress.cli import main
from test_cli import run_cli, validate_argv
from test_golden import ERROR_CASES, generate, observe_error

COMMANDS = ["run", "validate"]


def _in_worker(parent):
    return os.getpid() != parent


def _command(command, fixture_files, tmp_path, capfd):
    """``command`` on the fixture files: exit code, stdout, stderr and report bytes."""
    out = tmp_path / "report.json"
    if command == "run":
        code = run_cli(fixture_files, tmp_path, "--builtin", "all")[0]
    else:
        code = main(validate_argv(fixture_files))
    captured = capfd.readouterr()
    report = out.read_bytes() if out.exists() else None
    if report is not None:
        out.unlink()
    return code, captured.out, captured.err, report


def _parity(pinned, *args):
    one, two = pinned(1, _command, *args), pinned(2, _command, *args)
    assert two == one
    return one


@pytest.fixture(scope="module")
def cli_json_inputs(tmp_path_factory):
    return generate("cli_json", str(tmp_path_factory.mktemp("load-worker")))


# test_golden runs these cases on the host's CPUs only; here each runs under one and two.
@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_rejected_inputs_fail_as_on_one_cpu(cli_json_inputs, pinned, tmp_path, case):
    one = pinned(1, observe_error, case, cli_json_inputs, str(tmp_path))
    two = pinned(2, observe_error, case, cli_json_inputs, str(tmp_path))
    assert two == one and one["exit"] == 2


@pytest.mark.parametrize("command", COMMANDS)
def test_a_worker_killed_mid_load_is_replaced_by_the_parent(
    pinned, fixture_files, tmp_path, capfd, monkeypatch, command
):
    parent, load = os.getpid(), cli.load_fragility

    def killing(*args, **kwargs):
        if _in_worker(parent):
            os.kill(os.getpid(), signal.SIGKILL)
        return load(*args, **kwargs)

    clean = pinned(1, _command, command, fixture_files, tmp_path, capfd)
    monkeypatch.setattr(cli, "load_fragility", killing)
    assert pinned(2, _command, command, fixture_files, tmp_path, capfd) == clean
    assert clean[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_a_worker_gone_before_the_geo_ids_breaks_no_pipe_in_main(
    pinned, fixture_files, tmp_path, capfd, monkeypatch, command
):
    """The worker fails before it reads the geo ids, and the parent writes them only after
    the worker has exited: the write breaks, and the side steps run in the parent."""
    parent, load_hazards, load_portfolio = os.getpid(), cli.load_hazard_table, cli.load_portfolio

    def failing(*args, **kwargs):
        if _in_worker(parent):
            raise OSError("the worker's own failure")
        return load_hazards(*args, **kwargs)

    def after_the_worker(*args, **kwargs):
        for pid in pinned.forked:  # wait for its exit, but leave it to be reaped
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return load_portfolio(*args, **kwargs)

    clean = pinned(1, _command, command, fixture_files, tmp_path, capfd)
    monkeypatch.setattr(cli, "load_hazard_table", failing)
    monkeypatch.setattr(cli, "load_portfolio", after_the_worker)
    assert pinned(2, _command, command, fixture_files, tmp_path, capfd) == clean
    assert clean[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_a_short_reply_is_not_decoded(
    pinned, fixture_files, tmp_path, capfd, monkeypatch, command
):
    parent = os.getpid()

    def dumps(value):
        data = marshal.dumps(value)
        return data[:-1] if _in_worker(parent) else data

    clean = pinned(1, _command, command, fixture_files, tmp_path, capfd)
    monkeypatch.setattr(cli, "marshal", types.SimpleNamespace(
        dumps=dumps, load=marshal.load, loads=marshal.loads))
    assert pinned(2, _command, command, fixture_files, tmp_path, capfd) == clean
    assert clean[0] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_an_internal_error_in_the_registry_load_exits_3(
    pinned, fixture_files, tmp_path, capfd, monkeypatch, command
):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_registry", broken)
    code, out, err, report = _parity(pinned, command, fixture_files, tmp_path, capfd)
    assert (code, out, err, report) == (3, "", "internal error: RuntimeError: boom\n", None)


@pytest.mark.parametrize("command", COMMANDS)
def test_an_interrupt_in_the_portfolio_load_leaves_no_worker(
    pinned, fixture_files, tmp_path, capfd, monkeypatch, command
):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "load_portfolio", interrupted)
    for cpus in (1, 2):
        with pytest.raises(KeyboardInterrupt):
            pinned(cpus, _command, command, fixture_files, tmp_path, capfd)
        assert capfd.readouterr() == ("", "")
        assert not (tmp_path / "report.json").exists()


_FEED = "import shutil, sys\nwith open(sys.argv[1], 'rb') as a, open(sys.argv[2], 'wb') as b:\n" \
        "    shutil.copyfileobj(a, b)\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_a_hazards_fifo_is_read_once_by_the_parent(
    pinned, fixture_files, tmp_path, capfd, monkeypatch, command
):
    """A FIFO fed by another process (not a thread: forking while a thread runs warns on
    Python 3.12+): the worker does not read it, and the parent reads all its bytes."""
    parent, load, read = os.getpid(), cli.load_hazard_table, tmp_path / "worker-read"

    def watched(*args, **kwargs):
        if _in_worker(parent):
            read.touch()
        return load(*args, **kwargs)

    monkeypatch.setattr(cli, "load_hazard_table", watched)
    source = tmp_path / "hazards-source.csv"
    source.write_bytes(fixture_files["hazards"].read_bytes())
    fixture_files["hazards"].unlink()
    os.mkfifo(fixture_files["hazards"])

    def fed(*args):
        writer = subprocess.Popen([sys.executable, "-c", _FEED, str(source),
                                   str(fixture_files["hazards"])])
        try:
            return _command(*args)
        finally:
            assert writer.wait(timeout=60) == 0

    one = pinned(1, fed, command, fixture_files, tmp_path, capfd)
    assert pinned(2, fed, command, fixture_files, tmp_path, capfd) == one
    assert one[0] == 0 and not read.exists()
