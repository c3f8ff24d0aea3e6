"""``stress run`` on two processes: given two usable CPUs and two or more
scenarios, a forked worker evaluates the later half of the scenarios and
writes their part of the report, while the parent writes the first half.
Before that, the load worker (``test_load_worker``) links the side tables:
two usable CPUs fork one more process.
The report bytes, stdout, stderr and exit code are those of the same run on
one process, and neither the worker nor its part file outlives the run.

Each run sets the number of usable CPUs through ``cli._usable_cpus``, the
one probe the split reads, so that both paths run on any host.
"""

import gc
import json
import os
import signal

import pytest

from geostress import builtin_scenarios, cli, run_scenario, serialize_scenario
from geostress.cli import main
from geostress.errors import DomainError
from test_golden import INPUTS, gen

# Each scenario count as (--scenario documents, --builtin): built-ins mixed with
# parsed documents, odd and even splits.
MIXES = {2: (1, "orderly"), 3: (2, "physical"), 4: (3, "compound"), 5: (1, "all")}

FAILURES = {
    "input-error": (DomainError("boom"), 2, "error: DomainError: boom\n"),
    "internal-error": (RuntimeError("boom"), 3, "internal error: RuntimeError: boom\n"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 3,000-row gen.py input set and three parsed scenario documents."""
    directory = tmp_path_factory.mktemp("two-process")
    paths = gen.generate(str(directory), 7, 3000, 30, 5)["paths"]
    builtins = [json.loads(serialize_scenario(s)) for s in builtin_scenarios()]
    documents = []
    for doc in gen.scenario_docs(builtins, 3, 7)[len(builtins):]:
        documents.append(directory / f"{doc['id']}.json")
        documents[-1].write_text(json.dumps(doc))
    return paths, documents


def _argv(inputs, out, count=4, format="json"):
    paths, documents = inputs
    n_documents, builtin = MIXES[count]
    argv = ["run", "--out", str(out), "--format", format, "--builtin", builtin]
    for name in INPUTS:
        argv += [f"--{name}", paths[name]]
    for path in documents[:n_documents]:
        argv += ["--scenario", str(path)]
    return argv


def _run(argv, cpus, monkeypatch, capsys):
    """``main(argv)`` with ``cpus`` usable CPUs: its exit code, stdout, stderr and the
    number of processes it forked."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        forks.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(os, "fork", counted)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, len(forks)


def _assert_nothing_left(directory):
    assert [p.name for p in directory.iterdir() if p.name.startswith(".stress-")] == []
    with pytest.raises(ChildProcessError):  # no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("format", ["json", "csv"])
@pytest.mark.parametrize("count", sorted(MIXES))
def test_two_processes_write_the_one_process_report(
    inputs, tmp_path, monkeypatch, capsys, count, format
):
    parent, evaluated = os.getpid(), []

    def watched(linked, scenario, top_k):
        if os.getpid() == parent:
            evaluated.append(scenario.id)
        return run_scenario(linked, scenario, top_k=top_k)

    monkeypatch.setattr(cli, "run_scenario", watched)
    runs = {}
    for cpus in (1, 2):
        evaluated.clear()
        out = tmp_path / f"{cpus}.{format}"
        code, stdout, stderr, forks = _run(_argv(inputs, out, count, format), cpus,
                                           monkeypatch, capsys)
        assert (code, stderr, forks) == (0, "", 2 * (cpus - 1))  # the load worker too
        runs[cpus] = (stdout, out.read_bytes(), list(evaluated))
        _assert_nothing_left(tmp_path)
    (one_out, one_report, everything), (two_out, two_report, first_half) = runs[1], runs[2]
    assert two_report == one_report and two_out == one_out
    assert len(one_out.splitlines()) == len(everything) == count
    assert first_half == everything[:(count + 1) // 2]  # the parent's share


def test_one_scenario_forks_only_the_load_worker(inputs, tmp_path, monkeypatch, capsys):
    argv = _argv(inputs, tmp_path / "r.json")
    argv[argv.index("--builtin") + 1] = "physical"
    argv = argv[:argv.index("--scenario")]
    code, _, _, forks = _run(argv, 2, monkeypatch, capsys)
    assert (code, forks) == (0, 1)


def test_a_fork_that_fails_leaves_the_run_on_one_process(inputs, tmp_path, monkeypatch, capsys):
    expected = _run(_argv(inputs, tmp_path / "one.json"), 1, monkeypatch, capsys)
    expected += ((tmp_path / "one.json").read_bytes(),)

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", failing_fork)
    code = main(_argv(inputs, tmp_path / "two.json"))
    captured = capsys.readouterr()
    assert expected == (code, captured.out, captured.err, 0, (tmp_path / "two.json").read_bytes())
    _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("format", ["json", "csv"])
@pytest.mark.parametrize("share", ["parent", "worker"])
@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_a_failing_share_fails_as_one_process_does(
    inputs, tmp_path, monkeypatch, capsys, failure, share, format
):
    # Of four scenarios, the parent evaluates the first two and the worker the last two.
    error, exit_code, stderr = FAILURES[failure]
    failing = "disorderly-v1" if share == "parent" else "compound"
    names = [json.loads(p.read_text())["id"] for p in inputs[1][:3]] + ["compound"]
    assert names.index(failing) == (1 if share == "parent" else 3)

    def failing_run(linked, scenario, top_k):
        if scenario.id == failing:
            raise error
        return run_scenario(linked, scenario, top_k=top_k)

    monkeypatch.setattr(cli, "run_scenario", failing_run)
    out = tmp_path / f"report.{format}"
    for cpus in (1, 2):
        outcome = _run(_argv(inputs, out, 4, format), cpus, monkeypatch, capsys)
        assert outcome == (exit_code, "", stderr, 2 * (cpus - 1))
        assert not out.exists()
        _assert_nothing_left(tmp_path)


@pytest.mark.parametrize("share_fails", [False, True], ids=["clean", "share-fails"])
def test_a_worker_killed_by_a_signal_is_replaced_by_the_parent(
    inputs, tmp_path, monkeypatch, capsys, share_fails
):
    parent = os.getpid()

    def killing(linked, scenario, top_k):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if share_fails and scenario.id == "compound":  # in the worker's share
            raise DomainError("boom")
        return run_scenario(linked, scenario, top_k=top_k)

    monkeypatch.setattr(cli, "run_scenario", killing)
    runs = []
    for cpus in (1, 2):
        out = tmp_path / f"{cpus}.json"
        runs.append(_run(_argv(inputs, out), cpus, monkeypatch, capsys)[:3])
        runs[-1] += (out.read_bytes() if out.exists() else None,)
        _assert_nothing_left(tmp_path)
    assert runs[0] == runs[1]
    if share_fails:
        assert runs[0] == (2, "", "error: DomainError: boom\n", None)
    else:
        assert runs[0][0] == 0 and len(runs[0][1].splitlines()) == 4


def test_an_interrupt_leaves_no_worker_and_no_file(inputs, tmp_path, monkeypatch):
    parent = os.getpid()

    def interrupted(linked, scenario, top_k):
        if os.getpid() == parent and scenario.id == "disorderly-v1":  # the parent's second
            raise KeyboardInterrupt
        return run_scenario(linked, scenario, top_k=top_k)

    monkeypatch.setattr(cli, "run_scenario", interrupted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "report.json"
    with pytest.raises(KeyboardInterrupt):
        main(_argv(inputs, out))
    assert not out.exists()
    _assert_nothing_left(tmp_path)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_two_processes_leave_the_collector_as_they_found_it(
    collector, inputs, tmp_path, monkeypatch, capsys
):
    """The twin of ``test_cli``'s one-process check: both processes run with the
    collector paused, and the parent leaves it as it found it."""
    parent, during, seen = os.getpid(), [], tmp_path / "worker.txt"

    def watched(linked, scenario, top_k):
        if os.getpid() == parent:
            during.append(gc.isenabled())
        else:
            with open(seen, "a", encoding="ascii") as fh:
                fh.write(f"{gc.isenabled()}\n")
        return run_scenario(linked, scenario, top_k=top_k)

    monkeypatch.setattr(cli, "run_scenario", watched)
    code, _, _, forks = _run(_argv(inputs, tmp_path / "r.json"), 2, monkeypatch, capsys)
    assert (code, forks) == (0, 2)
    assert gc.isenabled() is collector
    assert during == [False, False]
    assert seen.read_text(encoding="ascii") == "False\nFalse\n"
