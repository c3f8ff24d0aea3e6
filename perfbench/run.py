"""The geostress benchmark runner.

    python3 perfbench/run.py --workload cli_json --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Generates the workload's inputs from the seed, measures for about
``--seconds`` seconds, checks every output against the formulas, and
prints one line per metric followed by a JSON result as the last line.
``--trace 0`` reports the end-to-end metrics, measured untraced;
``--trace 1`` reports the per-layer metrics from traced runs. The
end-to-end times are wall times converted to reference seconds, against a
fixed loop timed around each sample (see reference.py). ``all``
runs every workload both ways. The workloads and the reasons for them
are in BENCHMARK.json and perfbench/NOTES.md.

Every measurement is one fresh child process, waited on before the next
starts: ``python3 -m geostress.cli`` for the CLI workloads (the same
``main`` the ``stress`` script calls) and ``perfbench/sweep.py`` for the
library workload. Nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
from reference import at_reference_speed, reference_seconds  # noqa: E402
from tracing import layer_metrics  # noqa: E402

CHILD_TIMEOUT_S = 120
# Rounds each measurement makes at least, untraced and traced; a round is
# one of each kind of child (or one library-mode iteration of each kind).
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int          # instruments
    geos: int       # geo units
    sectors: int
    builtin: str    # built-in scenarios run: "all" or one id
    variants: int   # seeded scenario variants added to the built-ins (library mode)
    format: str     # report format; "" for the library mode

    @property
    def library(self) -> bool:
        return not self.format


# Sizes keep one child near 2-3 s on a 2-core box, so a run holds many
# samples; see perfbench/NOTES.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("cli_json", n=15_000, geos=50, sectors=5, builtin="all", variants=0,
                 format="json"),
        Workload("cli_csv_sparse", n=30_000, geos=15_000, sectors=1_000, builtin="compound",
                 variants=0, format="csv"),
        Workload("sweep_lib", n=15_000, geos=50, sectors=5, builtin="all", variants=4,
                 format=""),
    )
}


class Failures:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, messages: list[str], operations: int = 1) -> None:
        self.attempted += operations
        if messages:
            self.failed += operations
            self.messages += messages


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _on_alarm(signum, frame):
    raise TimeoutError(f"child still running after {CHILD_TIMEOUT_S} s")


def spawn(argv: list[str], work: str) -> dict:
    """Run one child to completion; return its wall time, exit code, peak
    RSS and stdout. The peak RSS comes from ``wait4`` on that child alone."""
    out_path = os.path.join(work, "child.stdout")
    err_path = os.path.join(work, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"seconds": elapsed, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": stdout, "stderr": stderr}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _stress(*args: str) -> list[str]:
    return [sys.executable, "-m", "geostress.cli", *args]


def _launcher(record: str, trace: bool, *args: str) -> list[str]:
    flags = ["--trace"] if trace else []
    return [sys.executable, os.path.join(HERE, "tracing.py"), "--out", record, *flags,
            "--", *args]


def builtin_docs(work: str) -> tuple[list[dict], list[str]]:
    """The built-in scenario documents, as ``stress scenarios print`` gives
    them, and the third-party packages importing the program pulled in.
    This first child also compiles the program's bytecode, untimed."""
    record = os.path.join(work, "imports.json")
    child = spawn(_launcher(record, False, "scenarios", "print"), work)
    if child["code"] != 0:
        raise RuntimeError(f"stress scenarios print failed: {child['stderr'].strip()}")
    decoder, text, docs, pos = json.JSONDecoder(), child["stdout"], [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
    with open(record, encoding="utf-8") as fh:
        return docs, json.load(fh)["third_party"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _median_layers(samples: list[dict]) -> dict[str, float]:
    if not samples:
        return layer_metrics([], {})
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure_cli(w: Workload, inputs: dict, docs: list[dict], seed: int, seconds: float,
                trace: bool, work: str, fails: Failures) -> dict:
    """Alternate two kinds of child until ``seconds`` have passed and each
    kind ran at least the minimum number of rounds: ``stress validate`` and
    ``stress run``, or with ``trace`` untraced and traced ``stress run``.
    Untraced, every child is bracketed by the reference loop; a child's
    closing loop is also the next child's opening loop."""
    paths = inputs["paths"]
    flags = ["--portfolio", paths["portfolio"], "--hazards", paths["hazards"],
             "--fragility", paths["fragility"], "--geounits", paths["geounits"]]
    report_path = os.path.join(work, f"report.{w.format}")
    run_args = ["run", *flags, "--builtin", w.builtin, "--format", w.format,
                "--out", report_path]
    record_path = os.path.join(work, "trace.json")
    scenarios = docs if w.builtin == "all" else [d for d in docs if d["id"] == w.builtin]
    checker = check.check_json_report if w.format == "json" else check.check_csv_report
    samples = {"setup_s": [], "setup_loop_s": [], "run_s": [], "run_loop_s": [], "rss_mb": [],
               "traced_run_s": [], "layers": []}
    loops = [] if trace else [reference_seconds()]

    def loop_around() -> float:
        """The mean of the loop times just before and just after the child
        that just ended."""
        loops.append(reference_seconds())
        return (loops[-2] + loops[-1]) / 2.0

    # The first report is checked after the loop, so the parsed report does
    # not raise this process's RSS, which every later child would inherit
    # as its starting peak.
    first_path = os.path.join(work, f"first-report.{w.format}")
    first = {}

    def run_child(argv: list[str]) -> dict:
        if os.path.exists(report_path):
            os.remove(report_path)
        child = spawn(argv, work)
        if child["code"] != 0:
            fails.record([f"exit {child['code']}: {child['stderr'].strip()[-500:]}"])
        elif not first:
            first.update(sha=_sha256(report_path), stdout=child["stdout"], copies=1)
            os.replace(report_path, first_path)
        elif _sha256(report_path) == first["sha"] and child["stdout"] == first["stdout"]:
            first["copies"] += 1  # right or wrong together with the first report
        else:
            fails.record(["report or summary differs from the first run on the same inputs"])
        return child

    def validate() -> None:
        child = spawn(_stress("validate", *flags), work)
        ok = child["code"] == 0 and child["stdout"] == "ok\n"
        fails.record([] if ok else [f"validate: exit {child['code']}: {child['stderr'][-500:]}"])
        samples["setup_s"].append(child["seconds"])
        samples["setup_loop_s"].append(loop_around())

    def untraced_run() -> None:
        child = run_child(_stress(*run_args))
        samples["run_s"].append(child["seconds"])
        samples["rss_mb"].append(child["rss_mb"])
        if not trace:
            samples["run_loop_s"].append(loop_around())

    def traced_run() -> None:
        child = run_child(_launcher(record_path, True, *run_args))
        samples["traced_run_s"].append(child["seconds"])
        if child["code"] == 0:
            with open(record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            samples["layers"].append(layer_metrics(record["spans"], record["counts"]))
            samples["spans"], samples["absent"] = record["spans"], record["absent"]
            samples["third_party"] = record["third_party"]

    steps = (untraced_run, traced_run) if trace else (validate, untraced_run)
    deadline = time.perf_counter() + seconds
    rounds = 0
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    while rounds < min_rounds or time.perf_counter() < deadline:
        for step in steps:
            step()
        rounds += 1
    if first:
        with open(first_path, "rb") as fh:
            data = fh.read()
        try:
            problems = checker(data, first["stdout"], check.Inputs(paths), scenarios, seed)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            problems = [f"report has the wrong shape: {type(exc).__name__}: {exc}"]
        fails.record(problems, operations=first["copies"])
        samples["report_bytes"] = len(data)
    samples["report_sha256"] = first.get("sha")
    samples["scenarios"] = len(scenarios)
    return samples


def measure_library(w: Workload, inputs: dict, docs: list[dict], seed: int, seconds: float,
                    trace: bool, work: str, fails: Failures) -> dict:
    """One ``sweep.py`` child does the whole library-mode measurement."""
    config = {"paths": inputs["paths"], "scenario_paths": inputs["scenario_paths"],
              "scenario_docs": docs, "seconds": seconds, "trace": trace,
              "min_iterations": 2 * MIN_TRACED_ROUNDS if trace else MIN_ROUNDS,
              "sample_seed": seed, "out": os.path.join(work, "sweep.json")}
    config_path = os.path.join(work, "sweep-config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    child = spawn([sys.executable, os.path.join(HERE, "sweep.py"), config_path], work)
    if child["code"] != 0:
        operations = config["min_iterations"] * (1 + len(docs))
        fails.record([f"sweep worker: exit {child['code']}: {child['stderr'][-500:]}"],
                     operations)
        return {"scenarios": len(docs)}
    with open(config["out"], encoding="utf-8") as fh:
        out = json.load(fh)
    fails.attempted += out["attempted"]
    fails.failed += out["failed"]
    fails.messages += out["failures"]
    samples = {k: out[k] for k in ("setup_s", "setup_loop_s", "run_s", "run_loop_s",
                                   "traced_run_s", "layers", "spans", "absent", "third_party")}
    samples.update(rss_mb=[out["peak_rss_mb"]], report_sha256=out.get("report_sha256"),
                   report_bytes=0, scenarios=len(docs))
    return samples


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    """Generate, measure and check one workload; return the result object
    the runner prints, plus the run record."""
    work = os.path.join(HERE, "_work", f"{w.name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    fails = Failures()
    try:
        builtins, third_party = builtin_docs(work)
        docs = gen.scenario_docs(builtins, w.variants, seed)
        if w.library:
            inputs = gen.generate(work, seed, w.n, w.geos, w.sectors, scenarios=docs)
        else:
            inputs = gen.generate(work, seed, w.n, w.geos, w.sectors)
            docs = builtins
        measure = measure_library if w.library else measure_cli
        samples = measure(w, inputs, docs, seed, seconds, trace, work, fails)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The `scenarios print` child counts as one more CLI invocation; it fails
    # if the program pulled in any third-party package.
    imported = sorted(set(third_party) | set(samples.get("third_party", [])))
    fails.record([f"the program imported third-party packages: {imported}"] if imported else [])

    props = inputs["properties"]
    run_s = _median(samples.get("run_s", []))
    if trace:
        values = _median_layers(samples.get("layers", []))
        values["ingest.bytes"] = float(props["bytes"])
        values["ingest.inst_per_geo"] = props["inst_per_geo"]
        values["ingest.inst_per_sector"] = props["inst_per_sector"]
        values["trace.overhead_s"] = _median(samples.get("traced_run_s", [])) - run_s
        values["wall.run_s"] = run_s
        values["wall.rows_per_s"] = w.n * samples["scenarios"] / run_s if run_s else 0.0
    else:
        run_ref = at_reference_speed(samples.get("run_s", []), samples.get("run_loop_s", []))
        values = {
            "run_s": run_ref,
            "rows_per_s": w.n * samples["scenarios"] / run_ref if run_ref else 0.0,
            "setup_s": at_reference_speed(samples.get("setup_s", []),
                                          samples.get("setup_loop_s", [])),
            "peak_rss_mb": _median(samples.get("rss_mb", [])),
            "success_ratio": (fails.attempted - fails.failed) / fails.attempted,
        }
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result = {"correct": fails.failed == 0, "attempted": fails.attempted,
              "failed": fails.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    record = {
        "workload": w.name, "seed": seed, "trace": trace, "seconds": seconds,
        "git_sha": _git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "n": w.n, "geos": w.geos, "sectors": w.sectors, "scenarios": samples["scenarios"],
        "properties": props, "report_sha256": samples.get("report_sha256"),
        "report_bytes": samples.get("report_bytes"), "third_party_imports": imported,
        "absent_layers": samples.get("absent", []), "failures": fails.messages[:50],
        "samples": {k: samples[k] for k in ("setup_s", "setup_loop_s", "run_s", "run_loop_s",
                                            "rss_mb", "traced_run_s")
                    if k in samples},
        "result": result,
    }
    return {"result": result, "record": record, "spans": samples.get("spans", [])}


def _save(outcome: dict) -> None:
    """Keep the run record and the last traced spans under perfbench/_runs/."""
    record = outcome["record"]
    runs = os.path.join(HERE, "_runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}"
    stem = os.path.join(runs, name)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if outcome["spans"]:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(outcome["spans"], fh)


def _print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:15s} {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{workload:15s} attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")


def main() -> int:
    parser = argparse.ArgumentParser(description="geostress benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "geostress", "cli.py")):
        print(f"error: no geostress sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.workload != "all":
        outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                               bool(args.trace), spec)
        _save(outcome)
        for message in outcome["record"]["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
        _print_metrics(args.workload, outcome["result"])
        print(json.dumps(outcome["result"]))
        return 0

    # Each workload runs in a fresh runner process, so one workload's checks
    # cannot raise the starting RSS of the next workload's children.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace],
                stdout=subprocess.PIPE, text=True, check=True)
            *lines, last = proc.stdout.splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["metrics"].setdefault(name, {}).update(result["metrics"])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
