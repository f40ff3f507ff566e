"""guardsift pipeline benchmark.

    python3 bench/run.py --workload pre-time [--seed 7] [--seconds N] [--trace 0|1]

Run from the repository root (or any checkout of it). ``--workload all``
runs the workloads one after another.

Each run generates the workload's logs with ``guardsift generate`` several
times (``setup_s`` is the median), then runs the workload's pipeline again
and again, one subcommand per process, for ``--seconds`` (default:
``run_seconds`` of BENCHMARK.json); no pipeline is started that would likely
end after that. The time metrics are means over the pipelines without the
fastest and the slowest; the medians and quartiles are printed next to
them. Every output is checked against ``truth.json`` and against
recomputations made here; a failed check or subcommand makes the run exit 1.

With ``--trace 1`` the pipeline alternates untraced and traced runs; the
traced subcommands run under ``tracing.py`` and the run reports the
per-layer metrics instead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from checks import pipeline_checks, read_json, write_scores  # noqa: E402
from hostspeed import at_reference_speed, probe_s  # noqa: E402
from tracing import SpanTotals, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Layout, Workload, pipeline_steps  # noqa: E402

SETUP_REPEATS = 5
MIN_TRACED_RUNS = 2
# per-layer counts that must not differ between two traced runs of one seed
REPEATING_COUNTS = (
    "trace.trace_id_calls", "segment.windows", "segment.traces_out", "ingest.cells",
    "sanitize.retained", "features.rows", "conflux.sets",
)


class BenchError(Exception):
    """The benchmark cannot run here at all (usage or environment)."""


class NothingMeasured(Exception):
    """A subcommand failed before the first complete pipeline run."""


@dataclass
class Ledger:
    """Operations attempted and failed: subcommand runs and output checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


@dataclass
class StepTime:
    wall_s: float
    rss_mb: float
    ok: bool
    probe_s: float  # the host-speed probe, timed just before the subcommand

    @property
    def ref_s(self) -> float:
        """The wall time at the reference host speed."""
        return at_reference_speed(self.wall_s, self.probe_s)


class Runner:
    """Runs guardsift subcommands from the checkout's ``src`` as child processes."""

    def __init__(self, logs: Path, ledger: Ledger):
        self.logs = logs
        self.ledger = ledger
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.n = 0
        probe_s()  # warm up the probe's code and data

    def run(self, argv: tuple[str, ...] | list[str], spans: Path | None = None) -> StepTime:
        if spans is None:
            cmd = [sys.executable, "-m", "guardsift.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), str(spans), *argv]
        self.n += 1
        log = self.logs / f"{self.n:04d}-{argv[0]}.log"
        probe = probe_s()
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        problems = []
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            problems.append(f"exit {proc.returncode}: {' | '.join(tail)}")
        self.ledger.record(f"guardsift {argv[0]}", problems)
        return StepTime(wall, usage.ru_maxrss / 1024.0, not problems, probe)


@dataclass
class PipelineRun:
    layout: Layout
    ok: bool = True
    steps: dict[str, StepTime] = field(default_factory=dict)  # by Step.name

    @property
    def pipeline_s(self) -> float:
        return sum(t.wall_s for t in self.steps.values())


def run_pipeline(
    runner: Runner, workload: Workload, layout: Layout, seed: int, spans_dir: Path | None = None
) -> PipelineRun:
    layout.run.mkdir(parents=True)
    result = PipelineRun(layout)
    for i, step in enumerate(pipeline_steps(workload, layout, seed)):
        if step.name == "eval":
            write_scores(layout.features("direction") / "labels.csv", layout.scores)
        spans = spans_dir / f"{i:02d}-{step.name}.json" if spans_dir else None
        t = runner.run(step.argv, spans)
        if not t.ok:
            result.ok = False
            return result
        result.steps[step.name] = t
    return result


def pipeline_metrics(steps: dict[str, StepTime], groups: dict[str, str], cells: int) -> dict[str, float]:
    """The end-to-end metrics of one pipeline, times at the reference host speed."""
    pipeline_s = sum(t.ref_s for t in steps.values())
    return {
        "pipeline_s": pipeline_s,
        "cells_per_s": cells / pipeline_s,
        "sanitize_s": sum(t.ref_s for name, t in steps.items() if groups[name] == "sanitize"),
        "featurize_s": sum(t.ref_s for name, t in steps.items() if groups[name] == "featurize"),
        "peak_rss_mb": max(t.rss_mb for t in steps.values()),
        "wall_pipeline_s": sum(t.wall_s for t in steps.values()),
        "probe_s": statistics.median(t.probe_s for t in steps.values()),
    }


def tree_digest(path: Path) -> str:
    """One hash over every file below ``path``, by relative name."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        with open(f, "rb") as handle:  # streamed: the child's peak RSS counts ours
            h.update(hashlib.file_digest(handle, "sha256").digest())
    return h.hexdigest()


def trimmed_mean(values: list[float]) -> float:
    """The mean without the smallest and the largest value (from 5 values on)."""
    ordered = sorted(values)
    return statistics.fmean(ordered[1:-1] if len(ordered) >= 5 else ordered)


def room_for_another(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether a repeat as long as the median so far ends within ``seconds``."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One workload in one work directory inside the checkout."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.setup_repeats = SETUP_REPEATS
        self.work = work
        self.ledger = Ledger()
        logs = work / "logs"
        logs.mkdir(parents=True)
        self.runner = Runner(logs, self.ledger)
        self.data = work / "data"
        scenario = work / "scenario.json"
        scenario.write_text(json.dumps(workload.scenario), encoding="utf-8")
        self.generate_argv = ["generate", "--config", str(scenario), "--seed", str(seed)]
        if workload.sanitize_config is not None:
            (work / "sanitize.json").write_text(json.dumps(workload.sanitize_config), encoding="utf-8")

    def layout(self, name: str) -> Layout:
        return Layout(self.data, self.work / name)

    def guard_cells(self) -> int:
        with open(self.data / "guard.csv", "rb") as handle:
            return sum(1 for line in handle if line[:1].isdigit())

    def check_outputs(self, first: PipelineRun) -> None:
        truth = read_json(self.data / "truth.json")
        for name, problems in pipeline_checks(self.workload, first.layout, truth).items():
            self.ledger.record(f"check {name}", problems)

    def check_repeat(self, first: str, run: PipelineRun) -> None:
        """A repeated pipeline on the same inputs writes the same bytes."""
        if run.ok:
            same = tree_digest(run.layout.run) == first
            self.ledger.record("check repeat_identical", [] if same else ["outputs differ from the first run"])
            shutil.rmtree(run.layout.run)

    def setup(self) -> list[float]:
        """Generate the logs ``setup_repeats`` times; later copies must match.

        Returns the times at the reference host speed.
        """
        times = []
        digest = None
        for k in range(self.setup_repeats):
            out = self.data if k == 0 else self.work / f"data{k}"
            t = self.runner.run([*self.generate_argv, "--out", str(out)])
            if not t.ok:
                raise NothingMeasured()
            times.append(t.ref_s)
            if k == 0:
                digest = tree_digest(out)
            else:
                same = tree_digest(out) == digest
                self.ledger.record("check generate_identical", [] if same else ["generated logs differ"])
                shutil.rmtree(out)
        return times

    def measure(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        """Untraced pipelines for ``seconds``.

        Returns the metrics of each pipeline run, and what the run reports:
        the mean of each time metric over the pipelines once the fastest and
        the slowest are dropped, the median peak RSS and the median setup
        time. Times are at the reference host speed (see ``hostspeed``).
        The host's speed swings by a third within seconds; a mean over the
        whole run follows the share of fast and slow stretches smoothly,
        where a median or a best jumps between them.
        """
        setup_times = self.setup()
        cells = self.guard_cells()
        runs: list[PipelineRun] = []
        start = time.perf_counter()
        digest = None
        while not runs or room_for_another(start, self.seconds, [r.pipeline_s for r in runs]):
            run = run_pipeline(self.runner, self.workload, self.layout(f"run{len(runs)}"), self.seed)
            if not run.ok:
                break
            runs.append(run)
            if digest is None:
                digest = tree_digest(run.layout.run)
            else:
                self.check_repeat(digest, run)
        if not runs:
            raise NothingMeasured()
        self.check_outputs(runs[0])
        groups = {step.name: step.group for step in pipeline_steps(self.workload, runs[0].layout, self.seed)}
        samples: dict[str, list[float]] = {"setup_s": setup_times}
        for run in runs:
            for key, value in pipeline_metrics(run.steps, groups, cells).items():
                samples.setdefault(key, []).append(value)
        reported = {
            key: trimmed_mean(samples[key]) for key in ("pipeline_s", "sanitize_s", "featurize_s", "wall_pipeline_s")
        }
        reported["cells_per_s"] = cells / reported["pipeline_s"]
        reported["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
        reported["setup_s"] = statistics.median(setup_times)
        reported["probe_s"] = statistics.median(samples["probe_s"])
        return samples, reported

    def measure_traced(self) -> tuple[dict[str, list[float]], dict[str, float]]:
        """Alternate untraced and traced pipelines; per-layer samples."""
        spans_root = self.work / "spans"
        generate_spans = spans_root / "generate.json"
        spans_root.mkdir()
        if not self.runner.run([*self.generate_argv, "--out", str(self.data)], generate_spans).ok:
            raise NothingMeasured()
        generate_payload = json.loads(generate_spans.read_text(encoding="utf-8"))
        samples: dict[str, list[float]] = {}
        untraced: list[float] = []
        traced: list[float] = []
        first_counts: dict[str, float] | None = None
        digest = None
        start = time.perf_counter()
        pairs: list[float] = []
        while len(traced) < MIN_TRACED_RUNS or room_for_another(start, self.seconds, pairs):
            i = len(traced)
            plain = run_pipeline(self.runner, self.workload, self.layout(f"plain{i}"), self.seed)
            spans_dir = spans_root / f"run{i}"
            spans_dir.mkdir()
            run = run_pipeline(self.runner, self.workload, self.layout(f"traced{i}"), self.seed, spans_dir)
            if not (plain.ok and run.ok):
                break
            untraced.append(plain.pipeline_s)
            traced.append(run.pipeline_s)
            pairs.append(plain.pipeline_s + run.pipeline_s)
            totals = SpanTotals()
            totals.add(generate_payload)
            for path in sorted(spans_dir.iterdir()):
                totals.add(json.loads(path.read_text(encoding="utf-8")))
            metrics = layer_metrics(totals)
            for key, value in metrics.items():
                samples.setdefault(key, []).append(value)
            counts = {k: metrics[k] for k in REPEATING_COUNTS}
            if digest is None:
                digest = tree_digest(run.layout.run)
                first_counts = counts
                self.check_outputs(run)
            else:
                diff = [f"{k} {first_counts[k]} -> {counts[k]}" for k in counts if counts[k] != first_counts[k]]
                self.ledger.record("check counts_repeat", diff)
                self.check_repeat(digest, run)
            self.check_repeat(digest, plain)
        if not traced:
            raise NothingMeasured()
        # each traced run follows its untraced twin, so the paired difference
        # cancels most of the host's slow drift in speed
        overhead = {
            "traced_pipeline_s": statistics.median(traced),
            "untraced_pipeline_s": statistics.median(untraced),
            "tracing.overhead_s": statistics.median(t - u for t, u in zip(traced, untraced)),
        }
        return samples, overhead


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text(encoding="utf-8"))


def check_environment() -> None:
    if not (ROOT / "src" / "guardsift" / "cli.py").is_file():
        raise BenchError(f"no guardsift sources under {ROOT / 'src'}; run from a full checkout")


def run_workload(workload: Workload, args, spec: dict) -> dict:
    """Measure one workload; returns the result object for the last line."""
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    bench = Bench(workload, args.seed, args.seconds, work)
    metrics: dict[str, dict] = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        if args.trace:
            samples, overhead = bench.measure_traced()
            reported = {k: statistics.median(v) for k, v in samples.items()}
            reported.update(overhead)
            print(f"# {workload.name} traced, seed {args.seed}, {len(samples['sanitize.s'])} traced runs (medians)")
            for key in sorted(reported):
                print(f"{workload.name}  {key:32s} {reported[key]:.6g}")
        else:
            samples, reported = bench.measure()
            print(f"# {workload.name} untraced, seed {args.seed}; times at the reference host speed")
            units = {e["name"]: e["unit"] for e in spec["end_to_end"]} | {"wall_pipeline_s": "s", "probe_s": "s"}
            for name, unit in units.items():
                q1, med, q3 = quartiles(samples[name])
                print(
                    f"{workload.name}  {name:15s} {reported[name]:.4f} {unit}"
                    f"  median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples[name])}"
                )
        metrics = {
            e["name"]: {"value": reported[e["name"]], "unit": e["unit"]}
            for e in wanted
            if e["name"] in reported
        }
    except NothingMeasured:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ledger = bench.ledger
    for problem in ledger.problems:
        print(f"{workload.name}: FAILED {problem}", file=sys.stderr)
    frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"{workload.name}  failed_frac  {frac:.4f} ratio  ({ledger.failed}/{ledger.attempted} operations)")
    correct = ledger.failed == 0 and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running subcommand is killed and work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        check_environment()
        spec = load_spec()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args, spec) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
