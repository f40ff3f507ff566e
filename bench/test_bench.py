"""Self-tests of the benchmark: a smoke run and one tamper test per checker.

    python3 -m pytest bench/test_bench.py -q

The smoke test runs every workload's pipeline on ``ScenarioConfig()`` defaults
with every output check on. Each tamper test corrupts one artifact of a
real pipeline run and asserts that its checker flags it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from run import Bench, run_pipeline  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def default_workload(name: str):
    """The named workload's pipeline on the generator's default scenario."""
    workload = WORKLOADS[name]
    scenario = {"phase": workload.phase} if workload.phase != "pre" else {}
    return dataclasses.replace(workload, scenario=scenario)


def run_once(name: str, work: Path):
    bench = Bench(default_workload(name), seed=7, seconds=0, work=work)
    bench.setup_repeats = 1
    bench.setup()
    run = run_pipeline(bench.runner, bench.workload, bench.layout("run0"), bench.seed)
    return bench, run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_defaults_pass_every_check(name, tmp_path):
    bench, run = run_once(name, tmp_path / name)
    assert run.ok, bench.ledger.problems
    bench.check_outputs(run)
    assert bench.ledger.problems == []
    assert bench.ledger.attempted >= 10


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One real post-conflux run: report, traces, jitter, features, eval."""
    bench, run = run_once("post-conflux", tmp_path_factory.mktemp("post-conflux"))
    assert run.ok, bench.ledger.problems
    truth = checks.read_json(bench.data / "truth.json")
    return bench.workload, run.layout, truth


def test_untampered_artifacts_pass(artifacts):
    workload, layout, truth = artifacts
    assert all(p == [] for p in checks.pipeline_checks(workload, layout, truth).values())


def test_report_counter_tamper_is_flagged(artifacts):
    _, layout, truth = artifacts
    report = checks.read_json(layout.report)
    assert checks.check_report_counts(report, truth) == []
    report["spam_circuits_dropped"] += 1
    assert checks.check_report_counts(report, truth)
    report["spam_circuits_dropped"] -= 1
    report["relay_channels_dropped"] += 1
    assert checks.check_report_counts(report, truth)


def test_label_tamper_is_flagged(artifacts):
    _, layout, truth = artifacts
    traces = checks.read_traces(layout.traces)
    i = next(i for i, t in enumerate(traces) if t.label is not None)
    traces[i] = dataclasses.replace(traces[i], label=traces[i].label + "-x")
    assert checks.check_labels(traces, truth, "circuit")


def test_unnormalized_trace_is_flagged(artifacts):
    _, layout, _ = artifacts
    traces = checks.read_traces(layout.traces)
    traces[0] = dataclasses.replace(traces[0], ts=traces[0].ts + 1)
    assert checks.check_normalized(traces)
    traces = checks.read_traces(layout.traces)
    ts = traces[1].ts.copy()
    ts[1], ts[2] = ts[2] + 1, ts[1]
    traces[1] = dataclasses.replace(traces[1], ts=ts)
    assert checks.check_normalized(traces)


@pytest.mark.parametrize("kind", ["direction", "timing", "tam"])
def test_feature_cell_tamper_is_flagged(artifacts, kind, tmp_path):
    workload, layout, _ = artifacts
    traces = checks.read_traces(layout.features_input(workload))
    copy = tmp_path / kind
    shutil.copytree(layout.features(kind), copy)
    assert checks.check_features(copy, kind, traces) == []
    bin_path = copy / "features.bin"
    array, header = checks.read_features(bin_path)
    array[len(array) // 2] += 1
    array.tofile(bin_path)
    assert checks.check_features(copy, kind, traces)


def test_jitter_tamper_is_flagged(artifacts):
    _, layout, _ = artifacts
    before = checks.read_traces(layout.traces)
    after = checks.read_traces(layout.jittered)
    assert checks.check_jitter(before, after) == []
    ts = after[0].ts.copy()
    ts[1:] += 20_000_001  # the first gap grows by more than the 20 ms jitter
    after[0] = dataclasses.replace(after[0], ts=ts)
    assert checks.check_jitter(before, after)
    after = checks.read_traces(layout.jittered)
    ts = after[1].ts.copy()
    ts[1:] -= ts[1]  # the first gap shrinks to 0
    after[1] = dataclasses.replace(after[1], ts=ts)
    assert checks.check_jitter(before, after)
    assert checks.check_jitter(before, after[:-1])


def test_eval_field_tamper_is_flagged(artifacts):
    _, layout, _ = artifacts
    report = checks.read_json(layout.eval_report)
    scores = checks.read_scores(layout.scores)
    assert checks.check_eval(report, scores) == []
    for field in ("recall", "fpr"):
        tampered = dict(report, **{field: report[field] + 0.01})
        assert checks.check_eval(tampered, scores)
    assert checks.check_eval(dict(report, records=report["records"] - 1), scores)


def test_time_report_tamper_is_flagged():
    truth = {"scenario": {"relay_auth_channels": 2}, "summary": {"n_visits": 60}}
    report = {"relay_channels_dropped": 2, "monitored_windows": 60, "windows_failed": 0}
    assert checks.check_time_report(report, truth) == []
    assert checks.check_time_report(dict(report, windows_failed=1), truth)
    assert checks.check_time_report(dict(report, monitored_windows=59), truth)


def test_conflux_sets_tamper_is_flagged():
    truth = {"summary": {"n_sets": 80}}
    assert checks.check_conflux({"sets": 80}, truth) == []
    assert checks.check_conflux({"sets": 79}, truth)


def test_scores_follow_the_acceptance_recipe(artifacts, tmp_path):
    """Stand-in scores: monitored rows predicted right, scores in [0, 1)."""
    _, layout, _ = artifacts
    out = tmp_path / "scores.csv"
    checks.write_scores(layout.features("tam") / "labels.csv", out)
    rows = checks.read_scores(out)
    assert out.read_bytes() == layout.scores.read_bytes()
    assert all(pred == true for _, true, pred, _ in rows if true != checks.NONMON)
    assert all(0 <= score < 1 for *_, score in rows)
    assert json.loads(layout.eval_report.read_text())["records"] == len(rows)
