"""Output checks against ``truth.json`` and independent recomputation.

Each checker returns a list of problems; an empty list is a pass. The
checkers read the artifacts as files and never import guardsift, so a bug
in the program cannot hide in a shared helper.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (
    FEATURE_KINDS,
    FEATURE_LENGTH,
    JITTER_MAX_DURATION_S,
    JITTER_MS,
    JITTER_SEED,
    N_SLOTS,
    T_MAX_S,
    Layout,
    Workload,
)

SEC = 1_000_000_000
NONMON = -1

# truth.json stage name -> sanitize report.json counter
STAGE_COUNTERS = {
    "spam": "spam_circuits_dropped",
    "unselected": "visit_extra_dropped",
    "handshake": "handshake_dropped",
    "non_conflux": "conflux_heuristic_dropped",
    "small": "small_dropped",
    "retained": "retained",
}


@dataclass(frozen=True)
class TraceRow:
    label: str | None
    ts: np.ndarray  # int64 nanoseconds
    d: np.ndarray  # int8 directions


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_traces(path: Path) -> list[TraceRow]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        cells = np.array(payload["cells"], dtype=np.int64).reshape(-1, 2)
        rows.append(TraceRow(payload["label"], cells[:, 0], cells[:, 1].astype(np.int8)))
    return rows


def check_report_counts(report: dict, truth: dict) -> list[str]:
    """Circuit path: each removal counter equals the truth's stage count."""
    problems = []
    stage_counts = truth["summary"]["stage_counts"]
    for stage, counter in STAGE_COUNTERS.items():
        if report.get(counter) != stage_counts.get(stage, 0):
            problems.append(
                f"report {counter}={report.get(counter)} but truth {stage}="
                f"{stage_counts.get(stage, 0)}"
            )
    if report.get("traces_written") != stage_counts.get("retained", 0):
        problems.append(f"traces_written={report.get('traces_written')} differs from retained")
    return problems + check_relay_dropped(report, truth)


def check_relay_dropped(report: dict, truth: dict) -> list[str]:
    expected = truth["scenario"]["relay_auth_channels"]
    if report.get("relay_channels_dropped") != expected:
        return [f"relay_channels_dropped={report.get('relay_channels_dropped')}, expected {expected}"]
    return []


def check_time_report(report: dict, truth: dict) -> list[str]:
    """Time path: one window per truth visit and no failed window."""
    problems = check_relay_dropped(report, truth)
    n_visits = truth["summary"]["n_visits"]
    if report.get("monitored_windows") != n_visits:
        problems.append(f"monitored_windows={report.get('monitored_windows')}, truth visits={n_visits}")
    if report.get("windows_failed") != 0:
        problems.append(f"windows_failed={report.get('windows_failed')}")
    return problems


def expected_labels(truth: dict, segmentation: str) -> Counter:
    """Labelled traces per page that the truth says the export must hold."""
    if segmentation == "time":
        return Counter(v["label"] for v in truth["visits"])
    return Counter(
        c["label"]
        for c in truth["circuits"]
        if c["expected_stage"] == "retained" and c["label"] is not None
    )


def check_labels(traces: list[TraceRow], truth: dict, segmentation: str) -> list[str]:
    got = Counter(t.label for t in traces if t.label is not None)
    want = expected_labels(truth, segmentation)
    if got != want:
        diff = sorted(set(got.items()) ^ set(want.items()))[:5]
        return [f"labels per page differ from truth (first differences: {diff})"]
    return []


def check_normalized(traces: list[TraceRow]) -> list[str]:
    """Every trace is non-empty, starts at 0, is time-sorted and uses +-1."""
    problems = []
    for i, t in enumerate(traces):
        if len(t.ts) == 0:
            problems.append(f"trace {i} is empty")
        elif t.ts[0] != 0:
            problems.append(f"trace {i} starts at {t.ts[0]}")
        elif np.any(np.diff(t.ts) < 0):
            problems.append(f"trace {i} is not sorted")
        elif not np.all(np.abs(t.d) == 1):
            problems.append(f"trace {i} has a direction other than +-1")
    return problems[:5]


def expected_features(kind: str, traces: list[TraceRow]) -> np.ndarray:
    """Recompute one ``features.bin`` from the exported traces."""
    n = len(traces)
    if kind == "tam":
        t_max_ns = int(round(T_MAX_S * SEC))
        out = np.zeros((n, 2, N_SLOTS), dtype=np.int64)
        for i, t in enumerate(traces):
            keep = t.ts <= t_max_ns
            slots = np.minimum(t.ts[keep] * N_SLOTS // t_max_ns, N_SLOTS - 1)
            rows = np.where(t.d[keep] == 1, 0, 1)
            np.add.at(out[i], (rows, slots), 1)
        return out
    dtype = np.int8 if kind == "direction" else np.float64
    out = np.zeros((n, FEATURE_LENGTH), dtype=dtype)
    for i, t in enumerate(traces):
        ts, d = t.ts[:FEATURE_LENGTH], t.d[:FEATURE_LENGTH]
        out[i, : len(d)] = d if kind == "direction" else (ts / SEC) * d
    return out


def read_features(path: Path) -> tuple[np.ndarray, dict]:
    header = read_json(path.with_suffix(path.suffix + ".json"))
    array = np.fromfile(path, dtype=np.dtype(header["dtype"]))
    return array, header


def check_features(feature_dir: Path, kind: str, traces: list[TraceRow]) -> list[str]:
    """``features.bin`` equals the recomputation exactly; labels.csv matches."""
    array, header = read_features(feature_dir / "features.bin")
    want = expected_features(kind, traces)
    if header["shape"] != list(want.shape) or array.dtype != want.dtype:
        return [f"{kind}: shape {header['shape']} {array.dtype}, expected {list(want.shape)} {want.dtype}"]
    array = array.reshape(want.shape)
    problems = []
    if not np.array_equal(array, want):
        bad = np.argwhere(array != want)
        problems.append(f"{kind}: {len(bad)} feature cells differ, first at {bad[0].tolist()}")
    lines = (feature_dir / "labels.csv").read_text(encoding="utf-8").splitlines()[1:]
    labels = [line.split(",", 1)[1] or None for line in lines]
    if labels != [t.label for t in traces]:
        problems.append(f"{kind}: labels.csv does not follow the trace order")
    return problems


def check_jitter(before: list[TraceRow], after: list[TraceRow]) -> list[str]:
    """Jitter keeps the trace count and only stretches inter-arrival gaps.

    The transform writes its output in the seeded order of ``write_dataset``,
    so output line k holds the jittered input trace ``perm[k]``.
    """
    if len(before) != len(after):
        return [f"jitter changed the trace count: {len(before)} -> {len(after)}"]
    perm = np.random.default_rng(JITTER_SEED).permutation(len(before))
    max_delay = int(round(JITTER_MS * 1_000_000))
    max_duration = int(JITTER_MAX_DURATION_S * SEC)
    problems = []
    for k, j in enumerate(perm):
        src, out = before[j], after[k]
        n = len(out.ts)
        if src.label != out.label or not 0 < n <= len(src.ts) or out.ts[-1] > max_duration:
            problems.append(f"jittered trace {k}: label, length or duration is wrong")
        elif not np.array_equal(out.d, src.d[:n]):
            problems.append(f"jittered trace {k}: directions changed")
        else:
            stretch = np.diff(out.ts) - np.diff(src.ts[:n])
            if np.any(stretch < 0) or np.any(stretch > max_delay):
                problems.append(f"jittered trace {k}: a gap shrank or grew by more than {JITTER_MS} ms")
    return problems[:5]


def read_scores(path: Path) -> list[tuple[str, int, int, float]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        trace_id, true, pred, score = line.split(",")
        rows.append((trace_id, int(true), int(pred), float(score)))
    return rows


def check_eval(eval_report: dict, scores: list[tuple[str, int, int, float]]) -> list[str]:
    """Recall and FPR in eval.json equal a direct count at its threshold."""
    threshold = eval_report["threshold"]
    n_p = sum(1 for _, true, _, _ in scores if true != NONMON)
    n_n = len(scores) - n_p
    tp = fp = 0
    for _, true, pred, score in scores:
        if pred == NONMON or score < threshold:
            continue
        if true == NONMON:
            fp += 1
        elif pred == true:
            tp += 1
    problems = []
    if eval_report.get("records") != len(scores):
        problems.append(f"eval records={eval_report.get('records')}, scores rows={len(scores)}")
    if n_p == 0 or n_n == 0:
        return problems + [f"scores need both classes, got n_p={n_p} n_n={n_n}"]
    if eval_report.get("recall") != tp / n_p:
        problems.append(f"eval recall={eval_report.get('recall')}, direct count {tp}/{n_p}")
    if eval_report.get("fpr") != fp / n_n:
        problems.append(f"eval fpr={eval_report.get('fpr')}, direct count {fp}/{n_n}")
    return problems


def check_conflux(conflux_report: dict, truth: dict) -> list[str]:
    n_sets = truth["summary"]["n_sets"]
    if conflux_report.get("sets") != n_sets:
        return [f"conflux sets={conflux_report.get('sets')}, truth n_sets={n_sets}"]
    return []


def write_scores(labels_csv: Path, out: Path) -> None:
    """Deterministic stand-in classifier scores, as the C11 acceptance test
    derives them: monitored traces are predicted correctly, everything else
    gets a page picked from its trace id, and the score is a trace-id digit."""
    rows = [line.split(",", 1) for line in labels_csv.read_text(encoding="utf-8").splitlines()[1:]]
    pages = sorted({label for _, label in rows if label})
    index = {label: i for i, label in enumerate(pages)}
    lines = ["trace_id,true_label,predicted_label,score"]
    for trace_id, label in rows:
        true = index.get(label, NONMON)
        digit = int(trace_id[:4], 16) % 1000
        pred = true if true >= 0 else digit % len(index)
        lines.append(f"{trace_id},{true},{pred},{digit / 1000:.3f}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def pipeline_checks(workload: Workload, layout: Layout, truth: dict) -> dict[str, list[str]]:
    """Every output check of one pipeline run, by name."""
    results: dict[str, list[str]] = {}
    report = read_json(layout.report)
    if workload.segmentation == "time":
        results["report_counts"] = check_time_report(report, truth)
    else:
        results["report_counts"] = check_report_counts(report, truth)
    traces = read_traces(layout.traces)
    results["labels"] = check_labels(traces, truth, workload.segmentation)
    results["normalized"] = check_normalized(traces)
    featurized = traces
    if workload.jitter:
        featurized = read_traces(layout.jittered)
        results["jitter"] = check_jitter(traces, featurized)
        results["jitter_normalized"] = check_normalized(featurized)
    for kind in FEATURE_KINDS:
        results[f"features_{kind}"] = check_features(layout.features(kind), kind, featurized)
    if workload.conflux:
        results["conflux_sets"] = check_conflux(read_json(layout.conflux_report), truth)
    results["eval"] = check_eval(read_json(layout.eval_report), read_scores(layout.scores))
    return results
