"""Workload definitions: scenario, sanitizer settings and pipeline steps.

A workload is a scenario JSON for ``guardsift generate`` plus the chain of
subcommands a user runs on the generated logs. Every step is one
``guardsift`` process; ``--jobs`` stays at its default of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# featurize and eval settings shared by every workload
FEATURE_KINDS = ("direction", "timing", "tam")
FEATURE_LENGTH = 5000  # featurize --length default
T_MAX_S = 45.0
N_SLOTS = 300
EVAL_R = 10
JITTER_MS = 20.0
JITTER_SEED = 1
JITTER_MAX_DURATION_S = 45.0  # transform --max-duration-s default


# Many small, similar units (pages, channels, circuits) instead of a few
# large, varied ones: the input size then moves little from seed to seed.
STEADY_SIZES = {
    "visits_per_channel": 10,
    "page_cell_range": [500, 700],
    "nonmon_circuits_range": [3, 4],
    "nonmon_cell_range": [300, 600],
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict
    segmentation: str = "circuit"  # sanitize --segmentation
    sanitize_config: dict | None = None
    jitter: bool = False
    conflux: bool = False

    @property
    def phase(self) -> str:
        return self.scenario.get("phase", "pre")


@dataclass(frozen=True)
class Step:
    """One subcommand of a pipeline; ``group`` feeds sanitize_s/featurize_s."""

    name: str
    argv: tuple[str, ...]
    group: str = ""


@dataclass
class Layout:
    """Where one pipeline run reads and writes, relative to its run dir."""

    data: Path
    run: Path

    @property
    def clean(self) -> Path:
        return self.run / "clean"

    @property
    def traces(self) -> Path:
        return self.clean / "traces.ndjson"

    @property
    def report(self) -> Path:
        return self.clean / "report.json"

    @property
    def jittered(self) -> Path:
        return self.run / "jittered.ndjson"

    @property
    def conflux_csv(self) -> Path:
        return self.run / "conflux.csv"

    @property
    def conflux_report(self) -> Path:
        return self.run / "conflux.json"

    def features_input(self, workload: Workload) -> Path:
        return self.jittered if workload.jitter else self.traces

    def features(self, kind: str) -> Path:
        return self.run / "features" / kind

    @property
    def scores(self) -> Path:
        return self.run / "scores.csv"

    @property
    def eval_report(self) -> Path:
        return self.run / "eval.json"

    @property
    def sanitize_config(self) -> Path:
        return self.data.parent / "sanitize.json"


def pipeline_steps(workload: Workload, layout: Layout, seed: int) -> list[Step]:
    """The subcommands from raw logs to ``eval.json``, in order.

    The stand-in scores that ``eval`` reads are written by the benchmark
    between the last featurize and eval; that write is not timed.
    """
    sanitize = [
        "sanitize", "--in", str(layout.data), "--phase", workload.phase,
        "--out", str(layout.clean), "--report", str(layout.report), "--seed", str(seed),
    ]
    if workload.segmentation == "time":
        sanitize += ["--segmentation", "time"]
    if workload.sanitize_config is not None:
        sanitize += ["--config", str(layout.sanitize_config)]
    steps = [Step("sanitize", tuple(sanitize), "sanitize")]
    if workload.jitter:
        steps.append(Step("transform", (
            "transform", "--in", str(layout.traces), "--out", str(layout.jittered),
            "--jitter-ms", f"{JITTER_MS:g}", "--seed", str(JITTER_SEED),
        )))
    if workload.conflux:
        steps.append(Step("conflux", (
            "conflux", "--in", str(layout.data), "--out", str(layout.conflux_csv),
            "--report", str(layout.conflux_report),
        )))
    for kind in FEATURE_KINDS:
        steps.append(Step(f"featurize-{kind}", (
            "featurize", "--in", str(layout.features_input(workload)), "--out", str(layout.features(kind)),
            "--kind", kind, "--t-max-s", f"{T_MAX_S:g}", "--n-slots", str(N_SLOTS),
        ), "featurize"))
    steps.append(Step("eval", (
        "eval", "--scores", str(layout.scores), "--r", str(EVAL_R), "--max-f1",
        "--report", str(layout.eval_report),
    )))
    return steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pre-time",
            why="time segmentation with the quadratic window planner on a kept spam channel,"
            " most traces; circuit-path stages are bypassed",
            scenario={
                "n_pages": 40, "n_visits_per_page": 2, "n_nonmon_channels": 60,
                "spam_channel_fraction": 0.017, "spam_circuit_range": [5000, 5100],
                "relay_auth_channels": 2, **STEADY_SIZES,
            },
            segmentation="time",
            # the spam channel is scaled down from the paper's 10k circuits; the
            # threshold follows it so the circuit rule would still call it spam
            sanitize_config={"spam_circuit_threshold": 2500},
        ),
        Workload(
            name="post-conflux",
            why="post-phase circuit sanitizer, typed client log, Conflux leg analysis and jitter;"
            " time segmentation is bypassed",
            scenario={
                "phase": "post", "n_pages": 40, "n_visits_per_page": 3,
                "n_nonmon_channels": 60, "relay_auth_channels": 2,
                # the guard's leg wins most scheduling decisions, so the guard-side
                # share of each visit (and the input size per seed) varies less
                "competitor_rtt_delta_ms": 64.0, **STEADY_SIZES,
            },
            jitter=True,
            conflux=True,
        ),
    )
}
