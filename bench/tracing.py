"""In-memory span tracing of one guardsift subcommand, from outside the program.

Run as ``python tracing.py SPANS_JSON SUBCOMMAND [ARGS...]`` with guardsift
importable. It wraps the public functions of each layer, calls
``guardsift.cli.main(argv)`` under a root span ``cli.<subcommand>``, and
writes the spans and counters to SPANS_JSON when the run ends.

A span is (name, layer, start, end, parent). Layers are guardsift's
modules. The parent process turns the spans of a pipeline's subcommands
into per-layer metrics with :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs to wrap. cli.py binds these names by from-import,
# so they are wrapped on guardsift.cli; the others are looked up on their own
# module at call time.
CLI_BINDINGS = (
    "parse_guard_log", "parse_client_log", "parse_visit_log", "filter_relay_channels",
    "sanitize", "group_visits", "extract_monitored_window", "segment_nonmonitored",
    "generate_dataset", "read_dataset", "write_dataset",
)
MODULE_ATTRS = {
    "features": ("direction_sequence", "directional_timing", "build_tam", "write_features"),
    "metrics": ("read_scores", "select_threshold_max_f1", "sweep"),
    "transforms": ("inject_jitter",),
    "conflux": ("analyze_set",),
    "sanitize": (
        "group_visits", "select_main_circuit", "validate_handshake_pre",
        "validate_handshake_post", "trim_head", "prune_close_tail",
    ),
    "segment": ("plan_windows", "prune_close_tail"),
    "trace": ("compute_trace_id",),
}


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.spans: list[list[int]] = []  # [name_id, start_ns, end_ns, parent]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        span = [self._name_id(name, layer), time.perf_counter_ns(), 0, parent]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts[key], value)

    def dump(self, path: str | Path) -> None:
        payload = {
            "names": self.names,
            "layers": self.layers,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _data_rows(path: Path) -> int:
    """Cell rows of a generated log: every line but the header and markers."""
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line[:1].isdigit())


def _count_result(tracer: Tracer, name: str, args: tuple, result) -> None:
    """Counters taken at the layer boundary, after the span has closed."""
    if name in ("parse_guard_log", "parse_client_log"):
        parsed = result if name == "parse_guard_log" else result.stats
        tracer.count("ingest.cells", parsed.cell_count)
        tracer.count("ingest.duplicates", parsed.duplicate_count)
        tracer.peak("ingest.rss_mb", _rss_mb())
    elif name == "filter_relay_channels":
        tracer.count("ingest.relay_channels_dropped", result[1])
    elif name == "sanitize":
        tracer.count("sanitize.circuits_in", result.report.input_circuits)
        tracer.count("sanitize.retained", result.report.retained)
    elif name == "plan_windows":
        tracer.count("segment.windows", len(result))
        tracer.peak("segment.max_channel_circuits", args[0].circuit_count)
    elif name == "segment_nonmonitored":
        tracer.count("segment.traces_out", len(result))
    elif name == "extract_monitored_window":
        tracer.count("segment.traces_out", 1)
    elif name == "write_dataset":
        tracer.count("trace.bytes_written", Path(args[2]).stat().st_size)
    elif name == "inject_jitter":
        tracer.count("transforms.cells", len(args[0].cells))
    elif name == "write_features":
        tracer.count("features.rows", len(args[1]))
    elif name == "read_scores":
        tracer.count("metrics.records", len(result))
    elif name == "sweep":
        tracer.count("metrics.thresholds", len(result))
    elif name == "analyze_set":
        tracer.count("conflux.sets", 1)
        if result.fs_truth is not None:
            tracer.count("conflux.fs_truth", 1)
            tracer.count("conflux.fs_agree", int(result.fs_detected == result.fs_truth))
    elif name == "generate_dataset":
        tracer.count("simulate.guard_rows", _data_rows(result.guard_csv))
        tracer.count("simulate.client_rows", _data_rows(result.client_csv))


def _wrap(tracer: Tracer, module, attr: str) -> None:
    fn = getattr(module, attr)
    layer = fn.__module__.rsplit(".", 1)[-1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            result = tracer.call(attr, layer, fn, *args, **kwargs)
        except Exception:
            if attr == "extract_monitored_window":
                tracer.count("segment.windows_failed", 1)
            raise
        _count_result(tracer, attr, args, result)
        return result

    setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; import guardsift first."""
    import importlib

    cli = importlib.import_module("guardsift.cli")
    for attr in CLI_BINDINGS:
        _wrap(tracer, cli, attr)
    for module_name, attrs in MODULE_ATTRS.items():
        module = importlib.import_module(f"guardsift.{module_name}")
        for attr in attrs:
            _wrap(tracer, module, attr)


def run_traced(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from guardsift import cli

    try:
        return tracer.call(f"cli.{argv[0]}", "cli", cli.main, argv)
    finally:
        tracer.peak(f"cli.{argv[0]}.rss_mb", _rss_mb())
        tracer.dump(spans_path)


# --- aggregation in the parent ------------------------------------------------

# per-layer time metric -> the wrapped functions whose spans it sums
FUNCTION_TIMES = {
    "simulate.generate_s": ("generate_dataset",),
    "ingest.parse_guard_s": ("parse_guard_log",),
    "ingest.parse_client_s": ("parse_client_log",),
    "sanitize.group_visits_s": ("group_visits",),
    "sanitize.select_main_s": ("select_main_circuit",),
    "sanitize.handshake_s": ("validate_handshake_pre", "validate_handshake_post"),
    "sanitize.trim_head_s": ("trim_head",),
    "sanitize.prune_tail_s": ("prune_close_tail",),
    "segment.plan_windows_s": ("plan_windows",),
    "segment.nonmon_s": ("segment_nonmonitored",),
    "segment.monitored_window_s": ("extract_monitored_window",),
    "trace.write_s": ("write_dataset",),
    "trace.read_s": ("read_dataset",),
    "trace.trace_id_s": ("compute_trace_id",),
    "transforms.jitter_s": ("inject_jitter",),
    "features.direction_s": ("direction_sequence",),
    "features.timing_s": ("directional_timing",),
    "features.tam_s": ("build_tam",),
    "features.write_s": ("write_features",),
    "metrics.read_scores_s": ("read_scores",),
    "metrics.select_s": ("select_threshold_max_f1",),
    "conflux.analyze_s": ("analyze_set",),
}
SUBCOMMANDS = ("generate", "sanitize", "transform", "conflux", "featurize", "eval")
# counters reported as recorded by _count_result
COUNTERS = (
    "simulate.guard_rows", "simulate.client_rows", "ingest.cells", "ingest.duplicates",
    "ingest.relay_channels_dropped", "ingest.rss_mb", "sanitize.circuits_in",
    "sanitize.retained", "segment.windows", "segment.max_channel_circuits",
    "segment.traces_out", "segment.windows_failed", "trace.bytes_written",
    "transforms.cells", "features.rows", "metrics.records", "metrics.thresholds",
    "conflux.sets",
)


class SpanTotals:
    """Inclusive, self and layer-busy times summed over many span files."""

    def __init__(self):
        self.inclusive: dict[str, int] = defaultdict(int)  # by span name
        self.self_ns: dict[str, int] = defaultdict(int)  # by span name
        self.layer_busy: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)

    def add(self, payload: dict) -> None:
        names, layers, spans = payload["names"], payload["layers"], payload["spans"]
        child_ns = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            name, layer = names[name_id], layers[name_id]
            own = end - start - child_ns[i]
            self.inclusive[name] += end - start
            self.self_ns[name] += own
            self.layer_self[layer] += own
            self.calls[name] += 1
            outermost = True
            while parent >= 0:
                if layers[spans[parent][0]] == layer:
                    outermost = False
                    break
                parent = spans[parent][3]
            if outermost:
                self.layer_busy[layer] += end - start
        for key, value in payload["counts"].items():
            if key.endswith("rss_mb") or key == "segment.max_channel_circuits":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value


def layer_metrics(totals: SpanTotals) -> dict[str, float]:
    """Every per-layer metric of one traced pipeline (times in seconds)."""
    s = 1e-9
    out: dict[str, float] = {}
    for metric, names in FUNCTION_TIMES.items():
        out[metric] = sum(totals.inclusive[n] for n in names) * s
    out["sanitize.s"] = totals.layer_busy["sanitize"] * s
    out["sanitize.self_s"] = totals.layer_self["sanitize"] * s
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}_self_s"] = totals.self_ns[f"cli.{sub}"] * s
    c = totals.counts
    for key in COUNTERS:
        out[key] = c[key]
    parse_s = out["ingest.parse_guard_s"] + out["ingest.parse_client_s"]
    out["ingest.cells_per_s"] = c["ingest.cells"] / parse_s if parse_s else 0.0
    out["sanitize.yield"] = _ratio(c["sanitize.retained"], c["sanitize.circuits_in"])
    out["trace.trace_id_calls"] = totals.calls["compute_trace_id"]
    out["features.rss_mb"] = c["cli.featurize.rss_mb"]
    out["conflux.detector_agreement"] = _ratio(c["conflux.fs_agree"], c["conflux.fs_truth"])
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
