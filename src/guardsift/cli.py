"""Command-line entry point: reproducible batch pipelines.

Subcommands: generate, ingest, sanitize (circuit or time segmentation),
conflux, transform, featurize, eval. Every run is deterministic given its
--seed; stage failures exit 1 with the failing stage named on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple
from importlib import import_module
from pathlib import Path

from .errors import GuardsiftError, ParseError

# The stage names the commands call, by the module that defines them. A
# command's names are bound as module globals just before it runs (see
# ``main``), and any of them resolves as an attribute of this module on
# first access (PEP 562), so a run imports only the stages it uses.
_STAGE_NAMES = {
    "columns": ("read_columns",),
    "ingest": ("parse_client_log", "parse_guard_log", "parse_visit_log", "filter_relay_channels"),
    "sanitize": ("SanitizeConfig", "circuit_index", "detect_spam_channels", "group_visits", "sanitize", "trim_head"),
    "segment": ("extract_monitored_window", "segment_nonmonitored"),
    "simulate": ("ScenarioConfig", "generate_dataset", "run_rtt_advantage_sweep"),
    "trace": ("TraceColumns", "compute_trace_id", "read_dataset", "write_dataset"),
}
_SOURCES = {name: module for module, names in _STAGE_NAMES.items() for name in names}


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__package__}.{module}"), name)
    globals()[name] = value
    return value


def _bind(stages: tuple[str, ...]) -> None:
    """Bind the names of ``stages`` that are not bound yet, importing their modules."""
    for module in stages:
        for name in _STAGE_NAMES[module]:
            if name not in globals():
                __getattr__(name)


SEC = 1_000_000_000


def _write_report(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _load_inputs(args) -> tuple:
    """Resolve guard/client/visits paths from --in or explicit flags."""
    guard = getattr(args, "guard", None)
    visits = getattr(args, "visits", None)
    client = getattr(args, "client", None)
    in_dir = getattr(args, "in_dir", None)
    if in_dir:
        base = Path(in_dir)
        guard = guard or (base / "guard.csv" if (base / "guard.csv").exists() else None)
        visits = visits or (base / "visits.csv" if (base / "visits.csv").exists() else None)
        client = client or (base / "client.csv" if (base / "client.csv").exists() else None)
    if guard is None:
        raise GuardsiftError("no guard log given (use --in or --guard)")
    return guard, client, visits


def cmd_generate(args) -> int:
    config = ScenarioConfig.from_json(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config.seed = args.seed
    out_dir = Path(args.out)
    if args.rtt_sweep is not None:
        rows = run_rtt_advantage_sweep(config, args.rtt_sweep, args.sweep_visits)
        out_dir.mkdir(parents=True, exist_ok=True)
        sweep_csv = out_dir / "rtt_sweep.csv"
        header = list(rows[0].keys())
        lines = [",".join(header)]
        lines += [",".join(f"{row[k]:.6f}" if isinstance(row[k], float) else str(row[k]) for k in header) for row in rows]
        sweep_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _write_report(args.report, {"command": "generate", "sweep": rows})
        return 0
    paths = generate_dataset(config, out_dir)
    _write_report(
        args.report,
        {
            "command": "generate",
            "out": str(paths.out_dir),
            "files": [paths.guard_csv.name, paths.client_csv.name, paths.visits_csv.name, paths.truth_json.name],
        },
    )
    return 0


def cmd_ingest(args) -> int:
    guard, client, visits = _load_inputs(args)
    parsed = parse_guard_log(guard)
    kept, dropped = filter_relay_channels(parsed.channels)
    summary = {
        "command": "ingest",
        "channels": len(parsed.channels),
        "relay_channels_dropped": dropped,
        "channels_kept": len(kept),
        "circuits": sum(ch.circuit_count for ch in kept),
        "cells": parsed.cell_count,
        "duplicates_dropped": parsed.duplicate_count,
    }
    if client and visits:
        client_log = parse_client_log(client, visits)
        summary["client_circuits"] = sum(ch.circuit_count for ch in client_log.channels)
        summary["visit_rows"] = len(client_log.visits)
    print(json.dumps(summary, indent=2, sort_keys=True))
    _write_report(args.report, summary)
    return 0


def _segment_time_path(kept, visits, config, window_ns: int, phase: str) -> tuple[TraceColumns, dict]:
    """Cut traces of ``phase`` out of the channels by time into one table.
    Spam channels go as in ``sanitize``; then each visit group gets one
    window on its channel, and each channel no visit row names is
    segmented whole."""
    spam_ids = detect_spam_channels(kept, config.spam_circuit_threshold)
    live = [ch for ch in kept if ch.channel_id not in spam_ids]
    tables = []
    monitored_channels = set()
    n_windows_failed = 0
    by_id = {ch.channel_id: ch for ch in live}
    for group in group_visits(visits or (), live, config.visit_span_ns):
        monitored_channels.update(channel_id for _, channel_id, _ in group.named)
        start = group.start_ts
        try:
            tables.append(
                extract_monitored_window(
                    by_id[group.channel_id], start, start + window_ns, config, group.page_domain, phase
                )
            )
        except GuardsiftError:
            n_windows_failed += 1
    for channel in live:
        if channel.channel_id not in monitored_channels:
            tables.append(segment_nonmonitored(channel, config, phase))
    traces = TraceColumns.join(tables)
    report = {
        "segmentation": "time",
        "spam_channels": len(spam_ids),
        "spam_circuits_dropped": sum(ch.circuit_count for ch in kept if ch.channel_id in spam_ids),
        "monitored_windows": sum(label is not None for label in traces.labels),
        "windows_failed": n_windows_failed,
    }
    return traces, report


def cmd_sanitize(args) -> int:
    guard, _, visits_path = _load_inputs(args)
    config = SanitizeConfig.from_json(args.config) if args.config else SanitizeConfig()
    parsed = parse_guard_log(guard)
    kept, dropped_relay = filter_relay_channels(parsed.channels)
    visits = parse_visit_log(visits_path) if visits_path else None
    if args.segmentation == "time":
        traces, report = _segment_time_path(kept, visits, config, args.window_ns, args.phase)
    else:
        result = sanitize(kept, config, args.phase, visits)
        traces, report = result.traces, asdict(result.report)
    report["duplicates_dropped"] = parsed.duplicate_count
    report["relay_channels_dropped"] = dropped_relay
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dataset(traces, args.seed, out_dir / "traces.ndjson")
    report["command"] = "sanitize"
    report["traces_written"] = len(traces)
    _write_report(args.report or str(out_dir / "report.json"), report)
    return 0


def cmd_conflux(args) -> int:
    guard, client, visits_path = _load_inputs(args)
    if client is None or visits_path is None:
        raise GuardsiftError("conflux analysis needs --client and --visits")
    from . import conflux as cfx

    kept, _ = filter_relay_channels(parse_guard_log(guard).channels)
    guard_legs = circuit_index(kept)
    client_log = parse_client_log(client, visits_path)
    client_legs = circuit_index(client_log.channels)
    rows = []
    for idx, visit in enumerate(client_log.visits):
        if visit.leg_ids is None:
            continue
        leg_a_id, leg_b_id = visit.leg_ids
        if leg_a_id not in client_legs or leg_b_id not in client_legs:
            continue
        guard_leg_id = leg_a_id if leg_a_id in guard_legs else leg_b_id
        if guard_leg_id not in guard_legs:
            continue
        legs = client_legs[leg_a_id][1], client_legs[leg_b_id][1]
        try:
            _, guard_directions = trim_head(guard_legs[guard_leg_id][1], "post")
            rows.append(cfx.analyze_set(f"set{idx:05d}", *legs, guard_directions, guard_leg_id))
        except GuardsiftError:
            continue
    cfx.write_analysis_csv(rows, args.out)
    agreed = [r.fs_detected == r.fs_truth for r in rows if r.fs_truth is not None]
    summary = {
        "command": "conflux",
        "sets": len(rows),
        "fs_detected": sum(r.fs_detected for r in rows),
        "fs_truth_available": len(agreed),
        "detector_agreement": (sum(agreed) / len(agreed)) if agreed else None,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    _write_report(args.report, summary)
    return 0


def cmd_transform(args) -> int:
    import numpy as np

    from . import transforms

    out = []
    try:
        # the loop frees the inputs when it ends; an output keeps only the cells it views
        for idx, trace in enumerate(read_dataset(args.in_path)):
            if args.jitter_ms is not None:
                rng = np.random.default_rng(np.random.SeedSequence((args.seed, idx)))
                trace = transforms.inject_jitter(trace, args.jitter_ms, rng, args.max_duration_ns)
            if args.load_percent is not None:
                trace = transforms.truncate_percent(trace, args.load_percent)
            if args.max_len is not None:
                trace = transforms.truncate_length(trace, args.max_len)
            out.append(trace)
    except (ValueError, OverflowError) as exc:
        raise GuardsiftError(str(exc)) from None
    out = TraceColumns.from_traces(out)  # rebound, so the list goes once the table holds its cells
    write_dataset(out, args.seed, args.out)
    _write_report(args.report, {"command": "transform", "traces": len(out)})
    return 0


def _csv_field(text: str) -> str:
    """``text`` as a CSV field, quoted as RFC 4180 asks: in double quotes,
    with its quotes doubled, when it holds a comma, a quote or a line break.
    (``csv.writer`` leaves a lone "\\r" unquoted unless it ends its rows.)"""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_featurize(args) -> int:
    from . import features

    columns = read_columns(args.in_path)
    if not len(columns):
        raise GuardsiftError("no traces in input")
    t_max_s = args.t_max_s
    if args.kind == "tam" and t_max_s is None:
        t_max_s = features.default_t_max(columns)
        if t_max_s == 0:
            raise GuardsiftError("every trace lasts 0 s; pass --t-max-s")
    out_dir = Path(args.out)
    try:
        blocks = features.FeatureBlocks(columns, args.kind, args.length, t_max_s, args.n_slots)
        out_dir.mkdir(parents=True, exist_ok=True)
        features.write_features(out_dir / "features.bin", blocks)
        if args.csv:
            features.write_features_csv(out_dir / "features.csv", blocks)
        with open(out_dir / "labels.csv", "w", encoding="utf-8", newline="") as handle:
            handle.write("trace_id,label\n")
            fields = {label: _csv_field(label or "") for label in set(columns.labels)}
            ids = zip(compute_trace_id(columns), columns.labels)
            handle.writelines(f"{trace_id},{fields[label]}\n" for trace_id, label in ids)
    except (ValueError, OverflowError) as exc:
        raise GuardsiftError(str(exc)) from None
    except MemoryError as exc:
        raise GuardsiftError(str(exc) or "out of memory") from None
    _write_report(args.report, {"command": "featurize", "shape": list(blocks.shape), **blocks.meta})
    return 0


def cmd_eval(args) -> int:
    from . import metrics

    scores = metrics.read_scores(args.scores)
    max_f1 = args.threshold is None and args.target_fpr is None
    # one sweep serves both the curve file and the F1 maximum
    curve = metrics.sweep(scores, args.r, args.wilson_z) if args.curve or max_f1 else None
    if args.curve:
        metrics.write_curve(curve, args.curve)
    if args.threshold is not None:
        counts = metrics.tally(scores, args.threshold)
        pi = metrics.r_precision(*astuple(counts), args.r, args.wilson_z)
        recall = counts.n_tp / counts.n_p
        payload = {
            "threshold": args.threshold,
            f"pi_{args.r:g}": pi,
            "recall": recall,
            "fpr": counts.n_fp / counts.n_n,
            "f1": metrics.f1(pi, recall),
        }
    elif args.target_fpr is not None:
        point = metrics.operating_point_at_fpr(scores, args.target_fpr)
        payload = {
            "threshold": point.threshold,
            "recall": point.recall,
            "fpr": point.fpr,
            "target_fpr": args.target_fpr,
        }
    else:
        point = metrics.select_threshold_max_f1(curve)
        payload = {
            "threshold": point.threshold,
            f"pi_{args.r:g}": point.pi_r,
            "recall": point.recall,
            "fpr": point.fpr,
            "f1": point.f1,
        }
    payload["r"] = args.r
    payload["records"] = len(scores)
    print(json.dumps(payload, indent=2, sort_keys=True))
    _write_report(args.report, payload)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be non-negative and finite, got {text}")
    return value


def _percent(text: str) -> float:
    value = float(text)
    if not 1 <= value <= 100:
        raise argparse.ArgumentTypeError(f"must be in [1, 100], got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _duration_ns(text: str) -> int:
    """A duration in seconds, as int nanoseconds from 1 to below 2^63."""
    ns = float(text) * SEC
    if not 1 <= ns < 2**63:
        raise argparse.ArgumentTypeError(f"must be from 1 ns to below 2^63 ns, got {text} s")
    return int(ns)


def _rtt_deltas(text: str) -> list[float]:
    """A comma list of RTT deltas in ms, each from 0 to below 2^63 ns."""
    deltas = [float(x) for x in text.split(",")]
    if not all(0 <= delta * 1e6 < 2**63 for delta in deltas):
        raise argparse.ArgumentTypeError(f"each delta must be from 0 to below 2^63 ns, got {text}")
    return deltas


def _add_io_flags(parser, needs_out=True, reads_client=True):
    parser.add_argument("--in", dest="in_dir", help="input directory (guard/client/visits csv)")
    parser.add_argument("--guard", help="guard cell log")
    if reads_client:
        parser.add_argument("--client", help="client cell log")
    parser.add_argument("--visits", help="client visit log")
    if needs_out:
        parser.add_argument("--out", required=True)
    parser.add_argument("--report", help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardsift",
        description="Guard-side cell-trace pipelines: synthesize, sanitize, analyze, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a dataset with ground truth")
    p.add_argument("--config", help="scenario JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative_int, default=None)
    p.add_argument("--report")
    p.add_argument("--rtt-sweep", type=_rtt_deltas, help="comma-separated competitor RTT deltas (ms)")
    p.add_argument("--sweep-visits", type=_positive_int, default=None)
    p.set_defaults(func=cmd_generate, stages=("simulate",))

    p = sub.add_parser("ingest", help="parse logs, write their stores and report channel statistics")
    _add_io_flags(p, needs_out=False)
    p.set_defaults(func=cmd_ingest, stages=("ingest",))

    p = sub.add_parser("sanitize", help="cut guard logs into clean traces, by circuit or by time")
    _add_io_flags(p, reads_client=False)
    p.add_argument("--phase", choices=["pre", "post"], required=True)
    p.add_argument("--config", help="sanitizer thresholds JSON")
    p.add_argument("--seed", type=_non_negative_int, default=0, help="export shuffle seed")
    p.add_argument("--segmentation", choices=["circuit", "time"], default="circuit")
    p.add_argument(
        "--window-s", dest="window_ns", type=_duration_ns, default=60 * SEC,
        help="monitored window length (time)",
    )
    p.set_defaults(func=cmd_sanitize, stages=("ingest", "sanitize", "segment", "trace"))

    p = sub.add_parser("conflux", help="linked-leg analysis against client ground truth")
    _add_io_flags(p)
    p.set_defaults(func=cmd_conflux, stages=("ingest", "sanitize"))

    p = sub.add_parser("transform", help="perturb an exported trace set")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jitter-ms", type=_non_negative_float, default=None)
    p.add_argument("--max-duration-s", dest="max_duration_ns", type=_duration_ns, default=45 * SEC)
    p.add_argument("--load-percent", type=_percent, default=None)
    p.add_argument("--max-len", type=_positive_int, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=cmd_transform, stages=("trace",))

    p = sub.add_parser("featurize", help="emit classifier-ready representations")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=["direction", "timing", "tam"], default="direction")
    p.add_argument("--length", type=_positive_int, default=5000)
    p.add_argument("--t-max-s", type=_positive_float, default=None)
    p.add_argument("--n-slots", type=_positive_int, default=1800)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--report")
    p.set_defaults(func=cmd_featurize, stages=("columns", "trace"))

    p = sub.add_parser("eval", help="open-world metrics over classifier scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--r", type=_non_negative_float, default=10.0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--max-f1", action="store_true", help="pick the F1-maximizing threshold (the default)"
    )
    mode.add_argument("--target-fpr", type=_fraction, default=None)
    mode.add_argument("--threshold", type=_finite_float, default=None)
    p.add_argument("--wilson-z", type=_non_negative_float, default=1.96, help="0 disables the Wilson bound")
    p.add_argument("--curve", help="write the threshold sweep here")
    p.add_argument("--report")
    p.set_defaults(func=cmd_eval, stages=())

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # commands call stage functions by their global names, which the module
    # __getattr__ does not resolve; a name already bound (or rebound on this
    # module by a caller, such as a tracing wrapper) is kept
    _bind(args.stages)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"guardsift {args.command}: parse error: {exc}", file=sys.stderr)
        return 1
    except (GuardsiftError, OSError) as exc:
        print(f"guardsift {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
