"""Circuit sanitization: spam removal, handshake checks, trimming.

The pipeline turns raw guard-side channels into clean page-aligned traces.
Stages run in a fixed order and only ever remove or truncate cells:

    spam channels -> (monitored: main-circuit selection) -> handshake
    validation -> (post phase: link-gap heuristic) -> small-circuit filter
    -> head trimming -> tail trimming

Every stage reports how many circuits it removed or touched.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    EmptyAfterTrimError,
    MalformedCircuitError,
    NoMainCircuitError,
    NoMonitoredDataError,
    read_config,
)
from .ingest import PageVisitRecord
from .trace import INCOMING, OUTGOING, PRE, Channel, Circuit, Stage, Trace

log = logging.getLogger(__name__)

HANDSHAKE_PRE = (OUTGOING, INCOMING, OUTGOING)
HANDSHAKE_POST = (OUTGOING, INCOMING, OUTGOING, INCOMING, OUTGOING)

CONFLUX = "conflux"
NON_CONFLUX = "non_conflux"
INVALID = "invalid"


@dataclass
class SanitizeConfig:
    """Pipeline thresholds; defaults are the standard operating values."""

    spam_circuit_threshold: int = 10_000
    min_cells: int = 200
    gap_ratio_threshold: float = 3.0
    gap_floor_ns: int = 1_000_000  # 1 ms floor keeps the ratio finite
    head_trim_pre: int = 2
    head_trim_post: int = 5
    tail_gap_ns: int = 5_000_000_000
    max_tail_cells: int = 100
    max_tail_duration_ns: int = 1_000_000_000
    duration_cap_ns: int | None = None  # None: derive from the monitored set
    duration_cap_percentile: float = 99.0
    max_len: int = 5000
    visit_span_ns: int = 60_000_000_000  # rows this close join one page visit

    def __post_init__(self):
        if self.spam_circuit_threshold < 1:
            raise ConfigError("spam_circuit_threshold must be >= 1")
        if self.min_cells < 1:
            raise ConfigError("min_cells must be >= 1")
        if self.gap_ratio_threshold <= 1:
            raise ConfigError("gap_ratio_threshold must exceed 1")
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if not 0 < self.duration_cap_percentile <= 100:
            raise ConfigError("duration_cap_percentile must be in (0, 100]")

    @classmethod
    def from_json(cls, path: str | Path) -> "SanitizeConfig":
        return read_config(path, "sanitizer", cls)


@dataclass
class SanitizationReport:
    """Per-stage removal counters. Dropped counters plus retained equal
    the number of input circuits."""

    input_circuits: int = 0
    spam_channels: int = 0
    spam_circuits_dropped: int = 0
    visit_extra_dropped: int = 0
    handshake_dropped: int = 0
    conflux_heuristic_dropped: int = 0
    small_dropped: int = 0
    trim_dropped: int = 0
    tail_gap_pruned: int = 0
    duration_capped: int = 0
    length_truncated: int = 0
    retained: int = 0
    duration_cap_ns: int | None = None

    def dropped_total(self) -> int:
        return (
            self.spam_circuits_dropped
            + self.visit_extra_dropped
            + self.handshake_dropped
            + self.conflux_heuristic_dropped
            + self.small_dropped
            + self.trim_dropped
        )

    def consistent(self) -> bool:
        return self.retained + self.dropped_total() == self.input_circuits


def detect_spam_channels(
    channels: Iterable[Channel], threshold: int = 10_000
) -> set[int]:
    """Channel ids whose lifetime circuit count strictly exceeds ``threshold``."""
    if threshold < 1:
        raise ConfigError("spam threshold must be >= 1")
    return {ch.channel_id for ch in channels if ch.circuit_count > threshold}


def validate_handshake_pre(circuit: Circuit) -> bool:
    """True iff the circuit opens with the [+1, -1, +1] pattern."""
    return tuple(circuit.directions[:3].tolist()) == HANDSHAKE_PRE


def validate_handshake_post(
    circuit: Circuit,
    gap_ratio_threshold: float = 3.0,
    gap_floor_ns: int = 1_000_000,
) -> str:
    """Classify a post-phase circuit via its five-cell opening pattern.

    Linked legs answer each relay handshake cell promptly, so the gaps
    after the 2nd and 4th cells are of comparable size. A plain circuit
    shows the [+1,-1,+1,-1,+1] shape too, but it was typically built in
    advance and sat idle before use, making one gap much larger.
    """
    if gap_ratio_threshold <= 1:
        raise ConfigError("gap_ratio_threshold must exceed 1")
    if tuple(circuit.directions[:5].tolist()) != HANDSHAKE_POST:
        return INVALID
    head = circuit.timestamps[:5].tolist()
    g1 = head[2] - head[1]
    g2 = head[4] - head[3]
    ratio = max(g1, g2) / max(min(g1, g2), gap_floor_ns)
    return CONFLUX if ratio <= gap_ratio_threshold else NON_CONFLUX


def select_main_circuit(
    page_domain: str,
    candidates: Sequence[tuple[PageVisitRecord, Circuit]],
) -> Circuit:
    """Pick the circuit that actually carried the page load.

    Candidates whose first-party domain no longer matches the page were
    created after a redirect; candidates requesting an .onion name are
    alternative-service legs. Both are ignored. Among the survivors the
    highest cell count wins; ties go to the earliest start.
    """
    survivors = []
    for record, circuit in candidates:
        if record.first_party_domain != page_domain:
            continue
        if record.target_domain.endswith(".onion"):
            continue
        survivors.append(circuit)
    if not survivors:
        raise NoMainCircuitError(f"no usable circuit for {page_domain}")
    return min(survivors, key=lambda c: (-len(c), c.start_ts))


def trim_head(circuit: Circuit, phase: str, strip: int | None = None) -> Trace:
    """Strip the handshake cells and re-zero time at the first data cell.

    Circuits are often built well before they carry data, so the raw gap
    between handshake and payload is idle time, not page behavior. Kept
    cells out of time order raise ``MalformedCircuitError``.
    """
    if strip is None:
        strip = 2 if phase == PRE else 5
    timestamps = circuit.timestamps[strip:]
    if not len(timestamps):
        raise EmptyAfterTrimError(
            f"circuit {circuit.circuit_id}: no cells left after head trim"
        )
    shifted = timestamps - timestamps[0]
    try:
        return Trace(shifted, circuit.directions[strip:], phase=phase)
    except ValueError:
        backwards = np.flatnonzero(shifted[1:] < shifted[:-1])
        if not len(backwards):
            raise
        i = strip + int(backwards[0])
        raise MalformedCircuitError(
            f"circuit {circuit.circuit_id} has cells out of time order: cell {i + 1} at"
            f" {circuit.timestamps[i + 1]} ns follows cell {i} at {circuit.timestamps[i]} ns"
        ) from None


def prune_close_tail(
    timestamps: np.ndarray, directions: np.ndarray, starts, ends, config: SanitizeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The gap stages of the tail trim, over segments of time-sorted cells.

    Segment k is cells ``starts[k]:ends[k]``. Its last 2 cells (circuit
    teardown) go first. Then a trailing burst that looks like
    browser-shutdown traffic goes too: the cells after the last idle gap of
    at least ``tail_gap_ns``, when they start with an outgoing cell (the
    client initiates closing) and are fewer than ``max_tail_cells`` or last
    less than ``max_tail_duration_ns``. Returns every segment's end after
    these stages and whether its burst was pruned.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.maximum(np.asarray(ends, dtype=np.int64) - 2, starts)
    # the cells that follow an idle gap, after a sentinel below every start
    after_gap = np.append(-1, np.flatnonzero(np.diff(timestamps) >= config.tail_gap_ns) + 1)
    cut = after_gap[np.searchsorted(after_gap, ends) - 1]  # the last one before the end
    gapped = np.flatnonzero(cut > starts)
    cut, end = cut[gapped], ends[gapped]
    short = (end - cut < config.max_tail_cells) | (
        timestamps[end - 1] - timestamps[cut] < config.max_tail_duration_ns
    )
    prune = (directions[cut] == OUTGOING) & short
    pruned = np.zeros(len(ends), dtype=bool)
    pruned[gapped[prune]] = True
    ends[gapped[prune]] = cut[prune]
    return ends, pruned


def cap_tail(
    timestamps: np.ndarray, starts, ends, cap_ns: int | None, max_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """The cap stages of the tail trim, over segments of time-sorted cells.

    Segment k is cells ``starts[k]:ends[k]``. Returns every segment's end
    after the duration cap (cells at or before ``cap_ns``; ``None`` keeps
    all) and its end after the length cap.
    """
    starts = np.asarray(starts, dtype=np.int64)
    capped = np.asarray(ends, dtype=np.int64)
    if cap_ns is not None:
        below = np.concatenate(([0], np.cumsum(timestamps <= cap_ns)))
        capped = starts + below[capped] - below[starts]
    return capped, np.minimum(capped, starts + min(max_len, len(timestamps)))


def trim_tail(trace: Trace, config: SanitizeConfig) -> Trace:
    """Apply the tail stages: teardown cells, shutdown tail, duration cap,
    and length cap.

    The gap stages run once per trace; ``tail_trimmed`` records that they
    already ran so re-application cannot remove more cells. The cap stages
    are plain projections and always apply.
    """
    end = len(trace)
    if not trace.tail_trimmed:
        (end,), _ = prune_close_tail(trace.timestamps, trace.directions, [0], [end], config)
    _, (end,) = cap_tail(trace.timestamps, [0], [end], config.duration_cap_ns, config.max_len)
    if not end:
        raise EmptyAfterTrimError(f"trace {trace.trace_id}: empty after tail trim")
    if end == len(trace) and trace.tail_trimmed:
        return trace
    return trace.with_cells(trace.timestamps[:end], trace.directions[:end], tail_trimmed=True)


def compute_duration_cap(
    traces: Sequence[Trace], percentile: float = 99.0
) -> int:
    """Nearest-rank percentile of trace durations, in nanoseconds."""
    if not traces:
        raise NoMonitoredDataError("duration cap needs at least one monitored trace")
    durations = sorted(t.duration_ns for t in traces)
    rank = math.ceil(percentile / 100.0 * len(durations))
    cap = durations[max(rank, 1) - 1]
    if not 42_000_000_000 <= cap <= 47_000_000_000:
        log.debug("duration cap %.1f s falls outside the usual 42-47 s band", cap / 1e9)
    return cap


# --- pipeline composition ---------------------------------------------------


@dataclass
class VisitGroup:
    """Circuit-request rows that belong to one page load on one channel."""

    channel_id: int
    page_domain: str
    rows: list[PageVisitRecord] = field(default_factory=list)

    @property
    def start_ts(self) -> int:
        return self.rows[0].request_ts


def row_circuit_ids(row: PageVisitRecord) -> tuple[int, ...]:
    """Circuit ids a visit row may refer to: its own plus any linked legs."""
    if row.conflux_meta is None:
        return (row.circuit_id,)
    ids = (row.circuit_id,) + row.conflux_meta.leg_ids
    return tuple(dict.fromkeys(ids))


def group_visits(
    visits: Sequence[PageVisitRecord],
    circuit_to_channel: Mapping[int, int],
    visit_span_ns: int,
) -> list[VisitGroup]:
    """Group visit rows into page loads.

    Each row belongs to the channel of the first of its circuit ids
    (``row_circuit_ids``) that ``circuit_to_channel`` knows; rows with none
    are skipped. Rows are bucketed per channel and joined while they fall
    within ``visit_span_ns`` of the group's first request. The first row of
    a group names the page: the client navigates to the scheduled page
    before redirects or alternative services fire.
    """
    per_channel: dict[int, list[PageVisitRecord]] = {}
    for row in visits:
        channel = next(
            (
                circuit_to_channel[cid]
                for cid in row_circuit_ids(row)
                if cid in circuit_to_channel
            ),
            None,
        )
        if channel is None:
            continue
        per_channel.setdefault(channel, []).append(row)
    groups: list[VisitGroup] = []
    for channel in sorted(per_channel):
        rows = sorted(per_channel[channel], key=lambda r: r.request_ts)
        current: VisitGroup | None = None
        for row in rows:
            if current is None or row.request_ts - current.start_ts > visit_span_ns:
                current = VisitGroup(channel, row.first_party_domain, [row])
                groups.append(current)
            else:
                current.rows.append(row)
    return groups


@dataclass
class SanitizedDataset:
    traces: list[Trace]
    report: SanitizationReport
    outcomes: dict[int, str] = field(default_factory=dict)  # circuit_id -> stage
    labels: dict[int, str] = field(default_factory=dict)  # retained monitored circuits


def _trim_cohort(
    entries: list[tuple[Trace, str | None, int]],
    config: SanitizeConfig,
    report: SanitizationReport,
    outcomes: dict[int, str],
) -> list[Trace]:
    """Run tail trimming over head-trimmed traces, all of them at once.

    The duration cap comes from the monitored traces after the gap-based
    stages, so those stages run first for everyone.
    """
    traces = [trace for trace, _, _ in entries]
    sizes = np.array([len(trace) for trace in traces], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    timestamps = np.concatenate([t.timestamps for t in traces] + [np.empty(0, dtype=np.int64)])
    directions = np.concatenate([t.directions for t in traces] + [np.empty(0, dtype=np.int8)])
    ends, pruned = prune_close_tail(timestamps, directions, starts, starts + sizes, config)
    report.tail_gap_pruned += int(np.count_nonzero(pruned & (ends > starts)))

    cap = config.duration_cap_ns
    if cap is None:
        monitored = [
            trace.with_cells(trace.timestamps[:size], trace.directions[:size], tail_trimmed=True)
            for (trace, label, _), size in zip(entries, (ends - starts).tolist())
            if label is not None and size
        ]
        if monitored:
            cap = compute_duration_cap(monitored, config.duration_cap_percentile)
        else:
            log.warning("no monitored traces and no explicit cap; skipping duration cap")
    report.duration_cap_ns = cap

    capped, kept = cap_tail(timestamps, starts, ends, cap, config.max_len)
    report.duration_capped += int(np.count_nonzero(capped < ends))
    report.length_truncated += int(np.count_nonzero(kept < capped))
    out: list[Trace] = []
    for (trace, label, circuit_id), size in zip(entries, (kept - starts).tolist()):
        if not size:
            report.trim_dropped += 1
            outcomes[circuit_id] = Stage.TRIM
            continue
        timestamps, directions = trace.timestamps[:size], trace.directions[:size]
        out.append(trace.with_cells(timestamps, directions, label=label, tail_trimmed=True))
        outcomes[circuit_id] = Stage.RETAINED
        report.retained += 1
    return out


def sanitize(
    channels: Sequence[Channel],
    config: SanitizeConfig,
    phase: str,
    visits: Sequence[PageVisitRecord] | None = None,
) -> SanitizedDataset:
    """Run the full pipeline over ingested channels.

    When ``visits`` is given, channels referenced by visit rows are treated
    as controlled-client traffic: one main circuit per page load survives
    and carries the page label. All other channels yield unlabeled traces.
    """
    report = SanitizationReport()
    report.input_circuits = sum(ch.circuit_count for ch in channels)
    outcomes: dict[int, str] = {}

    spam_ids = detect_spam_channels(channels, config.spam_circuit_threshold)
    report.spam_channels = len(spam_ids)
    live = []
    for channel in channels:
        if channel.channel_id in spam_ids:
            report.spam_circuits_dropped += channel.circuit_count
            for circuit_id in channel.circuits:
                outcomes[circuit_id] = Stage.SPAM
        else:
            live.append(channel)

    # (label, channel_id, circuit) entries that continue down the pipeline
    pending: list[tuple[str | None, int, Circuit]] = []
    if visits:
        circuit_to_channel: dict[int, int] = {}
        for channel in live:
            for circuit_id in channel.circuits:
                circuit_to_channel[circuit_id] = channel.channel_id
        groups = group_visits(visits, circuit_to_channel, config.visit_span_ns)
        channel_by_id = {ch.channel_id: ch for ch in live}
        monitored_channel_ids = set()
        claimed: dict[int, str] = {}  # main circuit id -> page label
        for group in groups:
            candidates = []
            for row in group.rows:
                for circuit_id in row_circuit_ids(row):
                    channel_id = circuit_to_channel.get(circuit_id)
                    if channel_id is None:
                        continue
                    monitored_channel_ids.add(channel_id)
                    candidates.append((row, channel_by_id[channel_id].circuits[circuit_id]))
            if not candidates:
                continue
            try:
                main = select_main_circuit(group.page_domain, candidates)
            except NoMainCircuitError:
                continue
            claimed[main.circuit_id] = group.page_domain
        for channel in live:
            if channel.channel_id in monitored_channel_ids:
                for circuit_id, circuit in channel.circuits.items():
                    if circuit_id in claimed:
                        pending.append((claimed[circuit_id], channel.channel_id, circuit))
                    else:
                        report.visit_extra_dropped += 1
                        outcomes[circuit_id] = Stage.UNSELECTED
            else:
                for circuit in channel.circuits.values():
                    pending.append((None, channel.channel_id, circuit))
    else:
        for channel in live:
            for circuit in channel.circuits.values():
                pending.append((None, channel.channel_id, circuit))

    trimmed_entries: list[tuple[Trace, str | None, int]] = []
    for label, channel_id, circuit in pending:
        if phase == PRE:
            if not validate_handshake_pre(circuit):
                report.handshake_dropped += 1
                outcomes[circuit.circuit_id] = Stage.HANDSHAKE
                continue
        else:
            verdict = validate_handshake_post(
                circuit, config.gap_ratio_threshold, config.gap_floor_ns
            )
            if verdict == INVALID:
                report.handshake_dropped += 1
                outcomes[circuit.circuit_id] = Stage.HANDSHAKE
                continue
            if verdict == NON_CONFLUX:
                report.conflux_heuristic_dropped += 1
                outcomes[circuit.circuit_id] = Stage.NON_CONFLUX
                continue
        if len(circuit) < config.min_cells:
            report.small_dropped += 1
            outcomes[circuit.circuit_id] = Stage.SMALL
            continue
        strip = config.head_trim_pre if phase == PRE else config.head_trim_post
        try:
            trace = trim_head(circuit, phase, strip)
        except EmptyAfterTrimError:
            report.trim_dropped += 1
            outcomes[circuit.circuit_id] = Stage.TRIM
            continue
        except MalformedCircuitError as exc:
            raise MalformedCircuitError(f"channel {channel_id}: {exc}") from None
        trimmed_entries.append((trace, label, circuit.circuit_id))

    traces = _trim_cohort(trimmed_entries, config, report, outcomes)
    labels = {}
    if visits:
        labels = {
            circuit_id: label
            for circuit_id, label in claimed.items()
            if outcomes.get(circuit_id) == Stage.RETAINED
        }
    if not report.consistent():
        raise AssertionError("sanitization counters do not add up")
    return SanitizedDataset(traces=traces, report=report, outcomes=outcomes, labels=labels)
