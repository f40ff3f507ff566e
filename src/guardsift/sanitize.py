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
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, GuardsiftError, read_config
from .ingest import PageVisitRecord
from .trace import INCOMING, OUTGOING, POST, PRE, Channel, Circuit, Stage, TraceColumns, concat_cells

log = logging.getLogger(__name__)

# per phase: the directions a circuit must open with, and how many cells the head trim strips
OPENING = {
    PRE: ((OUTGOING, INCOMING, OUTGOING), 2),
    POST: ((OUTGOING, INCOMING, OUTGOING, INCOMING, OUTGOING), 5),
}
GAP_RATIO_BOUND = 3.0  # a linked leg's larger handshake gap is at most 3x its smaller
GAP_FLOOR_NS = 1_000_000  # 1 ms floor on the smaller gap keeps the ratio finite
DURATION_CAP_PERCENTILE = 99.0  # nearest rank, over the monitored traces

CONFLUX = "conflux"
NON_CONFLUX = "non_conflux"
INVALID = "invalid"


@dataclass
class SanitizeConfig:
    """Pipeline thresholds; defaults are the standard operating values."""

    spam_circuit_threshold: int = 10_000
    min_cells: int = 200
    tail_gap_ns: int = 5_000_000_000
    max_tail_cells: int = 100
    max_tail_duration_ns: int = 1_000_000_000
    duration_cap_ns: int | None = None  # None: derive from the monitored set
    max_len: int = 5000
    visit_span_ns: int = 60_000_000_000  # rows this close join one page visit

    def __post_init__(self):
        for name in ("spam_circuit_threshold", "min_cells", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "SanitizeConfig":
        return read_config(path, "sanitizer", cls)


@dataclass
class SanitizationReport:
    """Per-stage removal counters. The stage counters (see
    ``_STAGE_COUNTERS``) sum to the number of input circuits."""

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


def detect_spam_channels(channels: Iterable[Channel], threshold: int) -> set[int]:
    """Channel ids whose lifetime circuit count strictly exceeds ``threshold``."""
    return {ch.channel_id for ch in channels if ch.circuit_count > threshold}


def validate_handshake_pre(circuit: Circuit) -> bool:
    """True iff the circuit opens with the pre phase's ``OPENING`` pattern."""
    pattern, _ = OPENING[PRE]
    return tuple(circuit.directions[: len(pattern)].tolist()) == pattern


def validate_handshake_post(circuit: Circuit) -> str:
    """Classify a post-phase circuit via its five-cell opening pattern.

    Linked legs answer each relay handshake cell promptly, so the gaps
    after the 2nd and 4th cells are of comparable size. A plain circuit
    shows the [+1,-1,+1,-1,+1] shape too, but it was typically built in
    advance and sat idle before use, making one gap much larger.
    """
    pattern, _ = OPENING[POST]
    if tuple(circuit.directions[: len(pattern)].tolist()) != pattern:
        return INVALID
    head = circuit.timestamps[:5].tolist()
    g1, g2 = head[2] - head[1], head[4] - head[3]
    ratio = max(g1, g2) / max(min(g1, g2), GAP_FLOOR_NS)
    return CONFLUX if ratio <= GAP_RATIO_BOUND else NON_CONFLUX


def select_main_circuit(
    page_domain: str,
    candidates: Sequence[tuple[PageVisitRecord, Circuit]],
) -> Circuit | None:
    """Pick the circuit that actually carried the page load.

    Candidates whose first-party domain no longer matches the page were
    created after a redirect; candidates requesting an .onion name are
    alternative-service legs. Both are ignored. Among the survivors the
    highest cell count wins; ties go to the earliest start. None when no
    candidate survives.
    """
    survivors = [
        circuit for record, circuit in candidates
        if record.first_party_domain == page_domain and not record.target_domain.endswith(".onion")
    ]
    return min(survivors, key=lambda c: (-len(c), c.start_ts), default=None)


def trim_head(circuit: Circuit, phase: str) -> tuple[np.ndarray, np.ndarray]:
    """Strip the phase's opening cells and re-zero time at the first data cell.

    Circuits are often built well before they carry data, so the raw gap
    between handshake and payload is idle time, not page behavior. Returns
    the kept cells' ``(timestamps, directions)``. Kept cells out of time
    order raise ``GuardsiftError``.
    """
    _, strip = OPENING[phase]
    timestamps = circuit.timestamps[strip:]
    if not len(timestamps):
        raise GuardsiftError(f"circuit {circuit.circuit_id}: no cells left after head trim")
    backwards = np.flatnonzero(timestamps[1:] < timestamps[:-1])
    if len(backwards):
        i = strip + int(backwards[0])
        raise GuardsiftError(
            f"circuit {circuit.circuit_id} has cells out of time order: cell {i + 1} at"
            f" {circuit.timestamps[i + 1]} ns follows cell {i} at {circuit.timestamps[i]} ns"
        )
    return timestamps - timestamps[0], circuit.directions[strip:]


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


def compute_duration_cap(durations: Sequence[int]) -> int:
    """Nearest-rank ``DURATION_CAP_PERCENTILE`` percentile of trace durations, in ns."""
    if not durations:
        raise GuardsiftError("duration cap needs at least one monitored trace")
    durations = sorted(durations)
    rank = math.ceil(DURATION_CAP_PERCENTILE / 100.0 * len(durations))
    cap = durations[max(rank, 1) - 1]
    if not 42_000_000_000 <= cap <= 47_000_000_000:
        log.debug("duration cap %.1f s falls outside the usual 42-47 s band", cap / 1e9)
    return cap


# --- pipeline composition ---------------------------------------------------


@dataclass
class VisitGroup:
    """Circuit-request rows that belong to one page load on one channel.

    ``named`` holds every ``(row, channel_id, circuit)`` that a row's
    circuit ids resolve to, in row order and then id order.
    """

    channel_id: int
    page_domain: str
    rows: list[PageVisitRecord] = field(default_factory=list)
    named: list[tuple[PageVisitRecord, int, Circuit]] = field(default_factory=list)

    @property
    def start_ts(self) -> int:
        return self.rows[0].request_ts


def circuit_index(channels: Iterable[Channel]) -> dict[int, tuple[int, Circuit]]:
    """Each circuit id on ``channels``, to its channel id and circuit; an id
    carried by two channels resolves to the later one."""
    return {cid: (ch.channel_id, circuit) for ch in channels for cid, circuit in ch.circuits.items()}


def group_visits(
    visits: Sequence[PageVisitRecord],
    channels: Sequence[Channel],
    visit_span_ns: int,
) -> list[VisitGroup]:
    """Resolve visit rows to circuits and group them into page loads.

    A row's circuit ids are its own, then a Conflux row's linked legs. Each
    id resolves through ``circuit_index(channels)``; ids on no channel are
    ignored, and so are rows with none. A row belongs to the channel of its
    first resolved id. Rows are bucketed per channel and joined while they
    fall within ``visit_span_ns`` of the group's first request. The first
    row of a group names the page: the client navigates to the scheduled
    page before redirects or alternative services fire.
    """
    index = circuit_index(channels)
    per_channel: dict[int, list[tuple[PageVisitRecord, list]]] = {}
    for row in visits:
        ids = dict.fromkeys((row.circuit_id, *(row.leg_ids or ())))
        named = [(row, *index[cid]) for cid in ids if cid in index]
        if named:
            per_channel.setdefault(named[0][1], []).append((row, named))
    groups: list[VisitGroup] = []
    for channel_id in sorted(per_channel):
        current: VisitGroup | None = None
        for row, named in sorted(per_channel[channel_id], key=lambda entry: entry[0].request_ts):
            if current is None or row.request_ts - current.start_ts > visit_span_ns:
                current = VisitGroup(channel_id, row.first_party_domain)
                groups.append(current)
            current.rows.append(row)
            current.named.extend(named)
    return groups


CircuitKey = tuple[int, int]  # (channel_id, circuit_id): circuit ids are unique per channel only

# the report counter of each stage's circuits
_STAGE_COUNTERS = {
    Stage.SPAM: "spam_circuits_dropped",
    Stage.UNSELECTED: "visit_extra_dropped",
    Stage.HANDSHAKE: "handshake_dropped",
    Stage.NON_CONFLUX: "conflux_heuristic_dropped",
    Stage.SMALL: "small_dropped",
    Stage.TRIM: "trim_dropped",
    Stage.RETAINED: "retained",
}


@dataclass
class SanitizedDataset:
    traces: TraceColumns
    report: SanitizationReport
    outcomes: dict[CircuitKey, str] = field(default_factory=dict)  # every input circuit's stage
    labels: dict[CircuitKey, str] = field(default_factory=dict)  # retained monitored circuits


def _opening_stage(circuit: Circuit, phase: str, config: SanitizeConfig) -> str | None:
    """The stage that drops ``circuit`` for its opening cells or its size, if any."""
    if phase == PRE:
        if not validate_handshake_pre(circuit):
            return Stage.HANDSHAKE
    else:
        verdict = validate_handshake_post(circuit)
        if verdict == INVALID:
            return Stage.HANDSHAKE
        if verdict == NON_CONFLUX:
            return Stage.NON_CONFLUX
    return Stage.SMALL if len(circuit) < config.min_cells else None


def _trim_cohort(
    entries: list[tuple[Circuit, str | None, CircuitKey]],
    phase: str,
    config: SanitizeConfig,
    report: SanitizationReport,
    outcomes: dict[CircuitKey, str],
) -> TraceColumns:
    """Head- and tail-trim the circuits, all of them at once, into one table.

    The head trim is ``trim_head``'s. The duration cap comes from the
    monitored traces after the gap-based stages, so those stages run
    first for everyone. A circuit trimmed to nothing is recorded as
    ``Stage.TRIM``.
    """
    _, strip = OPENING[phase]
    circuits, labels = [circuit for circuit, _, _ in entries], [label for _, label, _ in entries]
    sizes = np.array([max(len(circuit) - strip, 0) for circuit in circuits], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes
    timestamps, directions = concat_cells(circuits, strip)
    backwards = timestamps[1:] < timestamps[:-1]
    backwards[ends[(ends > 0) & (ends < len(timestamps))] - 1] = False  # circuit boundaries
    if backwards.any():  # trim_head names the first circuit with cells out of order
        k = np.searchsorted(ends, backwards.argmax(), side="right")
        try:
            trim_head(circuits[k], phase)
        except GuardsiftError as exc:
            raise GuardsiftError(f"channel {entries[k][2][0]}: {exc}") from None
    # time restarts at each circuit's first kept cell
    timestamps -= np.repeat(timestamps[starts[sizes > 0]], sizes[sizes > 0])
    ends, pruned = prune_close_tail(timestamps, directions, starts, ends, config)
    report.tail_gap_pruned += int(np.count_nonzero(pruned & (ends > starts)))

    cap = config.duration_cap_ns
    if cap is None:
        monitored = np.array([label is not None for label in labels], dtype=bool) & (ends > starts)
        if monitored.any():
            durations = timestamps[ends[monitored] - 1] - timestamps[starts[monitored]]
            cap = compute_duration_cap(durations.tolist())
        else:
            log.warning("no monitored traces and no explicit cap; skipping duration cap")
    report.duration_cap_ns = cap

    capped, kept = cap_tail(timestamps, starts, ends, cap, config.max_len)
    report.duration_capped += int(np.count_nonzero(capped < ends))
    report.length_truncated += int(np.count_nonzero(kept < capped))
    for (_, _, key), size in zip(entries, (kept - starts).tolist()):
        outcomes[key] = Stage.RETAINED if size else Stage.TRIM
    return TraceColumns.gather(timestamps, directions, starts, kept, phase, labels)


def sanitize(
    channels: Sequence[Channel],
    config: SanitizeConfig,
    phase: str,
    visits: Sequence[PageVisitRecord] | None = None,
) -> SanitizedDataset:
    """Run the full pipeline over ingested channels.

    Every channel that a visit row names (``VisitGroup.named``) is
    controlled-client traffic: the main circuit of each page load survives
    and carries the page label, and the channel's other circuits are
    dropped as unselected. All other channels yield unlabeled traces. Each
    circuit's stage is recorded once in ``outcomes``, keyed by
    ``(channel_id, circuit_id)``, and the report's stage counters are
    counted from it.
    """
    report = SanitizationReport(input_circuits=sum(ch.circuit_count for ch in channels))
    spam_ids = detect_spam_channels(channels, config.spam_circuit_threshold)
    report.spam_channels = len(spam_ids)
    outcomes: dict[CircuitKey, str] = {
        (ch.channel_id, circuit_id): Stage.SPAM
        for ch in channels
        if ch.channel_id in spam_ids
        for circuit_id in ch.circuits
    }
    live = [ch for ch in channels if ch.channel_id not in spam_ids]

    groups = group_visits(visits or (), live, config.visit_span_ns)
    monitored = {channel_id for group in groups for _, channel_id, _ in group.named}
    claimed: dict[CircuitKey, str] = {}  # main circuit -> page label
    for group in groups:
        candidates = [(row, circuit) for row, _, circuit in group.named]
        main = select_main_circuit(group.page_domain, candidates)
        if main is None:
            continue
        owner = next(channel_id for _, channel_id, circuit in group.named if circuit is main)
        claimed[owner, main.circuit_id] = group.page_domain

    # (circuit, label, key) of the circuits that reach the trimmers
    entries: list[tuple[Circuit, str | None, CircuitKey]] = []
    for channel in live:
        for circuit_id, circuit in channel.circuits.items():
            key = (channel.channel_id, circuit_id)
            unselected = channel.channel_id in monitored and key not in claimed
            stage = Stage.UNSELECTED if unselected else _opening_stage(circuit, phase, config)
            if stage is None:
                entries.append((circuit, claimed.get(key), key))
            else:
                outcomes[key] = stage

    traces = _trim_cohort(entries, phase, config, report, outcomes)
    for stage, count in Counter(outcomes.values()).items():
        setattr(report, _STAGE_COUNTERS[stage], count)
    if len(outcomes) != report.input_circuits:
        raise AssertionError("sanitization outcomes do not cover every input circuit")
    labels = {key: label for key, label in claimed.items() if outcomes[key] == Stage.RETAINED}
    return SanitizedDataset(traces=traces, report=report, outcomes=outcomes, labels=labels)
