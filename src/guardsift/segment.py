"""Time-based trace segmentation for an adversary without circuit IDs.

An on-path observer can split traffic per channel (one channel per client
connection) but cannot tell concurrent circuits apart. Monitored traces are
cut out of the channel by the recorded page-load window; unlabeled traffic
is segmented by a greedy pass over circuit lifespans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardsiftError
from .sanitize import SanitizeConfig, cap_tail, prune_close_tail
from .trace import OUTGOING, PRE, Channel, TraceColumns, concat_cells

__all__ = [
    "SegmentWindow",
    "plan_windows",
    "extract_monitored_window",
    "segment_nonmonitored",
]


@dataclass(frozen=True)
class SegmentWindow:
    channel_id: int
    t_start: int
    t_end: int
    consumed_circuit_ids: frozenset[int]

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise ValueError("window start must not exceed its end")
        if not self.consumed_circuit_ids:
            raise ValueError("a window must consume at least one circuit")


def plan_windows(channel: Channel) -> list[SegmentWindow]:
    """Greedy window plan over a channel's circuits.

    Circuits are walked in start order. Each unconsumed circuit opens a
    window equal to its own lifespan; every still-unconsumed circuit that
    overlaps the window (touching endpoints count) is consumed by it. Each
    circuit is consumed exactly once.

    Every circuit before the opener is already consumed and every later one
    ends no earlier than the opener starts, so a window consumes exactly the
    run of circuits that start by its end: one stable sort of the start
    times, and one ``searchsorted`` of every end among them.
    """
    circuits = list(channel.circuits.values())
    starts = np.fromiter((c.timestamps[0] for c in circuits), np.int64, len(circuits))
    order = np.argsort(starts, kind="stable")
    ends = np.fromiter((c.timestamps[-1] for c in circuits), np.int64, len(circuits))
    starts, ends = starts[order], ends[order]
    backwards = np.flatnonzero(ends < starts)
    if len(backwards):
        i = int(backwards[0])
        raise GuardsiftError(
            f"channel {channel.channel_id}: circuit {circuits[order[i]].circuit_id} ends at"
            f" {ends[i]} ns, before its first cell at {starts[i]} ns"
        )
    ids = [circuits[k].circuit_id for k in order.tolist()]
    consumed_to = np.searchsorted(starts, ends, side="right").tolist()
    starts, ends = starts.tolist(), ends.tolist()
    windows: list[SegmentWindow] = []
    i = 0
    while i < len(ids):
        j = consumed_to[i]
        windows.append(SegmentWindow(channel.channel_id, starts[i], ends[i], frozenset(ids[i:j])))
        i = j
    return windows


def _finish_segments(
    timestamps, directions, starts, ends, config: SanitizeConfig, label: str | None, phase: str
) -> TraceColumns:
    """The time-sorted segments ``starts[k]:ends[k]``, which tile the cells, as a table.

    Each segment is aligned to its first outgoing cell, normalized and
    tail-trimmed, all segments at once. A segment without an outgoing cell,
    or that trims away entirely, yields no trace.
    """
    outgoing = np.append(np.flatnonzero(directions == OUTGOING), len(directions))
    first = np.minimum(outgoing[np.searchsorted(outgoing, starts)], ends)
    # each segment shifted so that its first outgoing cell sits at 0 (``first`` may be the end)
    base = np.append(timestamps, 0)[first]
    timestamps = timestamps - np.repeat(base, ends - starts)
    # the channel view has no handshake to strip, so only the tail stages run
    ends, _ = prune_close_tail(timestamps, directions, first, ends, config)
    _, ends = cap_tail(timestamps, first, ends, config.duration_cap_ns, config.max_len)
    return TraceColumns.gather(timestamps, directions, first, ends, phase, [label] * len(ends))


def extract_monitored_window(
    channel: Channel,
    visit_start: int,
    visit_end: int,
    config: SanitizeConfig | None = None,
    label: str | None = None,
    phase: str = PRE,
) -> TraceColumns:
    """Merge every channel cell inside a recorded page-load window.

    Overlapping circuits are flattened into one time-sorted trace of
    ``phase``, the one row of the table returned; cells with equal
    timestamps keep circuit order, then log order. Leading incoming cells
    are dropped: the client-initiated request starts with an outgoing cell.
    """
    if visit_start >= visit_end:
        raise ValueError("visit_start must be before visit_end")
    config = config or SanitizeConfig()
    timestamps, directions = concat_cells(list(channel.circuits.values()))
    inside = np.flatnonzero((visit_start <= timestamps) & (timestamps <= visit_end))
    order = inside[np.argsort(timestamps[inside], kind="stable")]
    bounds = np.array([0]), np.array([len(order)])
    table = _finish_segments(timestamps[order], directions[order], *bounds, config, label, phase)
    if not len(table):
        raise GuardsiftError(
            f"channel {channel.channel_id}: window [{visit_start}, {visit_end}]"
            " has no usable outgoing-aligned cells"
        )
    return table


def segment_nonmonitored(
    channel: Channel, config: SanitizeConfig | None = None, phase: str = PRE
) -> TraceColumns:
    """Greedy temporal clustering of a channel into page-like traces of ``phase``.

    One trace per planned window, holding every channel cell inside the
    window, time-sorted; cells with equal timestamps keep circuit-id order,
    then log order. Cells of a consumed circuit outside its window are
    dropped, never reused by later windows. Windows whose cells cannot be
    aligned to an outgoing cell (or that trim away entirely) yield no trace.
    """
    config = config or SanitizeConfig()
    windows = plan_windows(channel)
    window_of = {cid: k for k, w in enumerate(windows) for cid in w.consumed_circuit_ids}
    circuits = [channel.circuits[cid] for cid in sorted(channel.circuits)]
    timestamps, directions = concat_cells(circuits)
    window = np.repeat(
        np.array([window_of[c.circuit_id] for c in circuits], dtype=np.int64),
        [len(c) for c in circuits],
    )
    bounds = np.array([(w.t_start, w.t_end) for w in windows], dtype=np.int64).reshape(-1, 2)
    inside = np.flatnonzero(
        (bounds[window, 0] <= timestamps) & (timestamps <= bounds[window, 1])
    )
    # stable: within a window, ties keep circuit-id order, then log order
    order = inside[np.lexsort((timestamps[inside], window[inside]))]
    timestamps, directions, window = timestamps[order], directions[order], window[order]
    starts, ends = (
        np.searchsorted(window, np.arange(len(windows)), side=side) for side in ("left", "right")
    )
    return _finish_segments(timestamps, directions, starts, ends, config, None, phase)
