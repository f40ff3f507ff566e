"""Core domain types: cells, traces, circuits, channels, and dataset export.

Timestamps are integer nanoseconds throughout. Directions follow the
client-side convention: +1 for cells sent by the client towards the guard,
-1 for cells received by the client.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import EmptyTraceError, NotNormalizedError

OUTGOING = 1
INCOMING = -1

PRE = "pre"
POST = "post"
PHASES = (PRE, POST)


class Stage:
    """Where a circuit ends up: the stage that removes it, or retained. The
    sanitizer's per-circuit outcomes and truth.json's ``expected_stage`` use
    these names; relay channels are dropped at ingest."""

    RELAY = "relay"
    SPAM = "spam"
    UNSELECTED = "unselected"
    HANDSHAKE = "handshake"
    NON_CONFLUX = "non_conflux"
    SMALL = "small"
    TRIM = "trim"
    RETAINED = "retained"


#: ``Circuit.cell_types`` entry for a logged cell without a cell type
NO_CELL_TYPE = -1


@dataclass(frozen=True)
class CellRecord:
    """One logged cell, as captured at a relay or client."""

    channel_id: int
    circuit_id: int
    timestamp: int
    direction: int
    cell_type: int | None = None

    def __post_init__(self):
        if self.direction not in (OUTGOING, INCOMING):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")
        if not 0 <= self.circuit_id < 2**32:
            raise ValueError(f"circuit_id out of 32-bit range: {self.circuit_id}")
        if self.cell_type is not None and self.cell_type < 0:
            raise ValueError(f"cell_type must be non-negative, got {self.cell_type}")


def _pairs(first: np.ndarray, second: np.ndarray) -> tuple[int, ...]:
    """``(first[0], second[0], first[1], second[1], ...)`` as Python ints, to
    %-format with one pair of ``%d`` fields per element."""
    flat = [0] * (2 * len(first))
    flat[0::2] = first.tolist()
    flat[1::2] = second.tolist()
    return tuple(flat)


def compute_trace_id(timestamps: np.ndarray, directions: np.ndarray) -> str:
    """Content hash over the (direction, inter-arrival) sequence.

    Invariant under timestamp offsets, so a trace keeps its id through
    normalization.
    """
    import hashlib  # imported by the commands that hash ids only

    # the gaps of sorted int64 timestamps fit uint64 even where int64 wraps
    gaps = np.diff(timestamps, prepend=timestamps[:1]).view(np.uint64)
    text = ("%d,%d;" * len(gaps)) % _pairs(directions, gaps)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, eq=False)
class Trace:
    """A time-sorted cell sequence with its phase, label and trim state.

    Cells are parallel arrays, as in ``Circuit``: ``timestamps`` is int64
    nanoseconds and ``directions`` int8. ``label`` is the monitored class
    (page) label; ``None`` marks a non-monitored trace. ``tail_trimmed``
    marks that the tail heuristics already ran, so re-running them cannot
    eat more cells. ``trace_id`` is the content hash of the cells,
    computed on first read.
    """

    timestamps: np.ndarray
    directions: np.ndarray
    phase: str = PRE
    label: str | None = None
    tail_trimmed: bool = False

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        if self.timestamps.shape != self.directions.shape or self.timestamps.ndim != 1:
            raise ValueError("timestamps and directions must be 1-d and of equal length")
        if (self.timestamps[1:] < self.timestamps[:-1]).any():
            raise ValueError("cells must be sorted by timestamp")

    @classmethod
    def from_cells(cls, cells: Iterable[tuple[int, int]], **meta) -> "Trace":
        """Trace from ``(timestamp_ns, direction)`` pairs with directions of +-1."""
        cells = list(cells)
        pairs = np.array(cells, dtype=np.int64).reshape(len(cells), 2)
        directions = pairs[:, 1]
        if not ((directions == OUTGOING) | (directions == INCOMING)).all():
            raise ValueError("directions must be +1 or -1")
        return cls(pairs[:, 0].copy(), directions.astype(np.int8), **meta)

    @cached_property
    def trace_id(self) -> str:
        return compute_trace_id(self.timestamps, self.directions)

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """The cells as ``(timestamp_ns, direction)`` tuples (a derived copy)."""
        return tuple(zip(self.timestamps.tolist(), self.directions.tolist()))

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            (self.phase, self.label, self.tail_trimmed)
            == (other.phase, other.label, other.tail_trimmed)
            and np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.directions, other.directions)
        )

    @property
    def duration_ns(self) -> int:
        if not len(self):
            return 0
        return int(self.timestamps[-1]) - int(self.timestamps[0])

    def with_cells(self, timestamps: np.ndarray, directions: np.ndarray, **changes) -> "Trace":
        """Copy with new cell arrays; the copy computes its own content id."""
        return replace(self, timestamps=timestamps, directions=directions, **changes)


@dataclass(eq=False)
class Circuit:
    """All cells of one circuit, in log order, as parallel arrays.

    ``timestamps`` is int64 nanoseconds and ``directions`` int8. ``cell_types``
    is int64 with ``NO_CELL_TYPE`` for a cell logged without one, or ``None``
    when no cell of the log has a type. Parsed circuits are views into one
    array per log, sorted by channel, then circuit, then log order.
    """

    circuit_id: int
    timestamps: np.ndarray
    directions: np.ndarray
    cell_types: np.ndarray | None = None

    @classmethod
    def from_records(cls, circuit_id: int, records: Iterable[CellRecord]) -> "Circuit":
        """Circuit from validated cell records, kept in the order given."""
        records = list(records)
        typed = any(r.cell_type is not None for r in records)
        return cls(
            circuit_id,
            np.array([r.timestamp for r in records], dtype=np.int64),
            np.array([r.direction for r in records], dtype=np.int8),
            np.array(
                [NO_CELL_TYPE if r.cell_type is None else r.cell_type for r in records],
                dtype=np.int64,
            )
            if typed
            else None,
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def start_ts(self) -> int:
        return int(self.timestamps[0])

    @property
    def end_ts(self) -> int:
        return int(self.timestamps[-1])

    def tail(self, start: int) -> "Circuit":
        """The same circuit without its first ``start`` cells (views, no copy)."""
        types = None if self.cell_types is None else self.cell_types[start:]
        return Circuit(self.circuit_id, self.timestamps[start:], self.directions[start:], types)


@dataclass
class Channel:
    """One client-to-relay TLS connection, multiplexing circuits."""

    channel_id: int
    circuits: dict[int, Circuit] = field(default_factory=dict)
    relay_authenticated: bool = False

    @property
    def circuit_count(self) -> int:
        return len(self.circuits)


@dataclass(frozen=True)
class SetGroundTruth:
    """Scheduler-side truth for a linked leg pair."""

    client_primary: int | None
    exit_primary: int | None
    unused: bool = False


@dataclass
class ConfluxSet:
    """Two linked legs plus optional ground truth from typed cells."""

    leg_a: Circuit
    leg_b: Circuit
    ground_truth: SetGroundTruth | None = None

    def __post_init__(self):
        if self.leg_a.circuit_id == self.leg_b.circuit_id:
            raise ValueError("conflux legs must have distinct circuit ids")


def normalize(trace: Trace) -> Trace:
    """Shift timestamps so the first cell sits at 0; deltas are preserved."""
    if not len(trace):
        raise EmptyTraceError("cannot normalize an empty trace")
    if trace.timestamps[0] == 0:
        return trace
    return trace.with_cells(trace.timestamps - trace.timestamps[0], trace.directions)


def _trace_head(phase: str, label: str | None) -> str:
    """A trace line up to the "[" that opens its cells."""
    return f'{{"phase":{json.dumps(phase)},"label":{json.dumps(label)},"cells":['


def _trace_line(trace: Trace, head: str) -> str:
    cells = (("[%d,%d]," * len(trace)) % _pairs(trace.timestamps, trace.directions))[:-1]
    return f"{head}{cells}]}}"


def serialize_dataset(traces: Sequence[Trace], seed: int) -> bytes:
    """Render traces as newline-delimited JSON in a seeded random order.

    Only directions, timestamps, and class labels are written; channel and
    circuit identifiers never reach the output. The same seed yields
    byte-identical bytes.
    """
    for trace in traces:
        if not len(trace):
            raise EmptyTraceError("cannot export an empty trace")
        if trace.timestamps[0] != 0:
            raise NotNormalizedError(
                f"trace {trace.trace_id} starts at {trace.timestamps[0]} ns, expected 0"
            )
    order = np.random.default_rng(seed).permutation(len(traces))
    # phases and labels repeat from trace to trace: render each head once
    heads = {key: _trace_head(*key) for key in {(t.phase, t.label) for t in traces}}
    lines = [_trace_line(traces[i], heads[traces[i].phase, traces[i].label]) for i in order]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def write_dataset(traces: Sequence[Trace], seed: int, path: str | Path) -> None:
    Path(path).write_bytes(serialize_dataset(traces, seed))


def read_dataset(source: str | Path | IO[str]) -> list[Trace]:
    """Parse a newline-delimited JSON trace file back into traces.

    The file's contract and errors are those of ``columns.read_columns``;
    the traces are views into one timestamp and one direction array.
    """
    from .columns import read_columns  # the reader is imported only by the commands that read

    return read_columns(source).traces()
