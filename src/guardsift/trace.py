"""Core domain types: cells, circuits, channels, traces, the trace table and its export.

Timestamps are integer nanoseconds throughout. Directions follow the
client-side convention: +1 for cells sent by the client towards the guard,
-1 for cells received by the client.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import GuardsiftError

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


@dataclass(frozen=True, eq=False)
class Trace:
    """A time-sorted cell sequence with its phase, label and trim state.

    Cells are parallel arrays, as in ``Circuit``: ``timestamps`` is int64
    nanoseconds and ``directions`` int8. ``label`` is the monitored class
    (page) label; ``None`` marks a non-monitored trace. ``tail_trimmed``
    marks that the tail heuristics already ran, so re-running them cannot
    eat more cells.
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

    def with_cells(self, timestamps: np.ndarray, directions: np.ndarray, **changes) -> "Trace":
        """Copy with new cell arrays."""
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


def concat_cells(parts: Sequence, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The timestamps and directions of ``parts`` (circuits, traces or
    tables), each from its cell ``start`` on, one after another."""
    return (
        np.concatenate([p.timestamps[start:] for p in parts] + [np.empty(0, dtype=np.int64)]),
        np.concatenate([p.directions[start:] for p in parts] + [np.empty(0, dtype=np.int8)]),
    )


class TraceColumns:
    """Many traces in one int64 timestamp and one int8 direction column.

    Trace ``i`` holds the cells ``bounds[i]:bounds[i + 1]`` and has phase
    ``phases[i]`` and label ``labels[i]``: the values-plus-offsets layout of
    Arrow's variable-size list. The trimmers build one, ``write_dataset``
    writes one and ``columns.read_columns`` reads one back. (A plain class:
    a dataclass would add about 2 ms to the start-up of each command.)
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        directions: np.ndarray,
        bounds: np.ndarray,
        phases: list[str],
        labels: list[str | None],
    ):
        self.timestamps = timestamps
        self.directions = directions
        self.bounds = bounds
        self.phases = phases
        self.labels = labels

    @classmethod
    def gather(
        cls, timestamps, directions, starts, ends, phase: str, labels: Sequence[str | None]
    ) -> TraceColumns:
        """The segments ``starts[k]:ends[k]`` of the cells, with labels
        ``labels[k]``, as one table; empty segments are dropped. Segments
        must not overlap and must come in the order of their cells."""
        # +1 where a segment opens and -1 where it closes: the running sum marks its cells
        inside = np.zeros(len(timestamps) + 1, dtype=np.int8)
        np.add.at(inside, starts, 1)
        np.add.at(inside, ends, -1)
        inside = np.cumsum(inside[:-1], dtype=np.int8).view(bool)
        lengths = ends - starts
        kept = [label for label, n in zip(labels, lengths.tolist()) if n]
        bounds = np.concatenate(([0], np.cumsum(lengths[lengths > 0])))
        return cls(timestamps[inside], directions[inside], bounds, [phase] * len(kept), kept)

    @classmethod
    def join(cls, tables: Sequence[TraceColumns]) -> TraceColumns:
        """The rows of ``tables``, one table after another, in one table."""
        offsets = np.cumsum([0] + [len(t.timestamps) for t in tables])
        bounds = np.concatenate([[0]] + [t.bounds[1:] + k for t, k in zip(tables, offsets)])
        phases = [phase for t in tables for phase in t.phases]
        return cls(*concat_cells(tables), bounds, phases, [x for t in tables for x in t.labels])

    @classmethod
    def from_traces(cls, traces: Sequence[Trace]) -> TraceColumns:
        """The traces as the rows of one table."""
        bounds = np.cumsum([0] + [len(t) for t in traces])
        return cls(*concat_cells(traces), bounds, [t.phase for t in traces], [t.label for t in traces])

    def __len__(self) -> int:
        return len(self.phases)

    def rows(self, start: int, stop: int) -> TraceColumns:
        """Traces ``start:stop`` as columns that view these ones."""
        bounds = self.bounds[start : stop + 1]
        return TraceColumns(
            self.timestamps[bounds[0] : bounds[-1]],
            self.directions[bounds[0] : bounds[-1]],
            bounds - bounds[0],
            self.phases[start:stop],
            self.labels[start:stop],
        )

    def traces(self) -> list[Trace]:
        """One ``Trace`` per trace, with views into the columns as cells."""
        ends = self.bounds.tolist()
        return [
            Trace(self.timestamps[start:end], self.directions[start:end], phase, label)
            for start, end, phase, label in zip(ends, ends[1:], self.phases, self.labels)
        ]


_BLOCK_CELLS = 1 << 16  # cells rendered and written, or hashed, at a time


def compute_trace_id(table: TraceColumns) -> list[str]:
    """The content hash of each trace: the first 16 hex digits of the
    sha256 of its int8 directions and then its inter-arrival gaps as
    little-endian uint64 (0 for the first cell), as raw bytes, taken about
    ``_BLOCK_CELLS`` cells at a time.

    Invariant under timestamp offsets, so a trace keeps its id through
    normalization.
    """
    import hashlib  # imported by the commands that hash ids only

    ids, start = [], 0
    while start < len(table):
        # the rows up to the one that takes the block to _BLOCK_CELLS cells
        stop = int(np.searchsorted(table.bounds, table.bounds[start] + _BLOCK_CELLS))
        rows = table.rows(start, min(stop, len(table)))
        gaps = np.diff(rows.timestamps, prepend=rows.timestamps[:1])
        firsts = rows.bounds[:-1]
        gaps[firsts[firsts < len(gaps)]] = 0  # each trace's first cell
        # the gaps of sorted int64 timestamps fit uint64 even where int64 wraps
        gaps = memoryview(gaps.view(np.uint64).astype("<u8", copy=False)).cast("B")
        directions = memoryview(np.ascontiguousarray(rows.directions, dtype=np.int8)).cast("B")
        bounds = rows.bounds.tolist()
        for first, end in zip(bounds, bounds[1:]):
            digest = hashlib.sha256(directions[first:end])
            digest.update(gaps[8 * first : 8 * end])
            ids.append(digest.hexdigest()[:16])
        start += len(rows)
    return ids


def _encoded_blocks(table: TraceColumns, seed: int) -> Iterator[bytes]:
    """Check that every trace has cells and starts at 0 ns, then yield the
    lines in the seeded order, encoded, about ``_BLOCK_CELLS`` cells at a time."""
    bounds, timestamps, directions = table.bounds.tolist(), table.timestamps, table.directions
    bad = np.diff(table.bounds) == 0  # empty, or (below) not starting at 0
    bad[~bad] = timestamps[table.bounds[:-1][~bad]] != 0
    if bad.any():
        i = int(bad.argmax())
        row = table.rows(i, i + 1)
        if not len(row.timestamps):
            raise GuardsiftError("cannot export an empty trace")
        (trace_id,) = compute_trace_id(row)
        raise GuardsiftError(f"trace {trace_id} starts at {row.timestamps[0]} ns, expected 0")
    # each line's head, up to the "[" of its cells: phases and labels repeat, so render each once
    heads = {
        (phase, label): f'{{"phase":{json.dumps(phase)},"label":{json.dumps(label)},"cells":['
        for phase, label in set(zip(table.phases, table.labels))
    }
    lines, cells = [], 0
    for i in np.random.default_rng(seed).permutation(len(table)).tolist():
        start, end = bounds[i], bounds[i + 1]
        text = ("[%d,%d]," * (end - start)) % _pairs(timestamps[start:end], directions[start:end])
        lines.append(f"{heads[table.phases[i], table.labels[i]]}{text[:-1]}]}}\n")
        cells += end - start
        if cells >= _BLOCK_CELLS:
            yield "".join(lines).encode("utf-8")
            lines, cells = [], 0
    yield "".join(lines).encode("utf-8")


def serialize_dataset(table: TraceColumns, seed: int) -> bytes:
    """Render the traces as newline-delimited JSON in a seeded random order.

    Only directions, timestamps, and class labels are written; channel and
    circuit identifiers never reach the output. The same seed yields
    byte-identical bytes.
    """
    return b"".join(_encoded_blocks(table, seed))


def write_dataset(table: TraceColumns, seed: int, path: str | Path) -> None:
    """Write ``serialize_dataset``'s bytes to ``path``, one block at a time."""
    blocks = _encoded_blocks(table, seed)
    first = next(blocks)  # the table is checked before the file is opened
    with open(path, "wb") as handle:
        handle.write(first)
        handle.writelines(blocks)


def read_dataset(source: str | Path | IO[str]) -> list[Trace]:
    """Parse a newline-delimited JSON trace file back into traces.

    The file's contract and errors are those of ``columns.read_columns``;
    the traces are views into one timestamp and one direction array.
    """
    from .columns import read_columns  # the reader is imported only by the commands that read

    return read_columns(source).traces()
