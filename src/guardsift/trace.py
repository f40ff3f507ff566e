"""Core domain types: cells, traces, circuits, channels, and dataset export.

Timestamps are integer nanoseconds throughout. Directions follow the
client-side convention: +1 for cells sent by the client towards the guard,
-1 for cells received by the client.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import EmptyTraceError, NotNormalizedError, ParseError

OUTGOING = 1
INCOMING = -1

PRE = "pre"
POST = "post"
PHASES = (PRE, POST)

#: a single observed cell: (timestamp_ns, direction)
Cell = tuple[int, int]

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


def compute_trace_id(cells: Sequence[Cell], salt: str = "") -> str:
    """Content hash over the (direction, inter-arrival) sequence.

    Invariant under timestamp offsets, so a trace keeps its id through
    normalization. The salt separates id spaces of unrelated datasets.
    """
    h = hashlib.sha256()
    h.update(salt.encode("utf-8"))
    prev = cells[0][0] if cells else 0
    for ts, direction in cells:
        h.update(b"%d,%d;" % (direction, ts - prev))
        prev = ts
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Trace:
    """An ordered cell sequence with provenance metadata.

    ``label`` is the monitored class (page) label; ``None`` marks a
    non-monitored trace. ``client_tag`` records which controlled client
    produced a monitored trace. ``tail_trimmed`` marks that the tail
    heuristics already ran, so re-running them cannot eat more cells.
    ``trace_id`` is the content hash of the cells, computed on first read.
    """

    cells: tuple[Cell, ...]
    phase: str = PRE
    label: str | None = None
    client_tag: str | None = None
    tail_trimmed: bool = False

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {PHASES}, got {self.phase!r}")
        prev = None
        for ts, _ in self.cells:
            if prev is not None and ts < prev:
                raise ValueError("cells must be sorted by timestamp")
            prev = ts

    @cached_property
    def trace_id(self) -> str:
        return compute_trace_id(self.cells)

    @property
    def monitored(self) -> bool:
        return self.label is not None

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def duration_ns(self) -> int:
        if not self.cells:
            return 0
        return self.cells[-1][0] - self.cells[0][0]

    @property
    def directions(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.cells)

    def with_cells(self, cells: Iterable[Cell], **changes) -> "Trace":
        """Copy with new cells; the copy computes its own content id."""
        return replace(self, cells=tuple(cells), **changes)


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
    source_tag: str = ""

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
    if not trace.cells:
        raise EmptyTraceError("cannot normalize an empty trace")
    offset = trace.cells[0][0]
    if offset == 0:
        return trace
    return replace(trace, cells=tuple((ts - offset, d) for ts, d in trace.cells))


def _trace_line(trace: Trace) -> str:
    payload = {
        "phase": trace.phase,
        "label": trace.label,
        "cells": [[ts, d] for ts, d in trace.cells],
    }
    return json.dumps(payload, separators=(",", ":"))


def serialize_dataset(traces: Sequence[Trace], seed: int) -> bytes:
    """Render traces as newline-delimited JSON in a seeded random order.

    Only directions, timestamps, and class labels are written; channel and
    circuit identifiers never reach the output. The same seed yields
    byte-identical bytes.
    """
    for trace in traces:
        if not trace.cells:
            raise EmptyTraceError("cannot export an empty trace")
        if trace.cells[0][0] != 0:
            raise NotNormalizedError(
                f"trace {trace.trace_id} starts at {trace.cells[0][0]} ns, expected 0"
            )
    order = np.random.default_rng(seed).permutation(len(traces))
    lines = [_trace_line(traces[i]) for i in order]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def write_dataset(traces: Sequence[Trace], seed: int, path: str | Path) -> None:
    Path(path).write_bytes(serialize_dataset(traces, seed))


def read_dataset(source: str | Path | IO[str]) -> list[Trace]:
    """Parse a newline-delimited JSON trace file back into traces."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    traces = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            trace = Trace(
                cells=tuple((int(ts), int(d)) for ts, d in payload["cells"]),
                phase=payload["phase"],
                label=payload["label"],
            )
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"not JSON: {exc.msg}") from None
        except KeyError as exc:
            raise ParseError(line_no, f"missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(line_no, f"bad trace: {exc}") from None
        traces.append(trace)
    return traces
