"""Constructors and references that only the tests use.

The package keeps what a command runs. The tests also build traces and
circuits from cell lists, write scenario configs, take a trace file's bytes,
compare traces by value and trim one trace's tail; those helpers live here.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from guardsift.errors import GuardsiftError
from guardsift.sanitize import cap_tail, prune_close_tail
from guardsift.trace import INCOMING, NO_CELL_TYPE, OUTGOING, PRE, Circuit, Trace, TraceColumns
from guardsift.trace import compute_trace_id, write_dataset


def trace_from_cells(cells, phase: str = PRE, label: str | None = None) -> Trace:
    """A trace of ``(timestamp_ns, direction)`` pairs with directions of +-1.
    Its directions are checked before its order, as ``columns._first_fault``
    checks a trace file's."""
    cells = list(cells)
    pairs = np.array(cells, dtype=np.int64).reshape(len(cells), 2)
    directions = pairs[:, 1]
    if not ((directions == OUTGOING) | (directions == INCOMING)).all():
        raise ValueError("directions must be +1 or -1")
    return Trace(pairs[:, 0].copy(), directions.astype(np.int8), phase, label)


def trace_fields(trace: Trace) -> tuple:
    """What a trace holds, as values: ``Trace`` has no value equality, so
    ``==`` on two traces would compare their identities."""
    return trace.phase, trace.label, trace.timestamps.tolist(), trace.directions.tolist()


def circuit_from_cells(circuit_id: int, cells) -> Circuit:
    """A circuit of ``(timestamp_ns, direction[, cell_type])`` cells, kept in
    the order given. It has cell types when any cell has one that is not
    None; the others then hold ``NO_CELL_TYPE``."""
    cells = list(cells)
    types = [cell[2] if len(cell) > 2 and cell[2] is not None else None for cell in cells]
    return Circuit(
        circuit_id,
        np.array([cell[0] for cell in cells], dtype=np.int64),
        np.array([cell[1] for cell in cells], dtype=np.int8),
        None
        if all(t is None for t in types)
        else np.array([NO_CELL_TYPE if t is None else t for t in types], dtype=np.int64),
    )


def write_scenario(config, path) -> None:
    """Write a ``ScenarioConfig`` as the JSON file ``generate --config`` reads."""
    Path(path).write_text(json.dumps(asdict(config), indent=2) + "\n", encoding="utf-8")


def dataset_bytes(table: TraceColumns, seed: int) -> bytes:
    """The bytes ``write_dataset`` writes for ``table`` and ``seed``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.ndjson"
        write_dataset(table, seed, path)
        return path.read_bytes()


# --- the tail trim of one trace, the reference C05 holds sanitize() to --------


class TrimmedTrace(Trace):
    """A trace that ``trim_tail`` returned: its gap stages already ran."""


def trim_tail(trace: Trace, config) -> TrimmedTrace:
    """Apply the tail stages to one trace: teardown cells, shutdown tail,
    duration cap and length cap, through the stage functions ``sanitize()``
    runs over many segments at once.

    The gap stages run once per trace: a ``TrimmedTrace`` already had them,
    so trimming it again cannot remove more cells. The cap stages are plain
    projections and always apply. A trace left empty raises
    ``GuardsiftError`` naming its id.
    """
    end, trimmed = len(trace), isinstance(trace, TrimmedTrace)
    if not trimmed:
        (end,), _ = prune_close_tail(trace.timestamps, trace.directions, [0], [end], config)
    _, (end,) = cap_tail(trace.timestamps, [0], [end], config.duration_cap_ns, config.max_len)
    if not end:
        (trace_id,) = compute_trace_id(TraceColumns.from_traces([trace]))
        raise GuardsiftError(f"trace {trace_id}: empty after tail trim")
    if end == len(trace) and trimmed:
        return trace
    return TrimmedTrace(trace.timestamps[:end], trace.directions[:end], trace.phase, trace.label)
