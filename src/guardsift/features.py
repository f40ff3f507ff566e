"""Classifier-ready representations of traces.

Three views: the raw direction sequence, the signed-timing sequence, and
a 2 x N per-direction count matrix over fixed time slots.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .trace import OUTGOING, TraceColumns

SEC = 1_000_000_000


def _tam_horizon_ns(t_max_s: float, n_slots: int) -> int:
    """``t_max`` in integer nanoseconds, checked for the int64 slot arithmetic."""
    if not 0 < t_max_s < math.inf:
        raise ValueError("t_max must be positive and finite")
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    # a horizon past int64 overflows below anyway; inf cannot be rounded
    t_max_ns = int(round(min(t_max_s * SEC, 2.0**63)))
    if t_max_ns < 1:
        raise ValueError("t_max must be at least 1 ns")
    if t_max_ns * n_slots >= 2**63:
        raise ValueError(
            f"t_max {t_max_s:g} s with {n_slots} slots overflows int64 slot arithmetic"
        )
    return t_max_ns


def default_t_max(columns: TraceColumns) -> float:
    """Longest trace duration in seconds; the usual matrix horizon."""
    if not len(columns):
        raise ValueError("no traces")
    starts, ends = columns.bounds[:-1], columns.bounds[1:]
    cells = ends > starts
    first = columns.timestamps[starts[cells]].view(np.uint64)
    last = columns.timestamps[ends[cells] - 1].view(np.uint64)
    # sorted cells: last - first fits uint64 even where int64 wraps
    return int((last - first).max(initial=0)) / SEC


# cells placed per step: index buffers this small take no memory next to a block
_BLOCK_CELLS = 1 << 13


def _fill_heads(out: np.ndarray, columns: TraceColumns, values) -> np.ndarray:
    """Zero ``out`` and write the first ``out.shape[1]`` cells of trace ``i``
    into row ``i``; ``values`` maps a column slice to the values of its cells."""
    out.fill(0)
    length = out.shape[1]
    flat = out.reshape(-1)
    for start in range(0, len(columns.timestamps), _BLOCK_CELLS):
        cells = np.arange(start, min(start + _BLOCK_CELLS, len(columns.timestamps)))
        rows = np.searchsorted(columns.bounds, cells, side="right") - 1
        positions = cells - columns.bounds[rows]
        head = positions < length
        flat[rows[head] * length + positions[head]] = values(slice(cells[0], cells[-1] + 1))[head]
    return out


def direction_sequence(rows: TraceColumns, out: np.ndarray) -> np.ndarray:
    """``out`` with the directions of trace ``i`` of ``rows`` in row ``i``,
    truncated to ``out.shape[1]`` cells and zero-padded."""
    return _fill_heads(out, rows, lambda cells: rows.directions[cells])


def directional_timing(rows: TraceColumns, out: np.ndarray) -> np.ndarray:
    """``out`` with the timestamps of trace ``i`` of ``rows`` in row ``i``, in
    seconds and signed by direction, truncated to ``out.shape[1]`` cells and
    zero-padded."""

    def signed_seconds(cells: slice) -> np.ndarray:
        timestamps = rows.timestamps[cells]
        seconds = timestamps / SEC
        # past 2**53 ns the int64 -> float64 cast rounds before the division;
        # Python's int / int rounds once
        wide = (timestamps < -(2**53)) | (timestamps > 2**53)
        seconds[wide] = [t / SEC for t in timestamps[wide].tolist()]
        return seconds * rows.directions[cells]

    return _fill_heads(out, rows, signed_seconds)


def build_tam(rows: TraceColumns, t_max_ns: int, n_slots: int) -> np.ndarray:
    """Per-direction cell counts over fixed time slots: a ``len(rows)`` x 2 x
    ``n_slots`` int64 array. Row 0 of a trace counts outgoing cells, row 1
    incoming. A cell at time t lands in slot floor(t * n_slots / t_max),
    clamped so t == t_max falls in the last slot; cells before 0 or past
    t_max are dropped. ``t_max_ns`` comes from ``_tam_horizon_ns``."""
    n = len(rows)
    trace_of_cell = np.repeat(np.arange(n), np.diff(rows.bounds))
    ts, d = rows.timestamps, rows.directions
    keep = (ts >= 0) & (ts <= t_max_ns)
    # integer slot index: exact, so 2k slots sum pairwise to k slots
    slots = np.minimum(ts[keep] * n_slots // t_max_ns, n_slots - 1)
    index = (2 * trace_of_cell[keep] + (d[keep] != OUTGOING)) * n_slots + slots
    counts = np.bincount(index, minlength=2 * n_slots * n)
    return counts.astype(np.int64, copy=False).reshape(n, 2, n_slots)


# bytes of feature rows built at once: featurize holds one block, not the matrix
_BLOCK_BYTES = 1 << 22


class FeatureBlocks:
    """One row per trace of the ``kind`` view, built a block of rows at a time.

    ``direction`` and ``timing`` rows hold ``length`` values; ``tam`` rows
    are 2 x ``n_slots`` matrices over [0, ``t_max_s``]. Iterating yields the
    rows in order, ``block_rows`` at a time (fewer in the last block), each
    block built by ``direction_sequence``, ``directional_timing`` or
    ``build_tam`` on that block of traces. Direction and timing blocks are
    views of one buffer that each step zeroes and fills again, so a block is
    only valid until the next step. ``shape``, ``dtype`` and ``meta`` describe
    the whole matrix; ``len`` is its row count.
    """

    def __init__(
        self,
        columns: TraceColumns,
        kind: str,
        length: int = 5000,
        t_max_s: float | None = None,
        n_slots: int = 1800,
    ):
        if kind == "tam":
            if t_max_s is None:
                raise ValueError("tam features need t_max_s")
            self._t_max_ns = _tam_horizon_ns(t_max_s, n_slots)
            row_shape, self.dtype = (2, n_slots), np.dtype(np.int64)
            self.meta = {
                "kind": kind,
                "t_max_s": t_max_s,
                "n_slots": n_slots,
                "slot_duration_s": t_max_s / n_slots,
            }
        elif kind in ("direction", "timing"):
            if length < 1:
                raise ValueError("length must be >= 1")
            row_shape = (length,)
            self.dtype = np.dtype(np.int8 if kind == "direction" else np.float64)
            self.meta = {"kind": kind, "length": length}
        else:
            raise ValueError(f"unknown feature kind {kind!r}")
        self.columns, self.kind = columns, kind
        self.shape = (len(columns), *row_shape)
        self.block_rows = max(1, _BLOCK_BYTES // (math.prod(row_shape) * self.dtype.itemsize))
        # one buffer for every block: a fresh array per block pays its page faults again
        buffer_shape = (min(self.block_rows, len(columns)), *row_shape)
        self._buffer = None if kind == "tam" else np.zeros(buffer_shape, self.dtype)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        # the builders are looked up by name at each step, so a wrapper set on the module sees them
        for start in range(0, len(self.columns), self.block_rows):
            rows = self.columns.rows(start, start + self.block_rows)
            if self.kind == "tam":
                yield build_tam(rows, self._t_max_ns, self.meta["n_slots"])
            elif self.kind == "direction":
                yield direction_sequence(rows, self._buffer[: len(rows)])
            else:
                yield directional_timing(rows, self._buffer[: len(rows)])


def write_features(path: str | Path, blocks: FeatureBlocks) -> None:
    """Row-major binary dump plus a JSON header sidecar (shape, dtype and
    ``blocks.meta``), written after the data. Appending the blocks in turn
    writes the bytes of one dump of the whole matrix."""
    path = Path(path)
    with open(path, "wb") as handle:
        for block in blocks:
            block.tofile(handle)
    header = {"shape": list(blocks.shape), "dtype": str(blocks.dtype), **blocks.meta}
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(header, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_features(path: str | Path) -> tuple[np.ndarray, dict]:
    """The array and header written by :func:`write_features`.

    A header that is not a JSON object with a numeric ``dtype`` and a
    ``shape`` of non-negative integers matching the size of ``path`` raises
    ``ParseError``.
    """
    path = Path(path)
    header_path = path.with_suffix(path.suffix + ".json")
    try:
        header = json.loads(header_path.read_bytes())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{header_path.name} is not JSON: {exc.msg}") from None
    except (ValueError, RecursionError):  # not UTF-8, or nested too deeply
        raise ParseError(1, f"{header_path.name} is not JSON") from None
    if not isinstance(header, dict):
        raise ParseError(1, f"{header_path.name} is not a JSON object")
    shape, dtype = header.get("shape"), header.get("dtype")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ParseError(1, f"{header_path.name}: shape must be a list of non-negative integers")
    try:
        dtype = np.dtype(dtype) if isinstance(dtype, str) else None
    except (TypeError, ValueError, SyntaxError):  # numpy evaluates a repeat count as Python
        dtype = None
    if dtype is None or dtype.kind not in "biuf":
        raise ParseError(1, f"{header_path.name}: dtype must name a numeric type")
    count, size = math.prod(shape), path.stat().st_size
    if count * dtype.itemsize != size:
        raise ParseError(
            1, f"{header_path.name}: shape {shape} of {dtype} does not match the"
            f" {size} bytes of {path.name}"
        )
    return np.fromfile(path, dtype=dtype, count=count).reshape(shape), header


def write_features_csv(path: str | Path, blocks: FeatureBlocks) -> None:
    """Plain-text alternative for inspection: one line per row, written a
    block at a time."""
    fmt = "%d" if np.issubdtype(blocks.dtype, np.integer) else "%.9g"
    with open(path, "w", encoding="utf-8") as handle:
        for block in blocks:
            np.savetxt(handle, block.reshape(len(block), -1), fmt=fmt, delimiter=",")
