"""The trace file reader.

``read_columns`` decodes the newline-delimited JSON that ``trace.write_dataset``
writes back into a ``trace.TraceColumns`` table: one timestamp and one
direction column for all traces. ``featurize`` works on the table;
``trace.read_dataset`` returns its rows as ``Trace`` objects. Only the
commands that read trace files import this module.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import ParseError, StoreError, decode_utf8, read_utf8
from .store import is_regular_file, load_array, read_once
from .trace import INCOMING, OUTGOING, PHASES, TraceColumns


def _decode_line(line: str) -> tuple[list[int], str, str | None]:
    """Flat cell values ``[ts0, dir0, ts1, dir1, ...]``, phase and label of
    one trace line; ValueError, TypeError or KeyError names the fault. The
    columns check the range, directions and order of the values."""
    payload = json.loads(line)
    cells, phase, label = payload["cells"], payload["phase"], payload["label"]
    if (
        not isinstance(cells, list)
        or not set(map(type, cells)) <= {list}
        or not set(map(len, cells)) <= {2}
    ):
        raise ValueError("cells must be a list of [timestamp, direction] pairs")
    values = list(chain.from_iterable(cells))
    if not set(map(type, values)) <= {int}:
        raise ValueError("cell values must be integers")
    if label is not None and not isinstance(label, str):
        raise ValueError("label must be a string or null")
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    return values, phase, label


# The head of a line as ``write_dataset`` writes it, up to the "[" that opens
# its cells. A label that needs an escape does not match, nor does a raw
# control character, which JSON forbids.
_WRITER_HEAD = re.compile(r'\{"phase":"(pre|post)","label":(?:null|"([^"\\\x00-\x1f]*)"),"cells":\[')
# the bytes that frame the numbers of a cells text
_DELIMITER = np.zeros(256, dtype=bool)
_DELIMITER[list(b"[,]")] = True


def _signed_numbers(a: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> int | None:
    """How many of the numbers ``a[starts[i]:ends[i]]`` (digits and "-"
    bytes) start with "-", or None unless each has 1 to 18 digits and no
    leading zero."""
    signed = a[starts] == ord("-")
    digits = ends - starts - signed
    zero = a[starts + signed] == ord("0")
    if ((digits < 1) | (digits > 18) | (zero & (digits > 1))).any():
        return None
    return int(np.count_nonzero(signed))


def _writer_values(cells: bytes) -> np.ndarray | None:
    """The values ``[ts0, dir0, ts1, dir1, ...]`` of ``[ts,dir]`` pairs joined
    by ``,`` as ``write_dataset`` renders them: integers of at most 18 digits,
    without the ``+`` or leading zeros that ``%d`` never writes (``-0`` is 0
    both here and to JSON). Any other text gives None, so ``np.fromstring``
    only sees text in that form."""
    if cells.translate(None, b"0123456789-[],"):
        return None
    a = np.frombuffer(cells, dtype=np.uint8)
    delimiters = np.flatnonzero(_DELIMITER[a])
    n = (len(delimiters) + 1) // 4
    if n == 0 or a[delimiters].tobytes() != (b"[,]," * n)[:-1]:
        return None
    opens, commas, closes, between = (delimiters[k::4] for k in range(4))
    # nothing before the first "[", after the last "]" or around a "," between cells
    if (
        opens[0] != 0
        or closes[-1] != len(a) - 1
        or (between - closes[:-1] != 1).any()
        or (opens[1:] - between != 1).any()
    ):
        return None
    signs = [_signed_numbers(a, opens + 1, commas), _signed_numbers(a, commas + 1, closes)]
    # a "-" anywhere but first in a number is one more than the numbers hold
    if None in signs or cells.count(b"-") != sum(signs):
        return None
    return np.fromstring(cells.translate(None, b"[]"), dtype=np.int64, sep=",")


def _writer_cells(cells: list[str]) -> tuple[np.ndarray, list[bool]]:
    """The values of those ``cells`` texts that ``_writer_values`` accepts,
    in order, and which ones they are. Each text starts with "[" and ends
    with "]", so the texts joined by "," pass exactly when each one does:
    they are decoded in one piece, and a piece that fails is halved."""
    values = _writer_values(",".join(cells).encode("ascii", "replace"))
    if values is not None:
        return values, [True] * len(cells)
    if len(cells) < 2:
        return np.empty(0, dtype=np.int64), [False] * len(cells)
    half = len(cells) // 2
    (left, left_ok), (right, right_ok) = _writer_cells(cells[:half]), _writer_cells(cells[half:])
    return np.concatenate([left, right]), left_ok + right_ok


def _decode_general(line_no: int, line: str) -> tuple[list[int], str, str | None]:
    """``_decode_line`` with its faults as ParseError naming the line."""
    try:
        return _decode_line(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"not JSON: {exc.msg}") from None
    except RecursionError:
        raise ParseError(line_no, "not JSON: nested too deeply") from None
    except KeyError as exc:
        raise ParseError(line_no, f"missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(line_no, f"bad trace: {exc}") from None


def _first_fault(timestamps, directions, bounds) -> tuple[int, str, str] | None:
    """The first trace of the columns with a direction other than +-1 or
    cells out of order, as ``(trace, column, message)``; None when there is
    none. A trace's directions are checked before its order."""
    ends = bounds[1:]
    unsorted = timestamps[1:] < timestamps[:-1]
    unsorted[ends[(ends > 0) & (ends < len(timestamps))] - 1] = False  # trace boundaries
    faults = [
        (int(np.searchsorted(ends, bad[0], side="right")), column, message)
        # "directions" sorts before "timestamps"
        for bad, column, message in (
            (np.flatnonzero((directions != OUTGOING) & (directions != INCOMING)),
             "directions", "directions must be +1 or -1"),
            (np.flatnonzero(unsorted), "timestamps", "cells must be sorted by timestamp"),
        )
        if len(bad)
    ]
    return min(faults, default=None)


class _Columns:
    """The cells of many trace lines in one timestamp and one direction
    column. Each line's cells go straight in; their directions and order
    are checked over all stored lines at once."""

    def __init__(self, capacity: int):
        self.timestamps = np.empty(capacity, dtype=np.int64)
        # int64 until checked, so no out-of-range direction wraps to +-1
        self.directions = np.empty(capacity, dtype=np.int64)
        self.ends = [0]  # column offset after each stored trace, behind a leading 0
        self.lines: list[tuple[int, str, str | None]] = []  # (line_no, phase, label) of each

    def add(self, line_no: int, phase: str, label: str | None, values: Sequence[int]) -> None:
        """Store one line's flat cell values ``[ts0, dir0, ts1, dir1, ...]``."""
        start = self.ends[-1]
        end = start + len(values) // 2
        try:
            self.timestamps[start:end] = values[0::2]
            self.directions[start:end] = values[1::2]
        except OverflowError as exc:
            self.check()  # a fault on an earlier line comes first
            raise ParseError(line_no, f"bad trace: {exc}") from None
        self.ends.append(end)
        self.lines.append((line_no, phase, label))

    def add_lines(self, lines: list[tuple[int, str]]) -> None:
        """Store the ``(line_no, line)`` trace lines in order. Lines as
        ``write_dataset`` renders them are decoded in one batch; any other
        line goes through ``_decode_line`` on its own."""
        heads = [_WRITER_HEAD.match(line) for _, line in lines]
        # the text between "cells":[ and ]} of each line with the writer's head
        cells = [
            line[head.end() : -2] if head and line.endswith("]}") else None
            for (_, line), head in zip(lines, heads)
        ]
        batch = [k for k, text in enumerate(cells) if text and text[0] == "[" and text[-1] == "]"]
        values, in_form = _writer_cells([cells[k] for k in batch])
        writer = dict(zip(batch, in_form))
        taken = 0  # batch values stored so far
        for k, (line_no, line) in enumerate(lines):
            if cells[k] == "" or writer.get(k):
                n = 2 * cells[k].count("[")
                self.add(line_no, heads[k][1], heads[k][2], values[taken : taken + n])
                taken += n
                continue
            try:
                line_values, phase, label = _decode_general(line_no, line)
            except ParseError:
                self.check()  # a fault on an earlier line comes first
                raise
            self.add(line_no, phase, label, line_values)

    def check(self) -> None:
        """Raise ParseError naming the first stored line with a direction
        other than +-1 or cells out of order."""
        count = self.ends[-1]
        ends = np.array(self.ends, dtype=np.int64)
        fault = _first_fault(self.timestamps[:count], self.directions[:count], ends)
        if fault:
            raise ParseError(self.lines[fault[0]][0], f"bad trace: {fault[2]}")

    def finish(self) -> TraceColumns:
        self.check()
        count = self.ends[-1]
        return TraceColumns(
            self.timestamps[:count],
            self.directions[:count].astype(np.int8),
            np.array(self.ends, dtype=np.int64),
            [phase for _, phase, _ in self.lines],
            [label for _, _, label in self.lines],
        )


# trace line text decoded per batch: small buffers keep the decode's memory flat
_BATCH_CHARS = 1 << 15


def _decode(text: str) -> TraceColumns:
    """The columns of the text of a trace file (see ``read_columns``)."""
    columns = _Columns(text.count("["))  # every cell opens with a "["
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    batch, size = [], 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            batch.append((line_no, line))
            size += len(line)
        if size >= _BATCH_CHARS:
            columns.add_lines(batch)
            batch, size = [], 0
    columns.add_lines(batch)
    return columns.finish()


# each array of a trace store: its dtype (all are 1-d)
_STORE_ARRAYS = {"timestamps": np.int64, "directions": np.int8, "bounds": np.int64}


def _stored(table: TraceColumns) -> tuple[dict, dict]:
    """The arrays and the ``meta.json`` fields of the store of ``table``."""
    arrays = {name: getattr(table, name) for name in _STORE_ARRAYS}
    return arrays, {"phases": table.phases, "labels": table.labels}


def _load_store(store: Path, meta: dict) -> TraceColumns:
    """The columns of a trace store whose ``meta.json`` matched its file.

    They must hold only what a decode of a trace file can give; anything
    else raises ``StoreError``.
    """

    def fault(name: str, message: str) -> StoreError:
        return StoreError(store / name, message, "trace")

    phases, labels = meta.get("phases"), meta.get("labels")
    if (
        not isinstance(phases, list) or not isinstance(labels, list) or len(phases) != len(labels)
        or not set(map(type, phases)) <= {str} or not set(phases) <= set(PHASES)
        or not set(map(type, labels)) <= {str, type(None)}
    ):
        raise fault("meta.json", "missing or mistyped phases and labels")
    timestamps, directions, bounds = (
        load_array(store, name, dtype, 1, "trace") for name, dtype in _STORE_ARRAYS.items()
    )
    n = len(timestamps)
    if len(directions) != n:
        raise fault("directions.npy", f"{len(directions)} cells, timestamps.npy has {n}")
    if (
        len(bounds) != len(phases) + 1 or bounds[0] != 0 or bounds[-1] != n
        or (bounds[1:] < bounds[:-1]).any()
    ):
        raise fault("bounds.npy", f"does not split the {n} cells into {len(phases)} traces")
    bad = _first_fault(timestamps, directions, bounds)
    if bad:
        raise fault(f"{bad[1]}.npy", f"trace {bad[0]}: {bad[2]}")
    return TraceColumns(timestamps, directions, bounds, phases, labels)


def read_columns(source: str | Path | IO[str]) -> TraceColumns:
    """Decode a newline-delimited JSON trace file into columns.

    Lines end at "\\n", "\\r\\n" or "\\r" only, since a JSON string may hold
    other line breaks, such as a raw U+2028. Each line is an object with
    ``phase``, ``label`` (a string or null) and ``cells``, a list of
    ``[timestamp_ns, direction]`` pairs: int64 integers,
    directions +-1, timestamps sorted. Any other line raises ``ParseError``
    naming it; when several lines are bad, the first. Lines exactly as the
    writer renders them are decoded in batches without a JSON parser; every
    other line goes through the JSON decoder on its own, and both ways take
    and refuse the same lines.

    A trace file read from a regular file is read once and keeps a store
    (see ``store.read_once``). A pipe or an open file is decoded and gets
    no store.
    """
    if is_regular_file(source):
        return read_once(source, "trace", lambda data: _decode(decode_utf8(data.pop())), _load_store, _stored)
    return _decode(read_utf8(source) if isinstance(source, (str, Path)) else source.read())
