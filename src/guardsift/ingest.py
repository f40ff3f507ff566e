"""Parsers for guard-side and client-side cell logs.

Guard log format, one cell per line:

    channel_id,circuit_id,timestamp_ns,direction[,cell_type]

Header lines may precede the first data line. Marker lines of the form
``#AUTH,<channel_id>`` flag channels whose initiator authenticated as a
relay; such channels carry relay-to-relay traffic. Other ``#`` lines and
blank lines are skipped anywhere. Client logs use the same cell format with
a mandatory ``cell_type`` column, plus a sibling visit log:

    first_party_domain,request_ts,target_domain,circuit_id[,leg_a,leg_b]

Cell logs are parsed in bulk: one scan of line starts, one ``np.loadtxt``
over the data lines, vectorised row checks, and deduplication and grouping
by sorting, so no per-cell Python object is built. Each circuit holds views
into the log's channel-sorted arrays.
"""

from __future__ import annotations

import io
import logging
import warnings
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ParseError, read_utf8
from .trace import NO_CELL_TYPE, CellRecord, Channel, Circuit

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfluxMeta:
    linked: bool
    leg_ids: tuple[int, int]

    def __post_init__(self):
        if self.linked and self.leg_ids[0] == self.leg_ids[1]:
            raise ValueError("linked legs must have distinct circuit ids")


@dataclass(frozen=True)
class PageVisitRecord:
    """One circuit-request event logged at a controlled client."""

    first_party_domain: str
    request_ts: int
    target_domain: str
    circuit_id: int
    conflux_meta: ConfluxMeta | None = None

    def __post_init__(self):
        if self.request_ts < 0:
            raise ValueError("request_ts must be non-negative")


@dataclass
class ParsedLog:
    """Channels recovered from one log file, with parse bookkeeping."""

    channels: list[Channel]
    line_count: int = 0
    cell_count: int = 0
    duplicate_count: int = 0
    auth_channel_count: int = 0


def _read_text(source: str | Path | IO[str] | Iterable[str]) -> str:
    """Whole text of a path (with universal newlines, as ``open`` reads it),
    an open text file or an iterable of lines."""
    if isinstance(source, (str, Path)):
        text = read_utf8(source)
        return io.StringIO(text, newline=None).read() if "\r" in text else text
    if hasattr(source, "read"):
        return source.read()
    return "\n".join(line[:-1] if line.endswith("\n") else line for line in source)


def _split_lines(text: str) -> tuple[list[str], np.ndarray]:
    """The lines of ``text`` and a mask of those that open with a digit."""
    # the extra newline is the first byte of an empty last line
    raw = np.frombuffer((text + "\n").encode("utf-8"), dtype=np.uint8)
    first = raw[np.concatenate(([0], np.flatnonzero(raw[:-1] == ord("\n")) + 1))]
    return text.split("\n"), (first >= ord("0")) & (first <= ord("9"))


def _is_header(line: str) -> bool:
    try:
        int(line.split(",", 1)[0])
        return False
    except ValueError:
        return True


def _auth_channel_id(line: str, line_no: int) -> int:
    fields = line.split(",")
    if len(fields) != 2:
        raise ParseError(line_no, "malformed #AUTH marker")
    try:
        return int(fields[1])
    except ValueError:
        raise ParseError(line_no, "non-integer channel id in #AUTH marker") from None


def _check_rows(table: np.ndarray, line_nos: np.ndarray) -> None:
    """Raise ParseError at the first row that is not a valid cell record."""
    direction, timestamp, circuit = table[:, 3], table[:, 2], table[:, 1]
    bad = (direction != 1) & (direction != -1)
    bad |= (timestamp < 0) | (circuit < 0) | (circuit >= 2**32)
    if table.shape[1] > 4:
        bad |= table[:, 4] < 0
    if bad.any():
        i = int(np.argmax(bad))
        try:
            CellRecord(*table[i].tolist())
        except ValueError as exc:
            raise ParseError(int(line_nos[i]), str(exc)) from None


def _table_per_line(
    lines: list[str], line_nos: np.ndarray, require_type: bool
) -> np.ndarray:
    """Field-by-field parse for logs the bulk path cannot read.

    It handles ragged rows, empty cell types and integer spellings numpy
    rejects, and raises ParseError at the first malformed line.
    """
    rows = []
    for line, line_no in zip(lines, line_nos.tolist()):
        fields = line.strip().split(",")
        if len(fields) < 4:
            raise ParseError(line_no, f"expected at least 4 fields, got {len(fields)}")
        if require_type and len(fields) < 5:
            raise ParseError(line_no, "cell_type column is mandatory in client logs")
        try:
            row = [int(f) for f in fields[:4]]
            cell_type = int(fields[4]) if len(fields) > 4 and fields[4] != "" else None
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        try:
            CellRecord(*row, cell_type)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if not all(_INT64_MIN <= v <= _INT64_MAX for v in row + [cell_type or 0]):
            raise ParseError(line_no, "integer field out of the 64-bit range")
        rows.append(row + [NO_CELL_TYPE if cell_type is None else cell_type])
    width = 5 if any(row[4] != NO_CELL_TYPE for row in rows) else 4
    return np.array([row[:width] for row in rows], dtype=np.int64).reshape(-1, width)


def _parse_table(lines: list[str], line_nos: np.ndarray, require_type: bool) -> np.ndarray:
    """Data lines as an int64 table: 4 columns, or 5 when cells carry types.

    Logs whose rows all have the first row's shape are read by one
    ``np.loadtxt`` call; anything else falls back to ``_table_per_line``.
    """
    if not lines:
        return np.empty((0, 4), dtype=np.int64)
    n_fields = lines[0].count(",") + 1
    if n_fields >= 5 or (n_fields == 4 and not require_type):
        try:
            with warnings.catch_warnings():
                # numpy < 2 still reads "1.0" as an int, with a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(
                    lines,
                    dtype=np.int64,
                    delimiter=",",
                    comments=None,
                    usecols=range(5) if n_fields >= 5 else None,
                    ndmin=2,
                )
        except (ValueError, OverflowError, DeprecationWarning):
            pass
        else:
            _check_rows(table, line_nos)
            return table
    return _table_per_line(lines, line_nos, require_type)


def _group_cells(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Deduplicate rows and order them for per-circuit slicing.

    Returns the kept rows sorted by (channel first appearance, circuit first
    appearance within the channel, log position), the end offset of every
    (channel, circuit) group in that order, and the duplicate count. Of
    several identical rows the first is kept.
    """
    if not len(table):
        return table, np.empty(0, dtype=np.int64), 0
    # sorted by every column; stable, so identical rows stay in log order
    order = np.lexsort(table.T[::-1])
    ranked = table[order]
    repeat = np.zeros(len(table), dtype=bool)
    repeat[1:] = (ranked[1:] == ranked[:-1]).all(axis=1)
    kept = order[~repeat]  # row numbers, grouped by (channel, circuit)
    channel, circuit = ranked[~repeat, 0], ranked[~repeat, 1]
    new_channel = np.ones(len(kept), dtype=bool)
    new_channel[1:] = channel[1:] != channel[:-1]
    new_group = new_channel.copy()
    new_group[1:] |= circuit[1:] != circuit[:-1]
    group_starts = np.flatnonzero(new_group)
    sizes = np.diff(np.append(group_starts, len(kept)))
    group_first = np.minimum.reduceat(kept, group_starts)
    channel_starts = new_channel[group_starts]
    channel_first = np.minimum.reduceat(group_first, np.flatnonzero(channel_starts))
    by_rank = np.lexsort((group_first, channel_first[np.cumsum(channel_starts) - 1]))
    rank = np.empty_like(by_rank)
    rank[by_rank] = np.arange(len(by_rank))
    final = kept[np.lexsort((kept, np.repeat(rank, sizes)))]
    return table[final], np.cumsum(sizes[by_rank]), int(repeat.sum())


def _read_table(source, require_type: bool) -> tuple[np.ndarray, set[int]]:
    """The data rows of a cell log as an int64 table, and its #AUTH channel ids.

    Lines that open with a digit are data rows; only the others (blank,
    comment, marker, header, leading space or sign) are looked at one by one.
    """
    lines, is_data = _split_lines(_read_text(source))
    auth_ids: set[int] = set()
    marker_error = None
    for i in np.flatnonzero(~is_data).tolist():
        line = lines[i].strip()
        if line and line[0] != "#":
            is_data[i] = True
        elif line.startswith("#AUTH"):
            try:
                auth_ids.add(_auth_channel_id(line, i + 1))
            except ParseError as exc:
                # data lines above the marker may hold an earlier error
                marker_error = exc
                is_data[i:] = False
                break
    line_index = np.flatnonzero(is_data)
    data = list(compress(lines, is_data.tolist()))
    header = 0
    while header < len(data) and _is_header(data[header]):
        header += 1
    table = _parse_table(data[header:], line_index[header:] + 1, require_type)
    if marker_error is not None:
        raise marker_error
    return table, auth_ids


def _parse_cells(source, require_type: bool) -> ParsedLog:
    table, auth_ids = _read_table(source, require_type)
    rows, ends, duplicates = _group_cells(table)
    timestamps = rows[:, 2].copy()
    directions = rows[:, 3].astype(np.int8)
    cell_types = rows[:, 4].copy() if rows.shape[1] > 4 else None
    channels: dict[int, Channel] = {}
    start = 0
    for end, channel_id, circuit_id in zip(
        ends.tolist(), rows[ends - 1, 0].tolist(), rows[ends - 1, 1].tolist()
    ):
        channel = channels.get(channel_id)
        if channel is None:
            channel = channels[channel_id] = Channel(channel_id)
        channel.circuits[circuit_id] = Circuit(
            circuit_id,
            timestamps[start:end],
            directions[start:end],
            None if cell_types is None else cell_types[start:end],
        )
        start = end
    for channel_id in auth_ids:
        channel = channels.get(channel_id)
        if channel is None:
            # marker for a channel with no logged cells; keep it visible
            channel = channels[channel_id] = Channel(channel_id)
        channel.relay_authenticated = True
    if duplicates:
        log.warning("deduplicated %d repeated cell records", duplicates)
    return ParsedLog(
        channels=list(channels.values()),
        line_count=len(table),
        cell_count=len(rows),
        duplicate_count=duplicates,
        auth_channel_count=len(auth_ids),
    )


def parse_guard_log(source) -> ParsedLog:
    """Parse a guard cell log into channels grouped by (channel, circuit)."""
    return _parse_cells(source, require_type=False)


def filter_relay_channels(channels: Iterable[Channel]) -> tuple[list[Channel], int]:
    """Drop authenticated (relay-to-relay) channels; returns (kept, dropped)."""
    kept = []
    dropped = 0
    for channel in channels:
        if channel.relay_authenticated:
            dropped += 1
        else:
            kept.append(channel)
    return kept, dropped


def parse_visit_log(source) -> list[PageVisitRecord]:
    """Parse the client-side visit log."""
    visits = []
    saw_data = False
    for line_no, raw in enumerate(_read_text(source).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if not saw_data and len(fields) > 1 and not fields[1].lstrip("-").isdigit():
            continue
        saw_data = True
        if len(fields) not in (4, 6):
            raise ParseError(line_no, f"expected 4 or 6 fields, got {len(fields)}")
        try:
            request_ts = int(fields[1])
            circuit_id = int(fields[3])
            leg_ids = tuple(int(f) for f in fields[4:])
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        try:
            visits.append(
                PageVisitRecord(
                    first_party_domain=fields[0],
                    request_ts=request_ts,
                    target_domain=fields[2],
                    circuit_id=circuit_id,
                    conflux_meta=ConfluxMeta(linked=True, leg_ids=leg_ids) if leg_ids else None,
                )
            )
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    return visits


@dataclass
class ClientLog:
    visits: list[PageVisitRecord]
    channels: list[Channel]
    stats: ParsedLog | None = None

    def circuit_map(self) -> dict[int, Circuit]:
        out: dict[int, Circuit] = {}
        for channel in self.channels:
            out.update(channel.circuits)
        return out


def parse_client_log(cell_source, visit_source) -> ClientLog:
    """Parse client cell and visit logs; circuits join to visits by circuit id."""
    parsed = _parse_cells(cell_source, require_type=True)
    visits = parse_visit_log(visit_source)
    return ClientLog(visits=visits, channels=parsed.channels, stats=parsed)
