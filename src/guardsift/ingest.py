"""Parsers for guard-side and client-side cell logs.

Guard log format, one cell per line:

    channel_id,circuit_id,timestamp_ns,direction[,cell_type]

Header lines may precede the first data line. Marker lines of the form
``#AUTH,<channel_id>`` flag channels whose initiator authenticated as a
relay; such channels carry relay-to-relay traffic. Other ``#`` lines and
blank lines are skipped anywhere. Client logs use the same cell format with
a mandatory ``cell_type`` column, plus a sibling visit log:

    first_party_domain,request_ts,target_domain,circuit_id[,leg_a,leg_b]

Cell logs are decoded from bytes a chunk of lines at a time: one
``np.fromstring`` per chunk reads the lines in strict digit form, and only
the other lines are read one by one. Rows are checked, deduplicated and
grouped by sorting, so no per-cell Python object is built. Each circuit
holds views into the log's channel-sorted arrays.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ParseError, read_utf8
from .trace import NO_CELL_TYPE, CellRecord, Channel, Circuit

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_CHUNK_BYTES = 1 << 20  # cell logs are decoded in runs of whole lines of about this size
_MAX_DIGITS = 18  # a field of at most this many digits always fits int64

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PageVisitRecord:
    """One circuit-request event logged at a controlled client."""

    first_party_domain: str
    request_ts: int
    target_domain: str
    circuit_id: int
    leg_ids: tuple[int, int] | None = None  # a Conflux row's linked legs

    def __post_init__(self):
        if self.request_ts < 0:
            raise ValueError("request_ts must be non-negative")
        if self.leg_ids is not None and self.leg_ids[0] == self.leg_ids[1]:
            raise ValueError("linked legs must have distinct circuit ids")


@dataclass
class ParsedLog:
    """Channels recovered from one log file, with parse bookkeeping."""

    channels: list[Channel]
    line_count: int = 0
    cell_count: int = 0
    duplicate_count: int = 0
    auth_channel_count: int = 0


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


def _read_bytes(source: str | Path | IO[str] | Iterable[str]) -> bytes:
    """UTF-8 bytes of a path, an open text file or an iterable of lines, with
    universal newlines: "\\r\\n" and a lone "\\r" end a line as "\\n" does."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
        if not data.isascii():  # read_utf8 names the first line that is not UTF-8
            data = read_utf8(source).encode("utf-8")
    elif hasattr(source, "read"):
        data = source.read().encode("utf-8")
    else:
        data = "\n".join(line[:-1] if line.endswith("\n") else line for line in source).encode("utf-8")
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _line_chunks(data: bytes) -> Iterable[bytes]:
    """Runs of about ``_CHUNK_BYTES`` of whole lines, each ending in a newline."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK_BYTES - 1) + 1 or len(data)
        chunk = data[start:end]
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"
        start = end


def _strict_lines(buf: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The field count of every line of ``buf`` and whether the line is in
    strict form: fields of 1 to ``_MAX_DIGITS`` digits, each optionally led
    by "-", joined by commas. ``ends`` holds each line's newline offset."""
    seps = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    starts = np.concatenate(([0], seps[:-1] + 1))
    lead = buf[starts] == ord("-")
    digits = seps - starts - lead
    odd = (buf - np.uint8(ord("0"))) > 9  # neither a digit, a separator nor a leading "-"
    odd[seps] = False
    odd[starts[lead]] = False
    bad = np.zeros(len(ends), dtype=bool)
    bad[np.searchsorted(ends, np.flatnonzero(odd))] = True
    bad[np.searchsorted(ends, seps[(digits < 1) | (digits > _MAX_DIGITS)])] = True
    fields = np.diff(np.flatnonzero(buf[seps] == ord("\n")), prepend=-1)
    return fields, ~bad


def _widen(table: np.ndarray, width: int) -> np.ndarray:
    """``table`` with a column of untyped cells added up to ``width`` columns."""
    if table.shape[1] == width:
        return table
    return np.pad(table, ((0, 0), (0, width - table.shape[1])), constant_values=NO_CELL_TYPE)


def _read_table(source, require_type: bool) -> tuple[np.ndarray, set[int]]:
    """The data rows of a cell log as an int64 table, and its #AUTH channel ids.

    Lines in strict form with the log's field count (that of its first
    strict line of 4 or 5 fields; 5 in a client log) are read by one
    ``np.fromstring`` per chunk. The others (blank, comment, marker, header,
    or a data row of any other spelling, for ``_table_per_line``) are looked
    at one by one. The table has 5 columns when any cell carries a type.
    """
    data = _read_bytes(source)
    auth_ids: set[int] = set()
    parts: list[np.ndarray] = []
    n_fields = 5 if require_type else 0
    saw_data = False
    line_no = 1  # of the chunk's first line
    for chunk in _line_chunks(data):
        buf = np.frombuffer(chunk, dtype=np.uint8)
        ends = np.flatnonzero(buf == ord("\n"))
        fields, strict = _strict_lines(buf, ends)
        if not n_fields:
            first = np.flatnonzero(strict & ((fields == 4) | (fields == 5)))
            n_fields = int(fields[first[0]]) if len(first) else 0
        strict &= fields == n_fields
        rows = np.flatnonzero(strict)
        first_strict = rows[0] if len(rows) else len(ends)
        other, other_nos, errors = [], [], []
        for i in np.flatnonzero(~strict).tolist():
            line = chunk[ends[i - 1] + 1 if i else 0 : ends[i]].decode("utf-8")
            stripped = line.strip()
            if stripped.startswith("#AUTH"):
                try:
                    auth_ids.add(_auth_channel_id(stripped, line_no + i))
                except ParseError as exc:
                    errors.append(exc)  # data lines above the marker may hold an earlier error
                    break
            elif stripped[:1] not in ("", "#"):
                if saw_data or i > first_strict or not _is_header(line):
                    saw_data = True
                    other.append(line)
                    other_nos.append(line_no + i)
        saw_data |= len(rows) > 0
        table = np.empty((0, n_fields or 4), dtype=np.int64)
        if len(rows):
            if len(rows) < len(ends):
                chunk = buf[np.repeat(strict, np.diff(ends, prepend=-1))].tobytes()
            values = np.fromstring(chunk[:-1].replace(b"\n", b","), dtype=np.int64, sep=",")
            table = values.reshape(-1, n_fields)
        try:
            _check_rows(table, rows + line_no)
        except ParseError as exc:
            errors.append(exc)
        try:
            per_line = _table_per_line(other, np.array(other_nos, dtype=np.int64), require_type)
        except ParseError as exc:
            errors.append(exc)
        if errors:
            raise min(errors, key=lambda exc: exc.line_no)
        if len(per_line):
            width = max(table.shape[1], per_line.shape[1])
            by_line = np.argsort(np.concatenate((rows + line_no, other_nos)), kind="stable")
            table = np.concatenate((_widen(table, width), _widen(per_line, width)))[by_line]
        parts.append(table)
        line_no += len(ends)
    width = max((part.shape[1] for part in parts), default=4)
    table = np.concatenate([_widen(part, width) for part in parts] + [np.empty((0, width), dtype=np.int64)])
    return table, auth_ids


def _group_cells(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Deduplicate rows and order them for per-circuit slicing.

    Returns the row numbers of the kept rows in (channel first appearance,
    circuit first appearance within the channel, log order) order, the end
    offset of every (channel, circuit) group in that order, and the
    duplicate count. Of several identical rows the first is kept.

    Rows are grouped by one stable sort on a packed (channel, circuit id)
    key; channel ids are ranked by value to fit its upper 32 bits.
    Duplicates are looked for only among the rows whose cell (timestamp and
    direction) another row shares, which one stable sort by cell finds.
    """
    n = len(table)
    if not n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    _, channel = np.unique(table[:, 0], return_inverse=True)
    key = channel << 32 | table[:, 1]
    # timestamps are validated non-negative, so 2 * ts + 1 fits uint64
    cell = table[:, 2].view(np.uint64) * 2 + (table[:, 3] > 0)
    by_cell = np.argsort(cell, kind="stable")
    tie = np.flatnonzero(cell[by_cell][1:] == cell[by_cell][:-1])
    shares = np.zeros(n, dtype=bool)  # np.union1d would import numpy.ma
    shares[tie] = shares[tie + 1] = True
    rows = by_cell[np.flatnonzero(shares)]  # rows that share their cell, in log order
    values = np.column_stack((key[rows], table[rows, 2:]))
    same = np.lexsort(values.T[::-1])  # stable, so identical rows stay in log order
    values, rows = values[same], rows[same]
    duplicate = np.zeros(n, dtype=bool)
    duplicate[rows[1:][(values[1:] == values[:-1]).all(axis=1)]] = True
    order = np.argsort(key, kind="stable")  # grouped, each group in log order
    grouped = key[order]
    starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
    group_first = order[starts]
    new_channel = np.concatenate(([True], np.diff(grouped[starts] >> 32) != 0))
    channel_first = np.minimum.reduceat(group_first, np.flatnonzero(new_channel))
    by_rank = np.lexsort((group_first, channel_first[np.cumsum(new_channel) - 1]))
    sizes = np.diff(np.append(starts, n))[by_rank]
    ranked_starts = np.cumsum(sizes) - sizes
    order = order[np.arange(n) + np.repeat(starts[by_rank] - ranked_starts, sizes)]
    kept = ~duplicate[order]
    ends = np.cumsum(kept)[np.cumsum(sizes) - 1]
    return order[kept], ends, int(duplicate.sum())


def _parse_cells(source, require_type: bool) -> ParsedLog:
    table, auth_ids = _read_table(source, require_type)
    order, ends, duplicates = _group_cells(table)
    timestamps = table[order, 2]
    directions = table[order, 3].astype(np.int8)
    cell_types = table[order, 4] if table.shape[1] > 4 else None
    last = order[ends - 1]
    channels: dict[int, Channel] = {}
    start = 0
    for end, channel_id, circuit_id in zip(
        ends.tolist(), table[last, 0].tolist(), table[last, 1].tolist()
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
        cell_count=len(order),
        duplicate_count=duplicates,
        auth_channel_count=len(auth_ids),
    )


def parse_guard_log(source) -> ParsedLog:
    """Parse a guard cell log into channels grouped by (channel, circuit)."""
    return _parse_cells(source, require_type=False)


def filter_relay_channels(channels: Iterable[Channel]) -> tuple[list[Channel], int]:
    """Drop authenticated (relay-to-relay) channels; returns (kept, dropped)."""
    channels = list(channels)
    kept = [channel for channel in channels if not channel.relay_authenticated]
    return kept, len(channels) - len(kept)


def parse_visit_log(source) -> list[PageVisitRecord]:
    """Parse the client-side visit log."""
    visits = []
    saw_data = False
    for line_no, raw in enumerate(_read_bytes(source).decode("utf-8").split("\n"), start=1):
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
                    leg_ids=leg_ids or None,
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


def parse_client_log(cell_source, visit_source) -> ClientLog:
    """Parse client cell and visit logs; circuits join to visits by circuit id."""
    parsed = _parse_cells(cell_source, require_type=True)
    visits = parse_visit_log(visit_source)
    return ClientLog(visits=visits, channels=parsed.channels, stats=parsed)
