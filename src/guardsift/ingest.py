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

The store of a log ``X.csv`` (see ``store``) is the directory ``X.store``
beside it: those grouped arrays as ``.npy`` files, and a ``meta.json``
with the sha256 of the log's bytes and the log's counts. A log read from a
regular file is loaded from its store when the digest matches, and
otherwise decoded from its bytes, which then get a store.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .errors import ParseError, StoreError, decode_utf8, is_header
from .store import is_regular_file, load_array, read_once
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


def _auth_channel_id(line: str, line_no: int) -> int:
    fields = line.split(",")
    if len(fields) != 2:
        raise ParseError(line_no, "malformed #AUTH marker")
    try:
        return int(fields[1])
    except ValueError:
        raise ParseError(line_no, "non-integer channel id in #AUTH marker") from None


def _out_of_range(field: str, values: np.ndarray) -> np.ndarray:
    """Where the values of a ``CellRecord`` field break its rules."""
    if field == "direction":
        return (values != 1) & (values != -1)
    if field == "circuit_id":
        return (values < 0) | (values >= 2**32)
    return values < 0  # timestamp_ns, cell_type


def _check_rows(table: np.ndarray, line_nos: np.ndarray) -> None:
    """Raise ParseError at the first row that is not a valid cell record."""
    bad = _out_of_range("circuit_id", table[:, 1])
    bad |= _out_of_range("timestamp_ns", table[:, 2])
    bad |= _out_of_range("direction", table[:, 3])
    if table.shape[1] > 4:
        bad |= _out_of_range("cell_type", table[:, 4])
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


def _text_bytes(data: bytes) -> bytes:
    """A file's bytes checked as UTF-8, with universal newlines: "\\r\\n" and
    a lone "\\r" end a line as "\\n" does."""
    if not data.isascii():
        decode_utf8(data)  # names the first line that is not UTF-8
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _read_bytes(source: str | Path | IO[str] | Iterable[str]) -> bytes:
    """UTF-8 bytes of a path, an open text file or an iterable of lines, with
    universal newlines."""
    if isinstance(source, (str, Path)):
        return _text_bytes(Path(source).read_bytes())
    if hasattr(source, "read"):
        data = source.read().encode("utf-8")
    else:
        data = "\n".join(line[:-1] if line.endswith("\n") else line for line in source).encode("utf-8")
    return _text_bytes(data)


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


def _read_table(data: bytes, require_type: bool) -> tuple[np.ndarray, set[int]]:
    """The data rows of a cell log, given as ``_read_bytes`` returns it, as
    an int64 table, and its #AUTH channel ids.

    Lines in strict form with the log's field count (that of its first
    strict line of 4 or 5 fields; 5 in a client log) are read by one
    ``np.fromstring`` per chunk. The others (blank, comment, marker, header,
    or a data row of any other spelling, for ``_table_per_line``) are looked
    at one by one. The table has 5 columns when any cell carries a type.
    Each chunk's rows go straight into one table of a row per line, which a
    guard log widens only at its first typed row.
    """
    auth_ids: set[int] = set()
    table = np.empty((data.count(b"\n") + 1, 5 if require_type else 4), dtype=np.int64)
    n_rows, width = 0, 4
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
                if saw_data or i > first_strict or not is_header(line.split(",", 1)[0]):
                    saw_data = True
                    other.append(line)
                    other_nos.append(line_no + i)
        saw_data |= len(rows) > 0
        part = np.empty((0, n_fields or 4), dtype=np.int64)
        if len(rows):
            if len(rows) < len(ends):
                chunk = buf[np.repeat(strict, np.diff(ends, prepend=-1))].tobytes()
            values = np.fromstring(chunk[:-1].replace(b"\n", b","), dtype=np.int64, sep=",")
            part = values.reshape(-1, n_fields)
        try:
            _check_rows(part, rows + line_no)
        except ParseError as exc:
            errors.append(exc)
        try:
            per_line = _table_per_line(other, np.array(other_nos, dtype=np.int64), require_type)
        except ParseError as exc:
            errors.append(exc)
        if errors:
            raise min(errors, key=lambda exc: exc.line_no)
        if len(per_line):
            part_width = max(part.shape[1], per_line.shape[1])
            by_line = np.argsort(np.concatenate((rows + line_no, other_nos)), kind="stable")
            part = np.concatenate((_widen(part, part_width), _widen(per_line, part_width)))[by_line]
        width = max(width, part.shape[1])
        if width > table.shape[1]:
            table = _widen(table, width)
        table[n_rows : n_rows + len(part)] = _widen(part, table.shape[1])
        n_rows += len(part)
        line_no += len(ends)
    return table[:n_rows, :width], auth_ids


def _group_cells(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Deduplicate rows and order them for per-circuit slicing.

    Returns the row numbers of the kept rows in (channel first appearance,
    circuit first appearance within the channel, log order) order, the end
    offset of every (channel, circuit) group in that order, and the
    duplicate count. Of several identical rows the first is kept.

    Rows are grouped by one stable sort on a packed (channel, circuit id)
    key; channel ids that do not fit its upper 31 bits are ranked by value.
    Duplicates are looked for only among the rows whose cell (timestamp and
    direction) another row shares, which one stable sort by cell finds.
    """
    n = len(table)
    if not n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    # each row-long temporary is dropped once used: the sorts set the parse's peak
    channel = table[:, 0]
    if channel.min() < 0 or channel.max() >= 2**31:  # ranks sort as the ids do
        channel = np.unique(channel, return_inverse=True)[1].astype(np.int64, copy=False)
    key = channel << 32
    key |= table[:, 1]
    # timestamps are validated non-negative, so 2 * ts + 1 fits uint64
    cell = table[:, 2].view(np.uint64) * 2
    cell += table[:, 3] > 0
    by_cell = np.argsort(cell, kind="stable")
    cell = cell[by_cell]
    tie = np.flatnonzero(cell[1:] == cell[:-1])
    del cell
    shares = np.zeros(n, dtype=bool)  # np.union1d would import numpy.ma
    shares[tie] = shares[tie + 1] = True
    rows = by_cell[np.flatnonzero(shares)]  # rows that share their cell, in log order
    del by_cell, shares
    values = np.column_stack((key[rows], table[rows, 2:]))
    same = np.lexsort(values.T[::-1])  # stable, so identical rows stay in log order
    values, rows = values[same], rows[same]
    duplicate = np.zeros(n, dtype=bool)
    duplicate[rows[1:][(values[1:] == values[:-1]).all(axis=1)]] = True
    order = np.argsort(key, kind="stable")  # grouped, each group in log order
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    group_first = order[starts]
    new_channel = np.concatenate(([True], np.diff(key[starts] >> 32) != 0))
    del key
    channel_first = np.minimum.reduceat(group_first, np.flatnonzero(new_channel))
    by_rank = np.lexsort((group_first, channel_first[np.cumsum(new_channel) - 1]))
    sizes = np.diff(np.append(starts, n))[by_rank]
    ranked_starts = np.cumsum(sizes) - sizes
    shift = np.repeat(starts[by_rank] - ranked_starts, sizes)
    shift += np.arange(n)
    order = order[shift]
    del shift
    kept = ~duplicate[order]
    ends = np.cumsum(np.add.reduceat(kept, ranked_starts, dtype=np.int64))
    return order[kept], ends, int(duplicate.sum())


@dataclass
class CellColumns:
    """A cell log's rows, deduplicated and grouped: what a parse builds its
    channels from, and what a store holds.

    The cell columns are sorted by channel, then circuit (both in order of
    first appearance), then log order. ``groups`` has one int64 row
    ``(channel_id, circuit_id, end)`` per circuit in that order, ``end``
    being the circuit's end offset in the cell columns. ``auth_ids`` are the
    ``#AUTH`` channel ids, and ``line_count`` counts the data rows,
    duplicates included.
    """

    timestamps: np.ndarray  # int64
    directions: np.ndarray  # int8
    cell_types: np.ndarray | None  # int64; None when no row has a type column
    groups: np.ndarray
    auth_ids: list[int]
    line_count: int
    duplicate_count: int

    @classmethod
    def from_table(cls, table: np.ndarray, auth_ids: Iterable[int]) -> "CellColumns":
        """Group an int64 ``(channel_id, circuit_id, timestamp, direction[, cell_type])``
        table of valid rows in log order."""
        order, ends, duplicates = _group_cells(table)
        last = order[ends - 1]
        return cls(
            timestamps=table[order, 2],
            directions=table[order, 3].astype(np.int8),
            cell_types=table[order, 4] if table.shape[1] > 4 else None,
            groups=np.column_stack((table[last, 0], table[last, 1], ends)),
            auth_ids=list(auth_ids),
            line_count=len(table),
            duplicate_count=duplicates,
        )


def _build_channels(cells: CellColumns) -> ParsedLog:
    """Channels of circuits that view the cell columns, with the log's counts."""
    timestamps, directions, cell_types = cells.timestamps, cells.directions, cells.cell_types
    channels: dict[int, Channel] = {}
    start = 0
    for channel_id, circuit_id, end in cells.groups.tolist():
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
    for channel_id in cells.auth_ids:
        channel = channels.get(channel_id)
        if channel is None:
            # marker for a channel with no logged cells; keep it visible
            channel = channels[channel_id] = Channel(channel_id)
        channel.relay_authenticated = True
    if cells.duplicate_count:
        log.warning("deduplicated %d repeated cell records", cells.duplicate_count)
    return ParsedLog(
        channels=list(channels.values()),
        line_count=cells.line_count,
        cell_count=len(timestamps),
        duplicate_count=cells.duplicate_count,
        auth_channel_count=len(cells.auth_ids),
    )


# --- the cell-log store -------------------------------------------------------

# each array of a store: its dtype and number of dimensions
_STORE_ARRAYS = {
    "timestamps": (np.int64, 1),
    "directions": (np.int8, 1),
    "cell_types": (np.int64, 1),
    "groups": (np.int64, 2),
}


def _stored(cells: CellColumns) -> tuple[dict, dict]:
    """The arrays and the ``meta.json`` fields of the store of ``cells``."""
    arrays = {"timestamps": cells.timestamps, "directions": cells.directions, "groups": cells.groups}
    if cells.cell_types is not None:
        arrays["cell_types"] = cells.cell_types
    meta = {
        "line_count": cells.line_count,
        "duplicate_count": cells.duplicate_count,
        "auth_channel_ids": cells.auth_ids,
        "cell_types": cells.cell_types is not None,
    }
    return arrays, meta


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and _INT64_MIN <= value <= _INT64_MAX


def _load_store(store: Path, meta: dict) -> CellColumns:
    """The grouped cells of a store whose ``meta.json`` matched its log.

    The fields and arrays must fit together and hold only values a parse of
    a log can give; anything else raises ``StoreError``.
    """
    ids = meta.get("auth_channel_ids")
    if (
        not all(_is_int(meta.get(key)) and meta[key] >= 0 for key in ("line_count", "duplicate_count"))
        or not isinstance(ids, list) or not all(map(_is_int, ids)) or len(set(ids)) != len(ids)
        or not isinstance(meta.get("cell_types"), bool)
    ):
        raise StoreError(store / "meta.json", "missing or mistyped fields")
    names = ["timestamps", "directions"] + ["cell_types"] * meta["cell_types"] + ["groups"]
    columns = {name: load_array(store, name, *_STORE_ARRAYS[name], "cell-log") for name in names}
    timestamps, groups = columns["timestamps"], columns.pop("groups")
    n = len(timestamps)
    for name, column in columns.items():
        if len(column) != n:
            raise StoreError(store / f"{name}.npy", f"{len(column)} cells, timestamps.npy has {n}")
    bounds = np.concatenate(([0], groups[:, 2])) if groups.shape[1] == 3 else None
    if bounds is None or bounds[-1] != n or (bounds[1:] <= bounds[:-1]).any():
        raise StoreError(store / "groups.npy", f"its rows do not split the {n} cells into circuits")
    if meta["line_count"] - meta["duplicate_count"] != n:
        raise StoreError(store / "meta.json", f"line and duplicate counts do not leave the {n} cells")
    faults = {
        "timestamps": _out_of_range("timestamp_ns", timestamps),
        "directions": _out_of_range("direction", columns["directions"]),
        "groups": _out_of_range("circuit_id", groups[:, 1]),
    }
    if meta["cell_types"]:  # a log's untyped cells hold NO_CELL_TYPE
        faults["cell_types"] = columns["cell_types"] < NO_CELL_TYPE
    for name, bad in faults.items():
        if bad.any():
            raise StoreError(store / f"{name}.npy", f"row {int(np.argmax(bad))} is out of range")
    pairs = groups[np.lexsort((groups[:, 1], groups[:, 0])), :2]
    if (pairs[1:] == pairs[:-1]).all(axis=1).any():
        raise StoreError(store / "groups.npy", "a (channel, circuit) pair is listed twice")
    return CellColumns(
        timestamps, columns["directions"], columns.get("cell_types"), groups,
        meta["auth_channel_ids"], meta["line_count"], meta["duplicate_count"],
    )


def _parse_cells(source, require_type: bool) -> ParsedLog:
    """Channels of a cell log.

    A log read from a regular file is read once and keeps a store (see
    ``store.read_once``). Other sources (a pipe, an open file, lines) are
    decoded and get no store.
    """
    if not is_regular_file(source):
        return _build_channels(CellColumns.from_table(*_read_table(_read_bytes(source), require_type)))
    cells = read_once(
        source,
        "client" if require_type else "guard",
        lambda data: CellColumns.from_table(*_read_table(_text_bytes(data.pop()), require_type)),
        _load_store,
        _stored,
    )
    return _build_channels(cells)


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
        if not saw_data and len(fields) > 1 and is_header(fields[1]):
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
