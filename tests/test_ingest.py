import hashlib
import io
import json
import logging
import os
import pickle
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guardsift import ingest
from guardsift.errors import GuardsiftError, ParseError, StoreError
from guardsift.ingest import (
    ParsedLog,
    _parse_cells,
    filter_relay_channels,
    parse_client_log,
    parse_guard_log,
    parse_visit_log,
)
from guardsift.simulate import ScenarioConfig, generate_dataset
from guardsift.store import store_path
from guardsift.trace import NO_CELL_TYPE, CellRecord, Channel, Circuit


def test_grouping_by_channel_and_circuit():
    log = io.StringIO("5,9,100,1\n5,12,200,-1\n")
    parsed = parse_guard_log(log)
    assert len(parsed.channels) == 1
    channel = parsed.channels[0]
    assert channel.channel_id == 5
    assert sorted(channel.circuits) == [9, 12]
    assert parsed.cell_count == 2


def test_header_line_is_skipped():
    log = io.StringIO("channel_id,circuit_id,timestamp_ns,direction\n1,2,0,1\n")
    parsed = parse_guard_log(log)
    assert parsed.cell_count == 1
    assert parsed.line_count == 1


def test_direction_zero_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_guard_log(io.StringIO("1,2,100,0\n"))
    assert "line 1" in str(err.value)


def test_empty_file_gives_empty_channel_set():
    parsed = parse_guard_log(io.StringIO(""))
    assert parsed.channels == []


def test_duplicates_are_counted_not_fatal():
    log = io.StringIO("1,2,100,1\n1,2,100,1\n1,2,101,-1\n")
    parsed = parse_guard_log(log)
    assert parsed.duplicate_count == 1
    assert parsed.cell_count == 2
    # cell count = data lines minus deduplicated records
    assert parsed.cell_count == parsed.line_count - parsed.duplicate_count
    # partition: every parsed cell belongs to exactly one (channel, circuit)
    assert sum(len(c) for ch in parsed.channels for c in ch.circuits.values()) == 2


def test_auth_marker_flags_channel():
    log = io.StringIO("#AUTH,7\n7,1,0,1\n8,1,0,1\n")
    parsed = parse_guard_log(log)
    flags = {ch.channel_id: ch.relay_authenticated for ch in parsed.channels}
    assert flags == {7: True, 8: False}
    kept, dropped = filter_relay_channels(parsed.channels)
    assert dropped == 1
    assert [ch.channel_id for ch in kept] == [8]


def test_filter_relay_identity_and_empty():
    parsed = parse_guard_log(io.StringIO("1,1,0,1\n2,1,0,1\n"))
    kept, dropped = filter_relay_channels(parsed.channels)
    assert dropped == 0 and len(kept) == 2
    for ch in parsed.channels:
        ch.relay_authenticated = True
    kept, dropped = filter_relay_channels(parsed.channels)
    assert kept == [] and dropped == 2


def test_client_log_requires_cell_type():
    with pytest.raises(ParseError):
        parse_client_log(io.StringIO("1,3,0,1\n"), io.StringIO(""))


def test_client_log_joins_visits_and_cells():
    cells = io.StringIO(
        "".join(f"1,3,{ts},1,2\n" for ts in range(0, 600, 100))
    )
    visits = io.StringIO("example.com,50,example.com,3\n")
    log = parse_client_log(cells, visits)
    assert len(log.visits) == 1
    assert log.visits[0].circuit_id == 3
    (channel,) = log.channels
    assert len(channel.circuits[3]) == 6


def test_conflux_visit_meta_populated():
    rows = "example.com,10,example.com,3,3,4\nexample.com,20,example.com,5\n"
    visits = parse_visit_log(io.StringIO(rows))
    assert [visit.leg_ids for visit in visits] == [(3, 4), None]


@pytest.mark.parametrize("request_ts", [" 100", "100 ", "+100"])
def test_a_first_visit_row_whose_timestamp_int_reads_is_data(request_ts):
    # the header rule reads the field as int() reads it on every later row
    visits = parse_visit_log(io.StringIO(f"a.com,{request_ts},a.com,5\nb.com,200,b.com,6\n"))
    assert [(v.first_party_domain, v.request_ts) for v in visits] == [("a.com", 100), ("b.com", 200)]
    header = "first_party_domain,request_ts,target_domain,circuit_id\n"
    assert parse_visit_log(io.StringIO(header + "b.com,200,b.com,6\n")) == visits[1:]


def test_link_ack_cell_type_parsed():
    cells = io.StringIO("1,3,0,1,21\n")
    log = parse_client_log(cells, io.StringIO(""))
    assert log.channels[0].circuits[3].cell_types.tolist() == [21]


# --- the bulk parser against the per-line parser it replaced -------------------


def oracle_parse_cells(source, require_type: bool) -> ParsedLog:
    """The per-line, per-record parser the bulk path replaced, kept as reference."""
    channels: dict[int, dict[int, list[CellRecord]]] = {}
    auth_ids: set[int] = set()
    seen: set[tuple] = set()
    result = ParsedLog(channels=[])
    saw_data = False
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#AUTH"):
            fields = line.split(",")
            if len(fields) != 2:
                raise ParseError(line_no, "malformed #AUTH marker")
            try:
                auth_ids.add(int(fields[1]))
            except ValueError:
                raise ParseError(line_no, "non-integer channel id in #AUTH marker") from None
            continue
        if line.startswith("#"):
            continue
        fields = line.split(",")
        if not saw_data:
            try:
                int(fields[0])
            except ValueError:
                continue
        saw_data = True
        result.line_count += 1
        if len(fields) < 4:
            raise ParseError(line_no, f"expected at least 4 fields, got {len(fields)}")
        if require_type and len(fields) < 5:
            raise ParseError(line_no, "cell_type column is mandatory in client logs")
        try:
            values = [int(f) for f in fields[:4]]
            cell_type = int(fields[4]) if len(fields) > 4 and fields[4] != "" else None
        except ValueError as exc:
            raise ParseError(line_no, f"non-integer field: {exc}") from None
        try:
            record = CellRecord(*values, cell_type)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if not all(-(2**63) <= v < 2**63 for v in (*values, cell_type or 0)):
            raise ParseError(line_no, "integer field out of the 64-bit range")
        key = (*values, cell_type)
        if key in seen:
            result.duplicate_count += 1
            continue
        seen.add(key)
        circuits = channels.setdefault(record.channel_id, {})
        circuits.setdefault(record.circuit_id, []).append(record)
        result.cell_count += 1
    flagged = {}
    for channel_id in auth_ids:
        channels.setdefault(channel_id, {})
        flagged[channel_id] = True
    result.channels = [
        Channel(
            channel_id,
            {cid: Circuit.from_records(cid, records) for cid, records in circuits.items()},
            relay_authenticated=flagged.get(channel_id, False),
        )
        for channel_id, circuits in channels.items()
    ]
    result.auth_channel_count = len(auth_ids)
    return result


def describe(parsed: ParsedLog) -> tuple:
    """Everything a parse yields, in order, with cells as (ts, direction, type)."""
    channels = []
    for ch in parsed.channels:
        circuits = []
        for cid, c in ch.circuits.items():
            types = [None] * len(c) if c.cell_types is None else [
                None if t == NO_CELL_TYPE else t for t in c.cell_types.tolist()
            ]
            assert c.timestamps.dtype == np.int64 and c.directions.dtype == np.int8
            circuits.append((cid, list(zip(c.timestamps.tolist(), c.directions.tolist(), types))))
        channels.append((ch.channel_id, ch.relay_authenticated, circuits))
    counters = (parsed.line_count, parsed.cell_count, parsed.duplicate_count, parsed.auth_channel_count)
    return counters, channels


def outcome(parse, lines, require_type):
    """describe() of the parse, or the ParseError it raised; nothing else may escape."""
    try:
        return describe(parse(lines, require_type))
    except GuardsiftError as exc:
        assert isinstance(exc, ParseError)
        return ("error", exc.line_no, str(exc))


CHANNEL_IDS = st.sampled_from([0, 1, 2, 7, -3, 2**40])
CIRCUIT_IDS = st.sampled_from([0, 1, 5, 2**32 - 1])
SPACING = st.sampled_from(["", "", "", "", "", " ", "\t", "  "])  # mostly strict rows
# spellings of a non-negative field that the strict decoder leaves to the
# per-line parser: 19 digits, a plus sign, inner spaces and tabs
RESPELL = st.sampled_from(["{:019d}", "+{}", " {}", "{}\t", "{}"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def respell(draw, field):
    text = str(field)
    if text.isdigit() and draw(st.integers(0, 9)) == 0:
        return draw(RESPELL).format(int(text))
    return text


@st.composite
def cell_logs(draw, require_type: bool):
    """Lines of a guard (or client) log with every construct the parser accepts.

    Rows come from small pools so channels and circuits interleave and rows
    repeat; markers, comments and blank lines go anywhere, a header may lead.
    Now and then a row is spelled in a way only the per-line parser reads:
    a respelled field, a 19-digit timestamp, a 6th column, or no cell type
    in a typed log.
    """
    typed = require_type or draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        if rows and draw(st.integers(0, 4)) == 0:
            rows.append(draw(st.sampled_from(rows)))  # an exact repeat
            continue
        timestamp = draw(st.sampled_from([1234567890123456789] + [k * 1000 for k in range(7)]))
        fields = [
            draw(CHANNEL_IDS), draw(CIRCUIT_IDS), timestamp, draw(st.sampled_from([1, -1])),
        ]
        if typed and draw(st.integers(0, 19)):
            fields.append(draw(st.sampled_from(["", "0", "2", "21", "21"])))
        elif not typed and draw(st.integers(0, 9)) == 0:
            fields.append(draw(st.sampled_from(["", "3"])))  # a stray 5th column
        if len(fields) == 5 and draw(st.integers(0, 19)) == 0:
            fields.append("9")  # a 6th column, which no parser reads
        rows.append(",".join(respell(draw, field) for field in fields))
    lines = [draw(SPACING) + row + draw(SPACING) for row in rows]
    for _ in range(draw(st.integers(0, 6))):
        extra = draw(st.sampled_from([
            "", "   ", "# a comment", "#", f"#AUTH,{draw(CHANNEL_IDS)}", "#AUTH,99", " #AUTH,1 ",
        ]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        header = "channel_id,circuit_id,timestamp_ns,direction" + (",cell_type" if typed else "")
        lines.insert(draw(st.integers(0, min(2, len(lines)))), header)
    if rows and draw(st.integers(0, 3)) == 0:  # a header-like line after data is an error
        lines.append("channel_id,circuit_id,timestamp_ns,direction")
    return lines


def joined(data, lines) -> str:
    """The lines as one text, with drawn line ends and maybe a final one."""
    newline = data.draw(NEWLINES)
    return newline.join(lines) + data.draw(st.sampled_from(["", newline]))


def universal_lines(text: str) -> io.StringIO:
    """The oracle's view of a text: lines split as ``open`` splits them."""
    return io.StringIO(text, newline=None)


def chunk_bytes(data):
    """The decoder's chunk size, patched small so chunks hold 1 to 3 lines."""
    return mock.patch.object(ingest, "_CHUNK_BYTES", data.draw(st.sampled_from([1, 16, 40, 2**20])))


MALFORMED = [
    "1,5,1000,0", "1,5,1000,2", "1,5,-1,1", f"1,{2**32},0,1", "1,-5,0,1", "1,5,x,1",
    "1,5,1.5,1", "1,5,1000", "1", "#AUTH", "#AUTH,x", "#AUTH,1,2", "1,5,1000,1,y",
    "1,5,1-2,1", "1,5,--1,1", "1,5,9999999999999999999,1", "1,,1000,1", "1,-,1000,1",
]


@pytest.mark.parametrize("require_type", [False, True], ids=["guard", "client"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_bulk_parse_equals_oracle(require_type, data):
    text = joined(data, data.draw(cell_logs(require_type)))
    expected = outcome(oracle_parse_cells, universal_lines(text), require_type)
    with chunk_bytes(data):
        assert outcome(_parse_cells, io.StringIO(text), require_type) == expected


@pytest.mark.parametrize("require_type", [False, True], ids=["guard", "client"])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_line_raises_on_the_same_line(require_type, data):
    lines = data.draw(cell_logs(require_type))
    bad = data.draw(st.sampled_from(MALFORMED + (["1,5,1000,1"] if require_type else [])))
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, bad)
    text = joined(data, lines)
    expected = outcome(oracle_parse_cells, universal_lines(text), require_type)
    with chunk_bytes(data):
        got = outcome(_parse_cells, io.StringIO(text), require_type)
    assert got == expected
    assert got[0] == "error"


@pytest.mark.parametrize("chunk", [1, 10, 30])
@pytest.mark.parametrize("bad", ["1,5,1000,0", "1,5,1-2,1", "#AUTH,x", "1,5,9999999999999999999,1"])
def test_bad_line_in_a_later_chunk_names_its_line(chunk, bad):
    lines = ["channel_id,circuit_id,timestamp_ns,direction"]
    lines += [f"1,{i % 3},{i * 1000},{(-1) ** i}" for i in range(40)]
    lines.insert(33, bad)
    expected = outcome(oracle_parse_cells, lines, False)
    assert expected[:2] == ("error", 34)
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        assert outcome(_parse_cells, io.StringIO("\n".join(lines)), False) == expected


def test_parsed_circuits_are_views_of_one_array():
    parsed = parse_guard_log(io.StringIO("1,9,5,1\n2,3,6,-1\n1,4,7,1\n1,9,8,-1\n"))
    circuits = [c for ch in parsed.channels for c in ch.circuits.values()]
    assert [(c.circuit_id, c.timestamps.tolist()) for c in circuits] == [
        (9, [5, 8]), (4, [7]), (3, [6])
    ]
    base = circuits[0].timestamps.base
    assert base is not None and all(c.timestamps.base is base for c in circuits)
    assert all(c.cell_types is None for c in circuits)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,3,1,-4\n", "line 1: cell_type must be non-negative, got -4"),
        (f"1,2,{2**63},1\n", "line 1: integer field out of the 64-bit range"),
        ("1,2,3,1\n1,2,4,1,x\n", "line 2: non-integer field"),
        ("1,2,3,1\n#AUTH,1,2\n1,2,3,0\n", "line 2: malformed #AUTH marker"),
        ("1,2,3,0\n#AUTH,1,2\n", "line 1: direction must be +1 or -1"),
        ("1,2,3,1\nchannel_id,circuit_id,timestamp_ns,direction\n", "line 2: non-integer field"),
    ],
    ids=[
        "negative-type", "int64-overflow", "ragged-bad-type", "bad-marker-first", "bad-row-first",
        "header-after-row",
    ],
)
def test_bad_guard_log(text, message):
    with pytest.raises(ParseError, match=message.replace("+", r"\+")):
        parse_guard_log(io.StringIO(text))


def test_strict_rows_skip_the_per_line_parser():
    text = "channel_id,circuit_id,timestamp_ns,direction\n#AUTH,4\n"
    text += "".join(f"{-i},{i},{i * 10**16},{(-1) ** i}\n" for i in range(20)) + " 1,2,3,1\n"
    with mock.patch.object(ingest, "_table_per_line", wraps=ingest._table_per_line) as per_line:
        parsed = parse_guard_log(io.StringIO(text))
    assert [call.args[0] for call in per_line.call_args_list] == [[" 1,2,3,1"]]
    assert parsed.line_count == 21


def test_ragged_and_empty_cell_types_stay_distinct():
    parsed = parse_guard_log(io.StringIO("1,2,3,1\n1,2,3,1,\n1,2,3,1,0\n1,2,3,1,0,extra\n"))
    (circuit,) = parsed.channels[0].circuits.values()
    assert circuit.cell_types.tolist() == [NO_CELL_TYPE, 0]
    assert parsed.duplicate_count == 2 and parsed.line_count == 4


@pytest.mark.parametrize(
    "row, message",
    [
        ("a.com,-5,a.com,2", "line 1: request_ts must be non-negative"),
        ("a.com,1,a.com,2,3,3", "line 1: linked legs must have distinct circuit ids"),
    ],
)
def test_bad_visit_row_is_parse_error(row, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_visit_log(io.StringIO(row + "\n"))
    assert "non-integer" not in str(err.value)


def test_guard_log_file_reads_with_universal_newlines(tmp_path):
    lf, other = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(b"h,h,h,h\n1,2,0,1\n1,2,5,-1\n3,4,0,1\n")
    other.write_bytes(b"h,h,h,h\r\n1,2,0,1\r\n1,2,5,-1\r3,4,0,1\n")
    want, got = parse_guard_log(lf), parse_guard_log(other)
    assert (got.cell_count, got.line_count) == (want.cell_count, want.line_count) == (3, 3)


def test_guard_log_that_is_not_utf8_names_the_line(tmp_path):
    path = tmp_path / "guard.csv"
    path.write_bytes(b"1,2,0,1\n1,2,\xff5,-1\n")
    with pytest.raises(ParseError) as err:
        parse_guard_log(path)
    assert err.value.line_no == 2


# --- the cell-log store ---------------------------------------------------------


def describe_exactly(parsed: ParsedLog) -> tuple:
    """describe() plus what it folds away: whether each circuit has a cell
    type column, and that column's dtype."""
    types = [
        None if c.cell_types is None else c.cell_types.dtype
        for ch in parsed.channels
        for c in ch.circuits.values()
    ]
    return describe(parsed), types


def from_store(parse, path, *args):
    """``parse(path, *args)`` with the log's bytes out of reach, so only its
    store can answer."""
    with mock.patch.object(ingest, "_read_table", side_effect=AssertionError("decoded the log")):
        return parse(path, *args)


def remove_store(path) -> None:
    store = store_path(path)
    if store.exists():
        for part in store.iterdir():
            part.unlink()
        store.rmdir()


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("logs")


@pytest.mark.parametrize("require_type", [False, True], ids=["guard", "client"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_store_loads_what_the_log_parses(log_dir, require_type, data):
    path = log_dir / "cells.csv"
    path.write_bytes(joined(data, data.draw(cell_logs(require_type))).encode())
    remove_store(path)
    try:
        decoded = _parse_cells(path, require_type)
    except ParseError:
        assert not store_path(path).exists()
        return
    assert describe_exactly(from_store(_parse_cells, path, require_type)) == describe_exactly(decoded)


# the golden scenarios: post phase with relay channels, drop and swap noise
# and a typed client log; pre phase with retried and redirected visits
GOLDEN_SCENARIOS = {
    "post": ScenarioConfig(
        seed=0, phase="post", n_pages=3, n_visits_per_page=3, n_nonmon_channels=5,
        spam_channel_fraction=0.2, spam_circuit_range=(60, 80), relay_auth_channels=2,
        drop_prob=0.05, reorder_prob=0.05, exit_switch_prob=0.1,
    ),
    "pre": ScenarioConfig(
        seed=0, phase="pre", n_pages=3, n_visits_per_page=3, n_nonmon_channels=5,
        retry_prob=0.5, altsvc_prob=0.5, redirect_prob=0.5, invalid_handshake_fraction=0.1,
        relay_auth_channels=1,
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN_SCENARIOS))
def generated(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    generate_dataset(GOLDEN_SCENARIOS[request.param], out)
    return out


def test_generated_logs_load_from_their_stores_as_they_parse(generated):
    assert not list(generated.glob("*.store"))  # generate writes none
    for name, require_type in (("guard.csv", False), ("client.csv", True)):
        path = generated / name
        decoded = _parse_cells(path, require_type)
        stored = from_store(_parse_cells, path, require_type)
        assert describe_exactly(stored) == describe_exactly(decoded)
        from_text = _parse_cells(io.StringIO(path.read_text()), require_type)
        assert describe_exactly(from_text) == describe_exactly(decoded)
        meta = json.loads((store_path(path) / "meta.json").read_text())
        assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    guard = parse_guard_log(generated / "guard.csv")
    assert guard.auth_channel_count and any(ch.relay_authenticated for ch in guard.channels)


def test_every_writer_writes_the_same_store_bytes(generated, tmp_path):
    for name, require_type in (("guard.csv", False), ("client.csv", True)):
        copies = [tmp_path / "a" / name, tmp_path / "b" / name]
        for copy in copies:
            copy.parent.mkdir(exist_ok=True)
            copy.write_bytes((generated / name).read_bytes())
            _parse_cells(copy, require_type)
        store, other = (store_path(copy) for copy in copies)
        assert sorted(p.name for p in store.iterdir()) == sorted(p.name for p in other.iterdir())
        for part in store.iterdir():
            assert (other / part.name).read_bytes() == part.read_bytes(), part.name


def test_the_store_records_the_digest_of_the_bytes_it_decoded(tmp_path):
    # the log changes while it is decoded: the store must describe the
    # bytes read, and the next read must see that it is stale
    path = tmp_path / "guard.csv"
    first, second = "1,2,100,1\n", "1,2,100,1\n1,2,200,-1\n"
    path.write_text(first)
    read_table = ingest._read_table

    def edit_while_decoding(*args):
        path.write_text(second)
        return read_table(*args)

    with mock.patch.object(ingest, "_read_table", side_effect=edit_while_decoding):
        assert parse_guard_log(path).cell_count == 1
    meta = json.loads((store_path(path) / "meta.json").read_text())
    assert meta["sha256"] == hashlib.sha256(first.encode()).hexdigest()
    assert parse_guard_log(path).cell_count == 2


def test_a_log_from_a_pipe_is_read_once_and_gets_no_store(tmp_path):
    path = tmp_path / "guard.csv"
    path.write_text(GUARD_LOG)
    want = describe_exactly(parse_guard_log(path))
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    store_path(path).rename(store_path(fifo))  # a matching store beside the pipe
    writer = threading.Thread(target=fifo.write_text, args=(GUARD_LOG,), daemon=True)
    writer.start()
    assert describe_exactly(parse_guard_log(fifo)) == want
    writer.join(timeout=10)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["guard.csv", "pipe.csv", "pipe.store"]


def test_a_store_that_cannot_be_written_leaves_the_parse_alone(tmp_path, caplog):
    path = tmp_path / "guard.csv"
    path.write_text(GUARD_LOG)
    store_path(path).write_text("a file in the store's place")
    with caplog.at_level(logging.WARNING, logger="guardsift.store"):
        parsed = parse_guard_log(path)
    assert parsed.cell_count == 3
    assert "cannot write the store of" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["guard.csv", "guard.store"]


def test_a_stale_store_is_replaced_whole(tmp_path):
    path = tmp_path / "guard.csv"
    path.write_text("1,2,100,1,7\n")
    parse_guard_log(path)
    assert (store_path(path) / "cell_types.npy").exists()
    path.write_text(GUARD_LOG)
    parse_guard_log(path)
    store = store_path(path)
    assert sorted(p.name for p in store.iterdir()) == [
        "directions.npy", "groups.npy", "meta.json", "timestamps.npy"
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["guard.csv", "guard.store"]
    assert from_store(parse_guard_log, path).cell_count == 3


def test_store_keeps_repeated_rows_out(tmp_path):
    path = tmp_path / "guard.csv"
    path.write_text("#AUTH,9\n1,2,100,1\n1,2,100,1\n#AUTH,4\n1,2,101,-1\n1,2,100,1\n3,1,5,1,7\n")
    decoded = parse_guard_log(path)
    assert (decoded.duplicate_count, decoded.line_count, decoded.auth_channel_count) == (2, 5, 2)
    assert describe_exactly(from_store(parse_guard_log, path)) == describe_exactly(decoded)


# --- the store's error contract

GUARD_LOG = "#AUTH,3\n1,2,100,1\n1,2,100,1\n1,5,150,-1\n4,2,120,1\n"


@pytest.fixture()
def guard_log(tmp_path):
    path = tmp_path / "guard.csv"
    path.write_text(GUARD_LOG)
    parse_guard_log(path)
    return path


def test_a_store_is_used_only_while_its_digest_matches(guard_log):
    assert from_store(parse_guard_log, guard_log).cell_count == 3
    guard_log.write_text(GUARD_LOG + "4,2,130,-1\n")
    np.save(store_path(guard_log) / "timestamps.npy", np.zeros(1, dtype=np.int8))
    assert parse_guard_log(guard_log).cell_count == 4  # a stale store is not even read
    assert from_store(parse_guard_log, guard_log).cell_count == 4  # but replaced


def test_a_store_of_the_other_reader_is_ignored(guard_log):
    # a guard log whose rows all carry a type reads as a client log too
    guard_log.write_text("1,2,100,1,0\n1,2,110,-1,3\n")
    parsed = parse_guard_log(guard_log)
    with mock.patch.object(ingest, "_read_table", wraps=ingest._read_table) as decode:
        client = parse_client_log(guard_log, io.StringIO(""))
    assert decode.call_count == 1
    assert describe_exactly(client.stats) == describe_exactly(parsed)
    assert json.loads((store_path(guard_log) / "meta.json").read_text())["log"] == "client"


def rewrite_meta(store, **changes):
    meta = json.loads((store / "meta.json").read_text())
    (store / "meta.json").write_text(json.dumps({**meta, **changes}))


def claim_shape(path, shape) -> None:
    """Rewrite the ``.npy`` file at ``path`` with a header that claims ``shape``."""
    array = np.load(path)
    header = {"descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": False, "shape": shape}
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        handle.write(array.tobytes())


MALFORMED_STORES = {
    "wrong-version": (lambda s: rewrite_meta(s, version=2), "meta.json", "version 2, expected 1"),
    "meta-not-json": (lambda s: (s / "meta.json").write_text("{"), "meta.json", "not JSON"),
    "meta-not-an-object": (lambda s: (s / "meta.json").write_text("[]"), "meta.json", "no sha256"),
    "mistyped-count": (lambda s: rewrite_meta(s, line_count="4"), "meta.json", "mistyped"),
    "counts-disagree": (lambda s: rewrite_meta(s, duplicate_count=0), "meta.json", "counts"),
    "truncated-npy": (
        lambda s: (s / "timestamps.npy").write_bytes((s / "timestamps.npy").read_bytes()[:-3]),
        "timestamps.npy", "do not hold shape",
    ),
    "huge-shape": (lambda s: claim_shape(s / "timestamps.npy", (10**14,)), "timestamps.npy", "shape"),
    "empty-npy": (lambda s: (s / "groups.npy").write_bytes(b""), "groups.npy", ""),
    "missing-npy": (lambda s: (s / "directions.npy").unlink(), "directions.npy", ""),
    "missing-cell-types": (lambda s: rewrite_meta(s, cell_types=True), "cell_types.npy", ""),
    "lengths-differ": (
        lambda s: np.save(s / "directions.npy", np.ones(2, dtype=np.int8)), "directions.npy", "2 cells"
    ),
    "wrong-dtype": (
        lambda s: np.save(s / "timestamps.npy", np.zeros(3)), "timestamps.npy", "expected 1-d int64"
    ),
    "object-array": (
        lambda s: np.save(s / "directions.npy", np.array([1, -1, 1], dtype=object), allow_pickle=True),
        "directions.npy", "holds a 1-d object array, expected 1-d int8",
    ),
    "pickle": (
        lambda s: (s / "groups.npy").write_bytes(pickle.dumps([[1, 2, 3]])), "groups.npy", "magic",
    ),
    "groups-overrun": (
        lambda s: np.save(s / "groups.npy", np.array([[1, 2, 2], [1, 5, 4]])), "groups.npy", "3 cells",
    ),
    "groups-width": (
        lambda s: np.save(s / "groups.npy", np.array([[1, 2], [1, 3]])), "groups.npy", "3 cells",
    ),
    "groups-no-columns": (
        lambda s: np.save(s / "groups.npy", np.empty((2, 0), dtype=np.int64)), "groups.npy", "3 cells",
    ),
    "groups-out-of-order": (
        lambda s: np.save(s / "groups.npy", np.array([[1, 2, 2], [1, 5, 1], [4, 2, 3]])),
        "groups.npy", "3 cells",
    ),
    # values no parse of a log can give
    "direction-out-of-range": (
        lambda s: np.save(s / "directions.npy", np.array([1, -1, 5], dtype=np.int8)),
        "directions.npy", "row 2 is out of range",
    ),
    "negative-timestamp": (
        lambda s: np.save(s / "timestamps.npy", np.array([100, -150, 120])),
        "timestamps.npy", "row 1 is out of range",
    ),
    "negative-cell-type": (
        lambda s: (
            rewrite_meta(s, cell_types=True), np.save(s / "cell_types.npy", np.array([0, -2, 3]))
        ),
        "cell_types.npy", "row 1 is out of range",
    ),
    "circuit-id-out-of-range": (
        lambda s: np.save(s / "groups.npy", np.array([[1, 2, 1], [1, 2**32, 2], [4, 2, 3]])),
        "groups.npy", "row 1 is out of range",
    ),
    "repeated-circuit": (
        lambda s: np.save(s / "groups.npy", np.array([[1, 2, 1], [4, 2, 2], [1, 2, 3]])),
        "groups.npy", "listed twice",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
def test_a_malformed_store_that_matches_its_log_is_an_error(guard_log, case):
    damage, name, message = MALFORMED_STORES[case]
    store = store_path(guard_log)
    damage(store)
    with pytest.raises(StoreError) as err:
        parse_guard_log(guard_log)
    assert str(err.value).startswith(f"bad cell-log store {store / name}: ")
    assert message in str(err.value)


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "guard.csv"
    path.write_text(GUARD_LOG)
    parse_guard_log(path)
    return path, {part.name: part.read_bytes() for part in store_path(path).iterdir()}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_store_bytes_let_only_store_errors_escape(pristine_store, data):
    path, parts = pristine_store
    store = store_path(path)
    for name, raw in parts.items():
        (store / name).write_bytes(raw)
    name = data.draw(st.sampled_from(sorted(parts)))
    raw = bytearray(parts[name])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw)))
        edit = data.draw(st.sampled_from(["set", "cut", "insert"]))
        if edit == "set" and at < len(raw):
            raw[at] = data.draw(st.integers(0, 255))
        elif edit == "cut":
            del raw[at : at + data.draw(st.integers(1, 200))]
        else:
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=4))
    (store / name).write_bytes(bytes(raw))
    try:
        parsed = parse_guard_log(path)
    except StoreError as exc:
        assert str(exc).startswith(f"bad cell-log store {store}")
    else:
        assert_valid_cells(parsed)


def assert_valid_cells(parsed: ParsedLog) -> None:
    """What a parse of any log holds: counts that add up, and only values a
    ``CellRecord`` can hold, each (channel, circuit) pair once."""
    assert parsed.cell_count == parsed.line_count - parsed.duplicate_count
    circuits = [(ch.channel_id, c) for ch in parsed.channels for c in ch.circuits.values()]
    assert sum(len(c.timestamps) for _, c in circuits) == parsed.cell_count
    for _, circuit in circuits:
        assert 0 <= circuit.circuit_id < 2**32 and len(circuit.timestamps)
        assert (circuit.timestamps >= 0).all() and (np.abs(circuit.directions) == 1).all()
    assert len({(channel_id, c.circuit_id) for channel_id, c in circuits}) == len(circuits)


# each array's bytes per row, the byte of a row that the damage sets, and
# values of that byte that put the row out of range (little-endian data)
OUT_OF_RANGE = {
    "directions.npy": (1, 0, [b"\x00", b"\x02", b"\x7f", b"\x80", b"\xfe"]),
    "timestamps.npy": (8, 7, [b"\x80", b"\xff"]),  # the sign byte
    "groups.npy": (24, 12, [b"\x01", b"\x80"]),  # bits 32 to 39 of the circuit id
}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_an_out_of_range_value_in_a_store_is_a_store_error(pristine_store, data):
    path, parts = pristine_store
    store = store_path(path)
    for name, raw in parts.items():
        (store / name).write_bytes(raw)
    name = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    row_bytes, byte, values = OUT_OF_RANGE[name]
    raw = bytearray(parts[name])
    rows = 3  # GUARD_LOG keeps three cells in three circuits
    at = len(raw) - (rows - data.draw(st.integers(0, rows - 1))) * row_bytes + byte
    raw[at : at + 1] = data.draw(st.sampled_from(values))
    (store / name).write_bytes(bytes(raw))
    with pytest.raises(StoreError, match="out of range"):
        parse_guard_log(path)
