"""The trace store: a trace file ``X.ndjson`` read from a regular file keeps
the columns its first reader decoded in the directory ``X.store`` beside it.

These tests follow the cell-log store tests in ``test_ingest.py``.
"""

import hashlib
import io
import json
import logging
import os
import pickle
import shutil
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MS, oracle_trace_line, python2_shape, run_fresh
from guardsift import columns
from guardsift.cli import main
from guardsift.columns import read_columns
from guardsift.errors import ParseError, StoreError
from guardsift.store import store_path
from guardsift.trace import TraceColumns, read_dataset, write_dataset
from oracles import trace_from_cells

TRACES = [
    trace_from_cells(((0, 1), (5 * MS, -1), (9 * MS, -1), (30 * MS, 1)), label="a.example"),
    trace_from_cells(((0, -1), (2 * MS, 1)), phase="post"),
    trace_from_cells(((0, 1), (1, 1), (7 * MS, -1)), label="b,\u2028\"c\""),
]


def describe(table: TraceColumns) -> tuple:
    """Everything a table holds, dtypes included."""
    return (
        table.timestamps.dtype, table.timestamps.tolist(), table.directions.dtype,
        table.directions.tolist(), table.bounds.dtype, table.bounds.tolist(), table.phases, table.labels,
    )


def from_store(path) -> TraceColumns:
    """``read_columns(path)`` with the decoder out of reach, so only the store can answer."""
    with mock.patch.object(columns, "_decode", side_effect=AssertionError("decoded the file")):
        return read_columns(path)


def remove_store(path) -> None:
    if store_path(path).exists():
        shutil.rmtree(store_path(path))


@pytest.fixture()
def traces_path(tmp_path):
    path = tmp_path / "traces.ndjson"
    write_dataset(TraceColumns.from_traces(TRACES), 3, path)
    return path


@pytest.fixture()
def stored(traces_path):
    """The trace file, with the store its first read wrote."""
    read_columns(traces_path)
    return traces_path


# --- what the store holds


@st.composite
def trace_files(draw):
    """The text of a trace file: traces anywhere in int64, labels of any text."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        times = sorted(draw(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8)))
        cells = [(t, draw(st.sampled_from([1, -1]))) for t in times]
        label = draw(st.none() | st.text(max_size=6))
        lines.append(oracle_trace_line(draw(st.sampled_from(["pre", "post"])), label, cells))
    return "".join(f"{line}\n" for line in lines)


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@given(text=trace_files())
@settings(max_examples=100, deadline=None)
def test_store_loads_what_the_file_decodes(file_dir, text):
    path = file_dir / "traces.ndjson"
    path.write_text(text, encoding="utf-8")
    remove_store(path)
    decoded = read_columns(path)
    assert describe(from_store(path)) == describe(decoded) == describe(read_columns(io.StringIO(text)))


def test_the_store_holds_the_columns_and_the_digest(stored):
    store = store_path(stored)
    assert sorted(p.name for p in store.iterdir()) == [
        "bounds.npy", "directions.npy", "meta.json", "timestamps.npy"
    ]
    meta = json.loads((store / "meta.json").read_text())
    table = read_columns(io.StringIO(stored.read_text()))
    assert meta == {
        "version": 1, "log": "trace", "sha256": hashlib.sha256(stored.read_bytes()).hexdigest(),
        "phases": table.phases, "labels": table.labels,
    }
    for name, dtype in (("timestamps", np.int64), ("directions", np.int8), ("bounds", np.int64)):
        array = np.load(store / f"{name}.npy")
        assert array.dtype == dtype and array.tolist() == getattr(table, name).tolist()


def test_every_reader_writes_the_same_store_bytes(traces_path, tmp_path):
    copies = [tmp_path / "a" / "traces.ndjson", tmp_path / "b" / "traces.ndjson"]
    for copy, read in zip(copies, (read_columns, read_dataset)):
        copy.parent.mkdir()
        copy.write_bytes(traces_path.read_bytes())
        read(copy)
    store, other = (store_path(copy) for copy in copies)
    assert sorted(p.name for p in store.iterdir()) == sorted(p.name for p in other.iterdir())
    for part in store.iterdir():
        assert (other / part.name).read_bytes() == part.read_bytes(), part.name


def test_a_file_that_fails_to_decode_gets_no_store(tmp_path):
    path = tmp_path / "traces.ndjson"
    path.write_text('{"phase":"pre","label":null,"cells":[[5,1],[4,-1]]}\n')
    with pytest.raises(ParseError):
        read_columns(path)
    assert not store_path(path).exists()


# --- when the store is read and written


def test_an_edited_file_is_decoded_again_and_its_store_replaced(stored):
    before = (store_path(stored) / "meta.json").read_bytes()
    stored.write_text(stored.read_text() + '{"phase":"pre","label":"new","cells":[[0,1]]}\n')
    assert read_columns(stored).labels[-1] == "new"
    assert (store_path(stored) / "meta.json").read_bytes() != before
    assert from_store(stored).labels[-1] == "new"
    assert sorted(p.name for p in stored.parent.iterdir()) == ["traces.ndjson", "traces.store"]


def test_the_store_records_the_digest_of_the_bytes_it_decoded(traces_path):
    # the file changes while it is decoded: the store must describe the
    # bytes read, and the next read must see that it is stale
    first = traces_path.read_bytes()
    second = first + b'{"phase":"pre","label":null,"cells":[[0,1]]}\n'
    decode = columns._decode

    def edit_while_decoding(text):
        traces_path.write_bytes(second)
        return decode(text)

    with mock.patch.object(columns, "_decode", side_effect=edit_while_decoding):
        assert len(read_columns(traces_path)) == len(TRACES)
    meta = json.loads((store_path(traces_path) / "meta.json").read_text())
    assert meta["sha256"] == hashlib.sha256(first).hexdigest()
    assert len(read_columns(traces_path)) == len(TRACES) + 1


def test_a_store_of_a_cell_log_reader_is_replaced(tmp_path):
    # an empty file is both an empty cell log and an empty trace file
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert main(["ingest", "--guard", str(path)]) == 0
    assert json.loads((store_path(path) / "meta.json").read_text())["log"] == "guard"
    assert len(read_columns(path)) == 0
    assert json.loads((store_path(path) / "meta.json").read_text())["log"] == "trace"


def test_a_file_from_a_pipe_or_an_open_file_gets_no_store(traces_path, tmp_path):
    want = describe(read_columns(traces_path))
    fifo = tmp_path / "pipe.ndjson"
    os.mkfifo(fifo)
    store_path(traces_path).rename(store_path(fifo))  # a matching store beside the pipe
    writer = threading.Thread(target=fifo.write_bytes, args=(traces_path.read_bytes(),), daemon=True)
    writer.start()
    with mock.patch.object(columns, "load_array", side_effect=AssertionError("loaded a store")):
        assert describe(read_columns(fifo)) == want
        with open(traces_path, encoding="utf-8") as handle:
            assert describe(read_columns(handle)) == want
    writer.join(timeout=10)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.ndjson", "pipe.store", "traces.ndjson"]


def test_featurize_from_stdin_writes_no_store(traces_path, tmp_path):
    argv = ["-m", "guardsift.cli", "featurize", "--in", "/dev/stdin", "--out", "out"]
    proc = run_fresh(argv, tmp_path, stdin=traces_path.read_text())
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "traces.ndjson"]


def test_writers_write_no_store(tmp_path, traces_path):
    out = tmp_path / "jittered.ndjson"
    assert main(["transform", "--in", str(traces_path), "--out", str(out), "--jitter-ms", "1"]) == 0
    assert store_path(traces_path).is_dir()  # the first read of the input wrote its store
    assert not store_path(out).exists()


# --- every command's outputs, whichever way the traces were read

TRACE_COMMANDS = {
    "featurize-direction": ["featurize", "--in", "{traces}", "--out", "{out}", "--kind", "direction"],
    "featurize-timing": ["featurize", "--in", "{traces}", "--out", "{out}", "--kind", "timing", "--csv"],
    "featurize-tam": ["featurize", "--in", "{traces}", "--out", "{out}", "--kind", "tam", "--n-slots", "8"],
    "transform": ["transform", "--in", "{traces}", "--out", "{out}", "--jitter-ms", "20", "--seed", "4"],
}


def outputs(out) -> dict:
    """The bytes of each file a command wrote at ``out``, by name below it."""
    if out.is_file():
        return {"": out.read_bytes()}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(TRACE_COMMANDS))
def test_outputs_are_the_same_from_a_first_read_from_the_store_and_with_no_store(
    traces_path, tmp_path, caplog, case
):
    def run(name):
        argv = [a.format(traces=traces_path, out=tmp_path / name) for a in TRACE_COMMANDS[case]]
        assert main(argv) == 0
        return outputs(tmp_path / name)

    first = run("first-read")
    assert store_path(traces_path).is_dir()
    with mock.patch.object(columns, "_decode", side_effect=AssertionError("decoded the file")):
        assert run("from-store") == first
    shutil.rmtree(store_path(traces_path))
    store_path(traces_path).write_text("a file in the store's place")
    with caplog.at_level(logging.WARNING, logger="guardsift.store"):
        assert run("no-store") == first
    assert f"cannot write the store of {traces_path}" in caplog.text
    assert store_path(traces_path).read_text() == "a file in the store's place"


def test_a_store_that_cannot_be_written_is_a_warning_in_a_fresh_process(traces_path, tmp_path):
    store_path(traces_path).write_text("a file in the store's place")
    argv = ["-m", "guardsift.cli", "featurize", "--in", "traces.ndjson", "--out", "out"]
    proc = run_fresh(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("cannot write the store of traces.ndjson, which is decoded on each read: ")


# --- the store's error contract


def rewrite_meta(store, **changes):
    meta = json.loads((store / "meta.json").read_text())
    (store / "meta.json").write_text(json.dumps({**meta, **changes}))


def edit_array(name, edit):
    """Damage that loads the array ``name``, edits it and saves it back."""

    def damage(store):
        array = np.load(store / f"{name}.npy")
        np.save(store / f"{name}.npy", edit(array))

    return damage


def set_at(index, value):
    def edit(array):
        array[index] = value
        return array

    return edit


def first_trace_cells(store) -> slice:
    bounds = np.load(store / "bounds.npy")
    return slice(int(bounds[0]), int(bounds[1]))


def unsort_a_trace(store):
    cells = first_trace_cells(store)
    timestamps = np.load(store / "timestamps.npy")
    timestamps[cells] = timestamps[cells][::-1]
    np.save(store / "timestamps.npy", timestamps)


MALFORMED_STORES = {
    "wrong-version": (lambda s: rewrite_meta(s, version=2), "meta.json", "version 2, expected 1"),
    "meta-not-json": (lambda s: (s / "meta.json").write_text("{"), "meta.json", "not JSON"),
    "meta-not-an-object": (lambda s: (s / "meta.json").write_text("[]"), "meta.json", "no sha256"),
    "phase-outside-phases": (
        lambda s: rewrite_meta(s, phases=["pre", "mid", "post"]), "meta.json", "phases and labels"
    ),
    "phase-not-a-string": (
        lambda s: rewrite_meta(s, phases=["pre", ["pre"], "post"]), "meta.json", "phases and labels"
    ),
    "label-not-a-string": (
        lambda s: rewrite_meta(s, labels=["a", 3, None]), "meta.json", "phases and labels"
    ),
    "labels-missing": (lambda s: rewrite_meta(s, labels=None), "meta.json", "phases and labels"),
    "phases-and-labels-differ": (
        lambda s: rewrite_meta(s, phases=["pre", "post"]), "meta.json", "phases and labels"
    ),
    "truncated-npy": (
        lambda s: (s / "timestamps.npy").write_bytes((s / "timestamps.npy").read_bytes()[:-3]),
        "timestamps.npy", "do not hold shape",
    ),
    "empty-npy": (lambda s: (s / "bounds.npy").write_bytes(b""), "bounds.npy", "bad .npy header"),
    "missing-npy": (lambda s: (s / "directions.npy").unlink(), "directions.npy", ""),
    "pickle": (lambda s: (s / "bounds.npy").write_bytes(pickle.dumps([0, 9])), "bounds.npy", "magic"),
    "wrong-dtype": (
        edit_array("timestamps", lambda a: a.astype(np.float64)), "timestamps.npy", "expected 1-d int64"
    ),
    "wrong-rank": (
        edit_array("bounds", lambda a: a.reshape(1, -1)), "bounds.npy",
        "holds a 2-d int64 array, expected 1-d int64",
    ),
    "object-array": (
        lambda s: np.save(s / "directions.npy", np.array([1, -1], dtype=object), allow_pickle=True),
        "directions.npy", "holds a 1-d object array, expected 1-d int8",
    ),
    "lengths-differ": (edit_array("directions", lambda a: a[1:]), "directions.npy", "cells, timestamps.npy has 9"),
    "bounds-count": (edit_array("bounds", lambda a: a[1:]), "bounds.npy", "into 3 traces"),
    "bounds-not-from-0": (edit_array("bounds", set_at(0, 1)), "bounds.npy", "does not split the 9 cells"),
    "bounds-not-to-n": (edit_array("bounds", set_at(-1, 8)), "bounds.npy", "does not split the 9 cells"),
    "bounds-decreasing": (
        edit_array("bounds", lambda a: np.array([0, 5, 2, 9])), "bounds.npy", "does not split the 9 cells"
    ),
    "direction-out-of-range": (
        edit_array("directions", set_at(4, 3)), "directions.npy", "directions must be +1 or -1"
    ),
    "direction-zero": (edit_array("directions", set_at(0, 0)), "directions.npy", "trace 0: directions"),
    "cells-out-of-order": (unsort_a_trace, "timestamps.npy", "trace 0: cells must be sorted by timestamp"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STORES))
def test_a_malformed_store_that_matches_its_file_is_an_error(stored, case):
    damage, name, message = MALFORMED_STORES[case]
    store = store_path(stored)
    damage(store)
    with pytest.raises(StoreError) as err:
        read_columns(stored)
    assert str(err.value).startswith(f"bad trace store {store / name}: ")
    assert str(err.value).endswith("; delete the store to read the trace file")
    assert message in str(err.value)


def test_unsorted_cells_across_traces_are_no_fault(stored):
    # each trace starts at 0 ns, so the columns fall back at every trace boundary
    assert describe(from_store(stored)) == describe(read_columns(io.StringIO(stored.read_text())))


@pytest.mark.parametrize("command", sorted(TRACE_COMMANDS))
@pytest.mark.parametrize("case", ["truncated-npy", "phase-outside-phases", "cells-out-of-order"])
def test_a_malformed_store_is_a_stage_error(stored, tmp_path, capsys, command, case):
    damage, name, _ = MALFORMED_STORES[case]
    damage(store_path(stored))
    argv = [a.format(traces=stored, out=tmp_path / "out") for a in TRACE_COMMANDS[command]]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"guardsift {argv[0]}: error: bad trace store {store_path(stored) / name}: ")
    assert err.endswith("; delete the store to read the trace file\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["featurize-tam", "transform"])
def test_a_malformed_store_is_a_stage_error_in_a_fresh_process(stored, tmp_path, command):
    MALFORMED_STORES["direction-zero"][0](store_path(stored))
    argv = [a.format(traces=stored, out=tmp_path / "out") for a in TRACE_COMMANDS[command]]
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"guardsift {argv[0]}: error: bad trace store ")
    assert "directions.npy" in proc.stderr and "Traceback" not in proc.stderr


def test_a_store_header_numpy_must_mend_is_a_stage_error_in_a_fresh_process(stored, tmp_path):
    bounds = store_path(stored) / "bounds.npy"
    python2_shape(bounds)
    argv = [a.format(traces=stored, out=tmp_path / "out") for a in TRACE_COMMANDS["featurize-direction"]]
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (
        f"guardsift featurize: error: bad trace store {bounds}: bad .npy header: numpy reads it only"
        " after mending it; delete the store to read the trace file\n"
    )


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "traces.ndjson"
    write_dataset(TraceColumns.from_traces(TRACES), 3, path)
    read_columns(path)
    return path, {part.name: part.read_bytes() for part in store_path(path).iterdir()}


@pytest.mark.filterwarnings("error")
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
        table = read_columns(path)
    except StoreError as exc:
        assert str(exc).startswith(f"bad trace store {store}")
    else:
        # what a decode of any trace file holds
        traces = table.traces()
        assert len(traces) == len(table.phases) == len(table.labels)
        assert sum(map(len, traces)) == len(table.timestamps)
        for trace in traces:
            assert (np.abs(trace.directions) == 1).all()
