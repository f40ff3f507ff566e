import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import json_values, oracle_trace_id, oracle_trace_line
from guardsift.errors import GuardsiftError, ParseError
import guardsift.columns as columns_module
import guardsift.trace as trace_module
from guardsift.columns import read_columns
from guardsift.trace import (
    CellRecord,
    Trace,
    TraceColumns,
    compute_trace_id,
    read_dataset,
    serialize_dataset,
    write_dataset,
)


def test_cell_record_rejects_bad_direction():
    with pytest.raises(ValueError):
        CellRecord(1, 2, 100, 0)
    with pytest.raises(ValueError):
        CellRecord(1, 2, -5, 1)
    with pytest.raises(ValueError):
        CellRecord(1, 2**32, 0, 1)


def test_trace_requires_sorted_cells():
    with pytest.raises(ValueError):
        Trace.from_cells(((10, 1), (5, -1)))


cells_strategy = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from([1, -1])), min_size=1, max_size=60
).map(lambda items: tuple(sorted(items, key=lambda c: c[0])))


def test_trace_id_invariant_under_offset_only():
    a = Trace.from_cells(((100, 1), (200, -1)))
    b = Trace.from_cells(((0, 1), (100, -1)))
    c = Trace.from_cells(((0, 1), (101, -1)))
    id_a, id_b, id_c = compute_trace_id(table([a, b, c]))
    assert id_a == id_b
    assert id_a != id_c


def _traces():
    return [
        Trace.from_cells(((0, 1), (50, -1), (300, 1)), phase="pre", label="site-a"),
        Trace.from_cells(((0, 1), (10, -1)), phase="pre"),
        Trace.from_cells(((0, 1), (5, 1), (9, -1)), phase="post", label="site-b"),
    ]


def table(traces):
    return TraceColumns.from_traces(traces)


def trace_id(trace):
    (value,) = compute_trace_id(table([trace]))
    return value


def test_export_is_deterministic_and_stripped():
    data1 = serialize_dataset(table(_traces()), seed=1)
    data2 = serialize_dataset(table(_traces()), seed=1)
    assert data1 == data2
    text = data1.decode("utf-8")
    assert "channel" not in text and "circuit" not in text
    assert text.endswith("\n")
    assert serialize_dataset(table(_traces()), seed=2) != data1


def test_export_roundtrip_bit_exact():
    data = serialize_dataset(table(_traces()), seed=3)
    back = read_dataset(io.StringIO(data.decode("utf-8")))
    original = {(t.phase, t.label, t.cells) for t in _traces()}
    assert {(t.phase, t.label, t.cells) for t in back} == original


def test_export_rejects_unnormalized(tmp_path):
    late = Trace.from_cells(((5, 1), (9, -1)))
    not_normalized = f"^trace {trace_id(late)} starts at 5 ns, expected 0$"
    with pytest.raises(GuardsiftError, match=not_normalized):
        serialize_dataset(table([*_traces(), late, Trace.from_cells(())]), seed=0)
    with pytest.raises(GuardsiftError, match="^cannot export an empty trace$"):
        serialize_dataset(table([*_traces(), Trace.from_cells(()), late]), seed=0)
    # the writer checks the whole table before it opens the file
    with pytest.raises(GuardsiftError, match=not_normalized):
        write_dataset(table([*_traces(), late]), 0, tmp_path / "traces.ndjson")
    assert not (tmp_path / "traces.ndjson").exists()


@pytest.mark.parametrize(
    "text, line_no",
    [
        ('{"phase":"pre","label":null,"cells":[[0,1]]}\n\n{oops\n', 3),
        ('{"phase":"pre","cells":[[0,1]]}\n', 1),
        ('{"phase":"pre","label":null,"cells":[[0,1,2]]}\n', 1),
        ('{"phase":"pre","label":null,"cells":null}\n', 1),
        ('{"phase":"mid","label":null,"cells":[[0,1]]}\n', 1),
        ("[1, 2]\n", 1),
    ],
)
def test_read_dataset_reports_bad_lines(text, line_no):
    with pytest.raises(ParseError) as err:
        read_dataset(io.StringIO(text))
    assert err.value.line_no == line_no


@pytest.fixture()
def id_calls(monkeypatch):
    """Count the calls that reach ``compute_trace_id`` through the trace module."""
    calls = []
    real = trace_module.compute_trace_id

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(trace_module, "compute_trace_id", counting)
    return calls


def test_building_traces_computes_no_id(id_calls):
    t = Trace.from_cells(((100, 1), (200, -1), (260, -1)), label="site-a")
    t.with_cells(t.timestamps[:2], t.directions[:2], tail_trimmed=True)
    read_dataset(io.StringIO(serialize_dataset(table(_traces()), seed=0).decode("utf-8")))
    assert id_calls == []


@given(cells_strategy)
def test_trace_id_is_the_content_hash(cells):
    assert trace_id(Trace.from_cells(cells)) == oracle_trace_id(cells)


def test_trace_ids_match_pinned_values():
    # labels.csv files carry these ids, so a change of value is a format change;
    # taken when ids began to hash the raw direction and gap bytes
    t = Trace.from_cells(((100, 1), (200, -1), (260, -1), (900, 1)), label="site-a")
    traces = [
        t,
        t.with_cells(t.timestamps - 100, t.directions),
        t.with_cells(t.timestamps[:2], t.directions[:2]),
        Trace.from_cells(()),
        Trace.from_cells(((0, 1),)),
    ]
    assert compute_trace_id(table(traces)) == [
        "bc07ff89ca07f683", "bc07ff89ca07f683", "01d3c7345ddf750d", "e3b0c44298fc1c14",
        "a536aa3cede6ea3c",
    ]


def test_copies_do_not_inherit_a_read_id():
    t = Trace.from_cells(((100, 1), (200, -1), (260, -1)))
    first = trace_id(t)
    shorter = t.with_cells(t.timestamps[:2], t.directions[:2])
    assert trace_id(shorter) == oracle_trace_id(t.cells[:2]) != first
    assert trace_id(t.with_cells(t.timestamps - 100, t.directions)) == first
    assert t == Trace.from_cells(t.cells)


# --- the array codec against the tuple-cell codec it replaced -------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
timestamps_strategy = st.integers(0, 10**6) | st.integers(INT64_MIN, INT64_MAX)
labels = st.none() | st.text(max_size=12)


@st.composite
def cell_lists(draw, normalized=False):
    """Sorted cells anywhere in int64; ``normalized`` starts them at 0."""
    times = sorted(draw(st.lists(timestamps_strategy, min_size=1, max_size=30)))
    if normalized:
        times = [0] + [t for t in times if t > 0]
    dirs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(times), max_size=len(times)))
    return list(zip(times, dirs))


@st.composite
def exportable_traces(draw):
    return Trace.from_cells(
        draw(cell_lists(normalized=True)),
        phase=draw(st.sampled_from(["pre", "post"])),
        label=draw(labels),
    )


@given(cell_lists())
def test_trace_id_matches_the_per_cell_oracle(cells):
    assert trace_id(Trace.from_cells(cells)) == oracle_trace_id(cells)


@given(
    st.lists(exportable_traces(), max_size=6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, trace_module._BLOCK_CELLS]),
)
@settings(deadline=None)
def test_serialize_matches_the_json_dumps_oracle(tmp_path_factory, traces, seed, block_cells):
    order = np.random.default_rng(seed).permutation(len(traces))
    lines = [oracle_trace_line(traces[i].phase, traces[i].label, traces[i].cells) for i in order]
    expected = "".join(line + "\n" for line in lines).encode()
    assert serialize_dataset(table(traces), seed) == expected
    # the writer renders the same lines into the file a block of cells at a time
    path = tmp_path_factory.getbasetemp() / "written.ndjson"
    with mock.patch.object(trace_module, "_BLOCK_CELLS", block_cells):
        write_dataset(table(traces), seed, path)
    assert path.read_bytes() == expected


@given(st.lists(exportable_traces(), max_size=6), st.sampled_from([(",", ":"), (", ", ": ")]))
@settings(deadline=None)
def test_reader_matches_the_json_loads_oracle(traces, separators):
    text = "".join(
        json.dumps({"label": t.label, "cells": t.cells, "phase": t.phase}, separators=separators)
        + "\n"
        for t in traces
    )
    back = read_dataset(io.StringIO(text))
    assert [(t.phase, t.label, t.cells) for t in back] == [
        (t.phase, t.label, t.cells) for t in traces
    ]


@given(st.lists(exportable_traces(), max_size=6), st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_serialize_read_serialize_is_byte_identical(traces, seed):
    data = serialize_dataset(table(traces), seed)
    back = read_dataset(io.StringIO(data.decode("utf-8")))
    # one trace per call keeps the file order of ``back``
    assert b"".join(serialize_dataset(table([t]), seed) for t in back) == data
    order = np.random.default_rng(seed).permutation(len(traces))
    assert compute_trace_id(table(back)) == compute_trace_id(table([traces[i] for i in order]))


def table_fields(t):
    assert (t.timestamps.dtype, t.directions.dtype, t.bounds.dtype) == (np.int64, np.int8, np.int64)
    return t.timestamps.tolist(), t.directions.tolist(), t.bounds.tolist(), t.phases, t.labels


@st.composite
def segmented_cells(draw):
    """Cells, and ordered segments of them that do not overlap, some empty."""
    n = draw(st.integers(0, 30))
    times = sorted(draw(st.lists(timestamps_strategy, min_size=n, max_size=n)))
    dirs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
    starts, ends = np.array(cuts[0:-1:2], dtype=np.int64), np.array(cuts[1::2], dtype=np.int64)
    names = draw(st.lists(labels, min_size=len(starts), max_size=len(starts)))
    return np.array(times, dtype=np.int64), np.array(dirs, dtype=np.int8), starts, ends, names


@given(segmented_cells(), st.sampled_from(["pre", "post"]))
@settings(deadline=None)
def test_gather_is_the_table_of_the_non_empty_segments(segments, phase):
    timestamps, directions, starts, ends, labels = segments
    got = TraceColumns.gather(timestamps, directions, starts, ends, phase, labels)
    rows = [
        Trace(timestamps[start:end], directions[start:end], phase, label)
        for start, end, label in zip(starts.tolist(), ends.tolist(), labels)
        if end > start
    ]
    assert table_fields(got) == table_fields(table(rows))
    assert got.traces() == rows


@given(st.lists(st.lists(exportable_traces(), max_size=4), max_size=4))
@settings(deadline=None)
def test_join_is_the_table_of_all_rows(groups):
    joined = TraceColumns.join([table(traces) for traces in groups])
    rows = [trace for traces in groups for trace in traces]
    assert table_fields(joined) == table_fields(table(rows))
    assert joined.traces() == rows


@given(st.lists(exportable_traces(), max_size=6), st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_read_columns_of_serialize_is_the_table(traces, seed):
    order = np.random.default_rng(seed).permutation(len(traces)).tolist()
    back = read_columns(io.StringIO(serialize_dataset(table(traces), seed).decode("utf-8")))
    # the rows come back in the seeded order, so one row per call gives the table itself
    assert table_fields(back) == table_fields(table([traces[i] for i in order]))
    for trace in traces:
        one = read_columns(io.StringIO(serialize_dataset(table([trace]), seed).decode("utf-8")))
        assert table_fields(one) == table_fields(table([trace]))


GOOD_LINE = '{"phase":"pre","label":null,"cells":[[0,1]]}\n'


BAD_FIELDS = [
        '"cells":5',
        '"cells":{"0":1}',
        '"cells":[[0,1],5]',
        '"cells":[[0,1],[2]]',
        '"cells":[[0,1,2],[3,1,4]]',
        '"cells":["01"]',
        '"cells":[{"a":0,"b":1}]',
        '"cells":[[1.5,1]]',
        '"cells":[[0,1.0]]',
        '"cells":[[true,1]]',
        '"cells":[[0,false]]',
        '"cells":[["3",1]]',
        '"cells":[[0,null]]',
        '"cells":[[9223372036854775808,1]]',
        '"cells":[[-9223372036854775809,1]]',
        '"cells":[[0,0]]',
        '"cells":[[0,2]]',
        '"cells":[[0,-2]]',
        '"cells":[[0,257]]',
        '"cells":[[5,1],[0,-1]]',
        '"cells":[[0,1]],"label":5',
        '"cells":[[0,1]],"label":["a"]',
]


@pytest.mark.parametrize("fields", BAD_FIELDS)
def test_reader_rejects_bad_cells_naming_the_line(fields):
    line = '{"phase":"pre","label":null,%s}\n' % fields
    with pytest.raises(ParseError) as err:
        read_dataset(io.StringIO(GOOD_LINE + line))
    assert err.value.line_no == 2


def oracle_read_line(line):
    """One line through ``json.loads`` and ``Trace.from_cells`` on its own, or
    None when the line is bad: the per-line reader the columnar one replaced."""
    try:
        payload = json.loads(line)
        cells, phase, label = payload["cells"], payload["phase"], payload["label"]
        if not isinstance(cells, list) or any(type(c) is not list or len(c) != 2 for c in cells):
            return None
        if any(type(v) is not int for c in cells for v in c):
            return None
        if label is not None and not isinstance(label, str):
            return None
        return Trace.from_cells(cells, phase=phase, label=label)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
        return None


good_lines = exportable_traces().map(lambda t: oracle_trace_line(t.phase, t.label, t.cells))
bad_lines = st.sampled_from(BAD_FIELDS).map('{{"phase":"pre","label":null,{}}}'.format) | st.sampled_from(
    ["{oops", '{"phase":"mid","label":null,"cells":[[0,1]]}', "[1, 2]"]
)


UNSORTED = '{"phase":"pre","label":null,"cells":[[5,1],[0,-1]]}'
BAD_DIRECTION = '{"phase":"pre","label":null,"cells":[[0,1],[3,0]]}'
TOO_BIG = '{"phase":"pre","label":null,"cells":[[0,1],[9223372036854775808,1]]}'
# the line ends of a trace file
NEWLINES = ["\n", "\r\n", "\r"]
# lines near the writer's form: the batch decoder must take or refuse each
# one exactly as the JSON decoder does
PINNED_GOOD_LINES = [
    '{"phase":"pre","label":null,"cells":[[-0,1]]}',
    '{"phase":"pre","label":null,"cells":[[1234567890123456789,1]]}',
    '{"phase":"pre","label":null,"cells":[[-9223372036854775808,1],[9223372036854775807,-1]]}',
    '{"phase":"pre","label":"a\\"b","cells":[[0,1]]}',
    '{"phase":"pre","label":"caf\\u00e9","cells":[[0,1]]}',
    '{"phase":"pre","label":"café","cells":[[0,1]]}',
    '{"phase": "pre", "label": null, "cells": [[0, 1], [5, -1]]}',
    '{"phase":"pre","label":null,"cells":[[0,1] ,[5,-1]]}',
    '{"cells":[[0,1]],"label":null,"phase":"post"}',
    '{"phase":"pre","label":null,"cells":[]}',
]
PINNED_BAD_LINES = [
    '{"phase":"pre","label":null,"cells":[[01,1]]}',
    '{"phase":"pre","label":null,"cells":[[1,+1]]}',
    '{"phase":"pre","label":null,"cells":[[12345678901234567890,1]]}',
    '{"phase":"pre","label":null,"cells":[[9223372036854775808,1]]}',
    '{"phase":"pre","label":"a\x01b","cells":[[0,1]]}',
    '{"phase":"pre","label":null,"cells":[[0,1],[5,-1]]]}',
]


def read_outcome(text):
    """The traces read from ``text``, or the line and text of its ParseError."""
    try:
        return read_dataset(io.StringIO(text))
    except ParseError as err:
        return err.line_no, str(err)


def json_decoder_outcome(text):
    """``read_outcome`` with every line decoded on its own by ``_decode_line``."""
    with mock.patch.object(columns_module, "_WRITER_HEAD", re.compile("(?!)")):
        return read_outcome(text)


def pinned(test):
    """Each pinned bad line between good lines, and the pinned good lines
    under every line break."""
    good = GOOD_LINE.strip()
    for line in PINNED_BAD_LINES:
        test = example([good, line, good], "\n")(test)
    for newline in NEWLINES:
        test = example([good, *PINNED_GOOD_LINES, good], newline)(test)
    return test


@given(st.lists(good_lines | bad_lines | st.just(""), max_size=10), st.sampled_from(NEWLINES))
@example([GOOD_LINE.strip(), UNSORTED, BAD_DIRECTION], "\n")
@example([GOOD_LINE.strip(), BAD_DIRECTION, UNSORTED], "\n")
@example([BAD_DIRECTION, TOO_BIG], "\n")
@example([UNSORTED, "{oops"], "\n")
# cells texts that are no cell lists alone but form one when joined by ","
@example(['{"phase":"pre","label":null,"cells":[[0,1],[5]}', '{"phase":"pre","label":null,"cells":[1]]}'], "\n")
@pinned
@settings(max_examples=300, deadline=None)
def test_reader_matches_the_per_line_oracle(lines, newline):
    text = newline.join(lines)
    outcome = read_outcome(text)
    # the same traces, or the same ParseError line and text, as the JSON decoder alone
    assert outcome == json_decoder_outcome(text)
    parsed = [(no, oracle_read_line(line)) for no, line in enumerate(lines, start=1) if line]
    first_bad = next((no for no, trace in parsed if trace is None), None)
    if first_bad is not None:
        assert isinstance(outcome, tuple) and outcome[0] == first_bad
    else:
        # == compares every field, so each trace must carry its line's metadata
        assert outcome == [trace for _, trace in parsed]


# line breaks that str.splitlines knows but a trace file does not
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("head", ['{"phase":"pre",', '{"phase": "pre", '], ids=["batch", "json"])
@pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"])
def test_a_label_may_hold_a_line_break_json_allows(tmp_path, head, brk):
    # the writer escapes these; a JSON string may also hold them raw
    path = tmp_path / "traces.ndjson"
    path.write_text(f'{head}"label":"a{brk}b","cells":[[0,1]]}}\n', encoding="utf-8")
    (trace,) = read_dataset(path)
    assert trace.label == f"a{brk}b"


@pytest.mark.parametrize("brk", OTHER_LINE_BREAKS)
def test_only_cr_and_lf_end_a_trace_line(brk):
    good = GOOD_LINE.strip()
    with pytest.raises(ParseError, match="^line 1: not JSON: Extra data$"):
        read_dataset(io.StringIO(f"{good}{brk}{good}\n"))


@given(
    st.lists(cell_lists() | st.just([]), max_size=6),
    st.sampled_from([1, 3, trace_module._BLOCK_CELLS]),
)
@settings(deadline=None)
def test_column_trace_ids_equal_each_trace_s_content_hash(cell_sets, block_cells):
    text = "".join(oracle_trace_line("pre", None, cells) + "\n" for cells in cell_sets)
    columns = read_columns(io.StringIO(text))
    # small blocks split the table between the renderings that are hashed
    with mock.patch.object(trace_module, "_BLOCK_CELLS", block_cells):
        assert compute_trace_id(columns) == [oracle_trace_id(c) for c in cell_sets]


@given(st.lists(cell_lists() | st.just([]), max_size=6), st.data())
@settings(deadline=None)
def test_column_rows_are_the_traces_of_that_range(cell_sets, data):
    lines = [oracle_trace_line("pre", f"p{i}", cells) + "\n" for i, cells in enumerate(cell_sets)]
    columns = read_columns(io.StringIO("".join(lines)))
    start = data.draw(st.integers(0, len(cell_sets)))
    stop = data.draw(st.integers(start, len(cell_sets)))
    rows = columns.rows(start, stop)
    assert rows.bounds[0] == 0 and len(rows.bounds) == len(rows) + 1
    assert rows.traces() == columns.traces()[start:stop]
    assert compute_trace_id(rows) == compute_trace_id(columns)[start:stop]


# cells texts as the writer renders them, with numbers of any size
writer_cells_texts = st.lists(
    st.tuples(st.integers(-(10**20), 10**20), st.integers(-3, 3)), min_size=1, max_size=4
).map(lambda cells: ",".join("[%d,%d]" % cell for cell in cells))


@given(writer_cells_texts | st.text("[],-+0123456789 ", max_size=24), st.data())
@example("[0,1],[-0,1]", None)
@example("[01,1]", None)
@example("[1,1]5,[2,1]", None)
@example("[1-2,1]", None)
@example("[12,3-4]", None)
@settings(max_examples=500, deadline=None)
def test_batch_cells_decoder_agrees_with_json(text, data):
    if data is not None and data.draw(st.booleans()):
        # one edit next to the writer's form
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(["", "[", "]", ",", "-", "0", "9", " "])) + text[at + 1 :]
    values = columns_module._writer_values(text.encode())
    try:
        cells = json.loads(f"[{text}]")
    except json.JSONDecodeError:
        cells = None
    pairs = bool(cells) and all(
        type(c) is list and len(c) == 2 and {type(v) for v in c} == {int} for c in cells
    )
    if values is not None:
        assert pairs and values.tolist() == [v for c in cells for v in c]
    if pairs and ",".join("[%d,%d]" % tuple(c) for c in cells) == text:
        if all(abs(v) < 10**18 for c in cells for v in c):
            # every cells text the writer renders with up to 18 digits is taken
            assert values is not None


def test_reader_accepts_the_int64_range():
    line = '{"phase":"post","label":"a","cells":[[%d,-1],[%d,1]]}' % (INT64_MIN, INT64_MAX)
    (trace,) = read_dataset(io.StringIO(line))
    assert trace.cells == ((INT64_MIN, -1), (INT64_MAX, 1))
    assert trace_id(trace) == oracle_trace_id(trace.cells)


def test_reader_rejects_deep_nesting_and_bad_utf8(tmp_path):
    with pytest.raises(ParseError) as err:
        read_dataset(io.StringIO(GOOD_LINE + "[" * 100_000))
    assert err.value.line_no == 2
    path = tmp_path / "traces.ndjson"
    path.write_bytes(GOOD_LINE.encode() * 2 + b'{"phase":"\xff"}\n')
    with pytest.raises(ParseError) as err:
        read_dataset(path)
    assert err.value.line_no == 3


trace_like_lines = st.fixed_dictionaries(
    {
        "phase": st.sampled_from(["pre", "post"]) | json_values,
        "label": labels | json_values,
        "cells": st.lists(st.lists(timestamps_strategy | json_values, max_size=3), max_size=4)
        | json_values,
    }
).map(json.dumps)
arbitrary_lines = st.text(max_size=40) | json_values.map(json.dumps) | trace_like_lines


@given(st.lists(arbitrary_lines, max_size=4))
@settings(max_examples=500, deadline=None)
def test_reader_fuzz_lets_only_guardsift_errors_escape(lines):
    try:
        traces = read_dataset(io.StringIO("\n".join(lines)))
    except GuardsiftError:
        return
    for trace in traces:
        assert isinstance(trace.label, (str, type(None))) and trace.phase in ("pre", "post")
        assert set(trace.directions.tolist()) <= {1, -1}


@given(st.binary(max_size=120))
@settings(deadline=None)
def test_reader_fuzz_on_raw_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "traces.ndjson"
    path.write_bytes(data)
    try:
        read_dataset(path)
    except GuardsiftError:
        pass
