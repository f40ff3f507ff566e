import csv
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import MS, SEC, duration_ns, json_values, oracle_trace_id, oracle_trace_line, run_fresh
import guardsift.features as features_module
from guardsift.cli import main
from guardsift.errors import GuardsiftError, ParseError
from guardsift.features import (
    FeatureBlocks,
    build_tam,
    default_t_max,
    direction_sequence,
    directional_timing,
    read_features,
    write_features,
)
from guardsift.columns import read_columns
from guardsift.trace import OUTGOING, Trace, TraceColumns, read_dataset, write_dataset


def trace_of(cells):
    return Trace.from_cells(tuple(cells))


def trace_lines(traces):
    return "".join(oracle_trace_line(t.phase, t.label, t.cells) + "\n" for t in traces)


def columns_of(traces):
    """The traces as ``read_columns`` decodes them from their NDJSON lines."""
    return read_columns(io.StringIO(trace_lines(traces)))


def build_rows(kind, columns, length=8, t_max_s=2.0, n_slots=4):
    """The ``kind`` builder run once over the whole table. Direction and
    timing buffers start out non-zero, so a builder must zero them."""
    if kind == "tam":
        return build_tam(columns, int(round(t_max_s * SEC)), n_slots)
    buffer = np.full((len(columns), length), 7, np.int8 if kind == "direction" else np.float64)
    builder = direction_sequence if kind == "direction" else directional_timing
    assert builder(columns, buffer) is buffer
    return buffer


def row_of(kind, cells, *args):
    """The ``kind`` row of one trace, built over a one-row table."""
    return build_rows(kind, TraceColumns.from_traces([trace_of(cells)]), *args)[0]


def feature_matrix(columns, kind, *args):
    """Every block of ``FeatureBlocks`` stacked, plus the header metadata.
    The blocks share one buffer, so each is copied before the next is filled."""
    blocks = FeatureBlocks(columns, kind, *args)
    empty = np.empty((0, *blocks.shape[1:]), blocks.dtype)
    return np.concatenate([empty] + [block.copy() for block in blocks]), blocks.meta


# --- brute-force references: per-cell loops over one trace ---


def reference_direction(trace, length):
    out = np.zeros(length, dtype=np.int8)
    for i, (_, d) in enumerate(trace.cells[:length]):
        out[i] = d
    return out


def reference_timing(trace, length):
    out = np.zeros(length, dtype=np.float64)
    for i, (ts, d) in enumerate(trace.cells[:length]):
        out[i] = (ts / SEC) * d
    return out


def reference_tam(trace, t_max_s, n_slots):
    t_max_ns = int(round(t_max_s * SEC))
    matrix = np.zeros((2, n_slots), dtype=np.int64)
    for ts, d in trace.cells:
        if not 0 <= ts <= t_max_ns:
            continue
        slot = min(ts * n_slots // t_max_ns, n_slots - 1)
        matrix[0 if d == OUTGOING else 1, slot] += 1
    return matrix


REFERENCES = {"direction": reference_direction, "timing": reference_timing}


def reference_rows(kind, traces, length=8, t_max_s=2.0, n_slots=4):
    """The per-cell reference row of each trace, stacked."""
    if kind == "tam":
        rows = [reference_tam(t, t_max_s, n_slots) for t in traces]
        return np.stack(rows) if rows else np.zeros((0, 2, n_slots), np.int64)
    rows = [REFERENCES[kind](t, length) for t in traces]
    dtype = np.int8 if kind == "direction" else np.float64
    return np.stack(rows) if rows else np.zeros((0, length), dtype)


def same_bytes(got, want):
    """Equal dtype, shape and bits, so -0.0 and 0.0 are told apart."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def cells_and_horizon(draw):
    """Sorted cells plus a TAM horizon, with cells on and just past t_max."""
    t_max_s = draw(st.sampled_from([1e-9, 0.5, 2.0, 45.0, 80.0, 1e6]))
    n_slots = draw(st.integers(1, 64))
    t_max_ns = int(round(t_max_s * SEC))
    ts = st.one_of(st.integers(0, 2 * t_max_ns + 2), st.sampled_from([0, t_max_ns, t_max_ns + 1]))
    raw = draw(st.lists(st.tuples(ts, st.sampled_from([1, -1])), max_size=80))
    # past 2**53 ns the int64 -> float64 cast rounds, so shift some traces there
    offset = draw(st.one_of(st.just(0), st.integers(2**53, 2**62)))
    cells = sorted((t + offset, d) for t, d in raw)
    return tuple(cells), t_max_s, n_slots


@given(cells_and_horizon(), st.integers(1, 100))
@settings(max_examples=300, deadline=None)
def test_numpy_builders_equal_references(case, length):
    cells, t_max_s, n_slots = case
    # the trace between an empty one and a copy, so its cells are not the table's first
    traces = [trace_of([]), trace_of(cells), trace_of(cells)]
    columns = TraceColumns.from_traces(traces)
    for kind in ("direction", "timing", "tam"):
        got = build_rows(kind, columns, length, t_max_s, n_slots)
        assert same_bytes(got, reference_rows(kind, traces, length, t_max_s, n_slots))


@st.composite
def trace_batches(draw):
    """Traces for one feature matrix plus a TAM horizon: empty, single-cell
    and long traces, some shifted before 0 (outside the TAM) or past 2**53 ns."""
    t_max_s = draw(st.sampled_from([1e-9, 0.5, 2.0, 45.0]))
    n_slots = draw(st.integers(1, 16))
    t_max_ns = int(round(t_max_s * SEC))
    ts = st.integers(0, 2 * t_max_ns + 2) | st.sampled_from([0, t_max_ns, t_max_ns + 1])
    offsets = st.sampled_from([0, -t_max_ns - 1, -(2**62)]) | st.integers(2**53 - t_max_ns, 2**62)
    traces = []
    for _ in range(draw(st.integers(0, 6))):
        raw = draw(st.lists(st.tuples(ts, st.sampled_from([1, -1])), max_size=12))
        offset = draw(offsets)
        cells = sorted((t + offset, d) for t, d in raw)
        traces.append(Trace.from_cells(cells, label=draw(st.none() | st.just("a.example"))))
    return traces, t_max_s, n_slots


@given(
    trace_batches(),
    st.integers(1, 12),
    st.sampled_from([1, 2, 5, 1 << 13]),
    st.sampled_from([1, 100, 1 << 22]),
)
@example(
    (
        [
            trace_of([(2**53 + 1, -1)]),
            trace_of([(-SEC, 1), (0, -1), (SEC, 1)]),
            trace_of([(-(2**62) - 5, 1), (2**62 + 5, -1)]),  # lasts longer than int64 holds
            trace_of([(i * MS, 1 if i % 3 else -1) for i in range(20)]),
            trace_of([]),
        ],
        2.0,
        4,
    ),
    8,
    3,
    1,
)
@settings(max_examples=300, deadline=None)
def test_feature_matrix_on_columns_equals_per_trace_builders(
    batch, length, block_cells, block_bytes
):
    traces, t_max_s, n_slots = batch
    columns = columns_of(traces)
    # small cell blocks split traces between the steps that place cells, and
    # small byte budgets split the rows between blocks of the one buffer
    with (
        mock.patch.object(features_module, "_BLOCK_CELLS", block_cells),
        mock.patch.object(features_module, "_BLOCK_BYTES", block_bytes),
    ):
        for kind in ("direction", "timing", "tam"):
            array, _ = feature_matrix(columns, kind, length, t_max_s, n_slots)
            assert same_bytes(array, reference_rows(kind, traces, length, t_max_s, n_slots))
    if traces:
        assert default_t_max(columns) == max(map(duration_ns, traces)) / SEC


class TestDirectionSequence:
    def test_padding(self):
        assert row_of("direction", [(0, 1), (MS, -1)], 4).tolist() == [1, -1, 0, 0]

    def test_truncation(self):
        assert row_of("direction", [(i, 1) for i in range(6000)], 5000).shape == (5000,)

    def test_empty_trace_all_zero(self):
        assert row_of("direction", [], 16).sum() == 0


class TestDirectionalTiming:
    def test_sign_convention(self):
        assert row_of("timing", [(0, 1), (2 * SEC, -1)], 3).tolist() == [0.0, -2.0, 0.0]

    def test_sign_agreement_with_direction_sequence(self):
        cells = [(i * MS, 1 if i % 3 else -1) for i in range(1, 40)]
        dirs = row_of("direction", cells, 64)
        timing = row_of("timing", cells, 64)
        for i in range(1, 39):  # index 0 has timestamp > 0 here, skip padded ones
            assert np.sign(timing[i]) == np.sign(dirs[i])


class TestTam:
    def test_slot_duration(self):
        blocks = FeatureBlocks(columns_of([trace_of([(0, 1)])]), "tam", t_max_s=80.0, n_slots=1800)
        assert 0.0444 <= blocks.meta["slot_duration_s"] <= 0.0445

    def test_empty_trace_zero_matrix(self):
        assert row_of("tam", [], 0, 10.0, 20).sum() == 0

    def test_single_incoming_cell_at_zero(self):
        tam = row_of("tam", [(0, -1)], 0, 10.0, 20)
        assert tam[1][0] == 1
        assert tam.sum() == 1

    def test_boundary_cell_clamps_into_last_slot(self):
        assert row_of("tam", [(10 * SEC, 1)], 0, 10.0, 10)[0][9] == 1

    def test_cells_past_horizon_dropped(self):
        assert row_of("tam", [(0, 1), (11 * SEC, 1)], 0, 10.0, 10).sum() == 1

    def test_row_sums_match_direction_counts(self):
        cells = [(i * 7 * MS, 1 if i % 2 else -1) for i in range(500)]
        tam = row_of("tam", cells, 0, 5.0, 64)
        in_range = [c for c in cells if c[0] <= 5 * SEC]
        assert tam[0].sum() == sum(1 for _, d in in_range if d == 1)
        assert tam[1].sum() == sum(1 for _, d in in_range if d == -1)

    @given(st.lists(st.tuples(st.integers(0, 90 * SEC), st.sampled_from([1, -1])), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_coarsening_preserves_structure(self, raw):
        cells = tuple(sorted(raw, key=lambda c: c[0]))
        fine = row_of("tam", cells, 0, 80.0, 64)
        coarse = row_of("tam", cells, 0, 80.0, 32)
        # adjacent slot pairs of 64 slots sum to the 32 slots
        assert np.array_equal(fine.reshape(2, 32, 2).sum(axis=2), coarse)
        assert fine.sum() == coarse.sum()


class TestSlotSweep:
    def test_default_t_max_is_longest(self):
        traces = [trace_of([(0, 1), (3 * SEC, -1)]), trace_of([(0, 1), (9 * SEC, 1)])]
        assert default_t_max(columns_of(traces)) == 9.0


class TestFeatureMatrix:
    def test_incoming_cell_at_zero_keeps_negative_zero(self):
        array, meta = feature_matrix(columns_of([trace_of([(0, -1), (SEC, 1)])]), "timing", 3)
        assert np.signbit(array[0, 0]) and array[0, 0] == 0.0
        assert meta == {"kind": "timing", "length": 3}

    def test_cells_before_zero_are_outside_the_tam(self):
        tam = row_of("tam", [(-SEC, 1), (0, 1)], 0, 10.0, 10)
        assert tam[0].tolist() == [1] + [0] * 9

    @pytest.mark.parametrize(
        "t_max_s, n_slots",
        [(0.0, 4), (-1.0, 4), (float("inf"), 4), (float("nan"), 4), (1e-12, 4), (10.0, 0),
         (1e10, 1800), (1e300, 1)],  # the last two overflow t_max_ns * n_slots in int64
    )
    def test_bad_tam_settings_rejected(self, t_max_s, n_slots):
        with pytest.raises(ValueError):
            FeatureBlocks(columns_of([trace_of([(0, 1)])]), "tam", t_max_s=t_max_s, n_slots=n_slots)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FeatureBlocks(columns_of([trace_of([(0, 1)])]), "sizes")


def _edge_case_traces():
    """Longer than --length, a cell on t_max, cells past it, incoming at t=0."""
    t_max = 2 * SEC
    return [
        Trace.from_cells(tuple((i * 100 * MS, 1 if i % 3 else -1) for i in range(12)), label="a.example"),
        Trace.from_cells(((0, -1), (t_max // 3, 1), (t_max, 1), (t_max + 1, -1), (3 * t_max, 1))),
        Trace.from_cells(((0, 1), (5 * MS, -1)), label="b.example"),
    ]


@pytest.mark.parametrize("kind", ["direction", "timing", "tam"])
def test_featurize_cli_matches_per_trace_builders(tmp_path, kind):
    traces_path = tmp_path / "traces.ndjson"
    write_dataset(TraceColumns.from_traces(_edge_case_traces()), 3, traces_path)
    traces = read_dataset(traces_path)
    want = reference_rows(kind, traces)
    outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"run{run}"
        assert main([
            "featurize", "--in", str(traces_path), "--out", str(out), "--kind", kind,
            "--length", "8", "--t-max-s", "2", "--n-slots", "4",
        ]) == 0
        array, _ = read_features(out / "features.bin")
        assert same_bytes(array, want)
        names = ("features.bin", "features.bin.json", "labels.csv")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    labels = (tmp_path / "run1" / "labels.csv").read_text().splitlines()[1:]
    assert labels == [f"{oracle_trace_id(t.cells)},{t.label or ''}" for t in traces]


def test_labels_csv_quotes_labels_that_hold_csv_syntax(tmp_path):
    labels = ["a,b", "c\nd", "e\rf", 'g"h', "plain", None]
    traces = [Trace.from_cells(((0, 1), (i * MS, -1)), label=label) for i, label in enumerate(labels, 1)]
    traces_path = tmp_path / "traces.ndjson"
    traces_path.write_text(trace_lines(traces))
    assert main(["featurize", "--in", str(traces_path), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "labels.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["trace_id", "label"]] + [
        [oracle_trace_id(t.cells), t.label or ""] for t in traces
    ]
    # a label without "," '"' "\r" or "\n" is written as it is
    tail = f"\n{oracle_trace_id(traces[4].cells)},plain\n{oracle_trace_id(traces[5].cells)},\n"
    assert (tmp_path / "out" / "labels.csv").read_bytes().endswith(tail.encode())


@pytest.mark.parametrize("kind", ["direction", "timing", "tam"])
def test_featurize_outputs_do_not_depend_on_the_block_size(tmp_path, kind):
    # 7 rows, which blocks of 3 do not divide, with an empty trace and one
    # longer than --length
    traces = _edge_case_traces() * 2 + [trace_of([])]
    traces_path = tmp_path / "traces.ndjson"
    traces_path.write_text(trace_lines(traces))
    flags = ["--kind", kind, "--length", "8", "--t-max-s", "2", "--n-slots", "4", "--csv"]
    row_bytes = {"direction": 8, "timing": 8 * 8, "tam": 2 * 4 * 8}[kind]
    outputs = {}
    for rows_per_block in (1, 3, len(traces)):
        out = tmp_path / f"rows-{rows_per_block}"
        with mock.patch.object(features_module, "_BLOCK_BYTES", rows_per_block * row_bytes):
            blocks = FeatureBlocks(columns_of(traces), kind, 8, 2.0, 4)
            assert blocks.block_rows == rows_per_block
            assert main(["featurize", "--in", str(traces_path), "--out", str(out), *flags]) == 0
        names = ("features.bin", "features.bin.json", "labels.csv", "features.csv")
        outputs[rows_per_block] = [(out / name).read_bytes() for name in names]
    assert outputs[1] == outputs[3] == outputs[len(traces)]
    csv_lines = outputs[1][3].decode().splitlines()
    assert len(csv_lines) == len(traces) and csv_lines[-1] == ",".join(["0"] * 8)


# counts the calls of each builder and of the id hash, wrapped on their modules
# before the command runs, as a tracing harness wraps them from outside
WRAPPED_FEATURIZE = """
import json, sys
from collections import Counter
import guardsift.features, guardsift.trace
from guardsift.cli import main

calls = Counter()

def wrap(module, name):
    real = getattr(module, name)
    def counting(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    setattr(module, name, counting)

for name in ("direction_sequence", "directional_timing", "build_tam"):
    wrap(guardsift.features, name)
wrap(guardsift.trace, "compute_trace_id")
assert main(sys.argv[1:]) == 0
print(json.dumps(calls))
"""


@pytest.mark.parametrize(
    "kind, builder",
    [("direction", "direction_sequence"), ("timing", "directional_timing"), ("tam", "build_tam")],
)
def test_featurize_runs_the_wrapped_builders_and_id_hash(tmp_path, kind, builder):
    traces_path = tmp_path / "traces.ndjson"
    write_dataset(TraceColumns.from_traces(_edge_case_traces() * 3), 3, traces_path)
    flags = ["--in", str(traces_path), "--kind", kind, "--length", "8", "--t-max-s", "2", "--n-slots", "4", "--csv"]
    proc = run_fresh(["-c", WRAPPED_FEATURIZE, "featurize", "--out", "wrapped", *flags], tmp_path)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert calls[builder] >= 1
    assert calls["compute_trace_id"] == 1
    assert set(calls) == {builder, "compute_trace_id"}
    assert main(["featurize", "--out", str(tmp_path / "plain"), *flags]) == 0
    for name in ("features.bin", "features.bin.json", "features.csv", "labels.csv"):
        assert (tmp_path / "wrapped" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_featurize_tam_without_t_max_spans_the_longest_trace(tmp_path):
    traces_path = tmp_path / "traces.ndjson"
    write_dataset(TraceColumns.from_traces(_edge_case_traces()), 3, traces_path)
    traces = read_dataset(traces_path)
    t_max_s = max(map(duration_ns, traces)) / SEC
    out = tmp_path / "out"
    assert main([
        "featurize", "--in", str(traces_path), "--out", str(out), "--kind", "tam", "--n-slots", "4",
    ]) == 0
    array, meta = read_features(out / "features.bin")
    assert meta["t_max_s"] == t_max_s
    assert same_bytes(array, reference_rows("tam", traces, 0, t_max_s, 4))


def test_feature_dump_roundtrip(tmp_path):
    columns = columns_of(_edge_case_traces())
    blocks = FeatureBlocks(columns, "tam", t_max_s=2.0, n_slots=4)
    write_features(tmp_path / "f.bin", blocks)
    back, header = read_features(tmp_path / "f.bin")
    assert same_bytes(back, feature_matrix(columns, "tam", 5000, 2.0, 4)[0])
    assert header == {
        "shape": [3, 2, 4], "dtype": "int64", "kind": "tam", "t_max_s": 2.0, "n_slots": 4,
        "slot_duration_s": 0.5,
    }


feature_headers = json_values | st.fixed_dictionaries(
    {
        "shape": json_values | st.lists(st.integers(-2, 4), max_size=3),
        "dtype": json_values
        | st.sampled_from(["int8", "int64", "<f8", "O", "M8", "i4,i4", "(2,)i4"]),
    }
)


@given(feature_headers.map(json.dumps) | st.text(max_size=20), st.binary(max_size=64))
@example(json.dumps({"shape": [1], "dtype": "(,)i4"}), b"\0" * 4)
@example(json.dumps({"shape": [1], "dtype": "1 1"}), b"\0" * 4)
@settings(max_examples=300, deadline=None)
def test_read_features_fuzz_lets_only_guardsift_errors_escape(tmp_path_factory, header, data):
    path = tmp_path_factory.mktemp("features") / "features.bin"
    path.write_bytes(data)
    path.with_suffix(".bin.json").write_text(header, encoding="utf-8")
    try:
        array, meta = read_features(path)
    except GuardsiftError:
        return
    assert array.nbytes == len(data) and list(array.shape) == meta["shape"]


def test_read_features_rejects_a_shape_the_data_does_not_fill(tmp_path):
    blocks = FeatureBlocks(columns_of([trace_of([(0, 1)])]), "direction", 6)
    write_features(tmp_path / "f.bin", blocks)
    header = tmp_path / "f.bin.json"
    header.write_text(header.read_text().replace("[1, 6]", "[1, 7]"))
    with pytest.raises(ParseError, match="does not match the 6 bytes"):
        read_features(tmp_path / "f.bin")
