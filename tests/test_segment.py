import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import guardsift.segment as segment_module
from conftest import MS, SEC, channel_of, oracle_tail_stages
from guardsift.errors import GuardsiftError
from guardsift.segment import (
    SegmentWindow,
    extract_monitored_window,
    plan_windows,
    segment_nonmonitored,
)
from guardsift.sanitize import SanitizeConfig
from guardsift.trace import Channel, Trace
from oracles import circuit_from_cells, trace_from_cells


def oracle_plan_windows(channel):
    """Brute-force window plan: rescan every circuit for each opener."""
    circuits = sorted(channel.circuits.values(), key=lambda c: c.start_ts)
    consumed: set[int] = set()
    windows: list[SegmentWindow] = []
    for circuit in circuits:
        if circuit.circuit_id in consumed:
            continue
        t_start, t_end = circuit.start_ts, int(circuit.timestamps[-1])
        overlapping = frozenset(
            other.circuit_id
            for other in circuits
            if other.circuit_id not in consumed
            and other.start_ts <= t_end
            and other.timestamps[-1] >= t_start
        )
        consumed.update(overlapping)
        windows.append(SegmentWindow(channel.channel_id, t_start, t_end, overlapping))
    return windows


def empty_window(channel_id, start, end):
    """The message of a monitored window with no usable cells, as a pattern."""
    return rf"^channel {channel_id}: window \[{start}, {end}\] has no usable outgoing-aligned cells$"


def circuit_at(circuit_id, timestamps, directions=None):
    """Circuit with one cell per timestamp, in the order given."""
    directions = directions or [1 if i % 2 == 0 else -1 for i in range(len(timestamps))]
    return circuit_from_cells(circuit_id, zip(timestamps, directions))


@st.composite
def small_channels(draw, max_circuits=12, sorted_cells=True):
    """Channels on a coarse time grid, so ties, touches and nesting are common.

    Circuit ids are a shuffled range, so dict order, id order and start
    order all differ. Cells inside a circuit are time-sorted, or with
    ``sorted_cells=False`` only the first and last cell are in place.
    """
    n = draw(st.integers(1, max_circuits))
    ids = draw(st.permutations(range(100, 100 + n)))
    circuits = []
    for circuit_id in ids:
        start = draw(st.integers(0, 20)) * 10 * MS
        stamps = sorted(
            [start] + draw(st.lists(st.integers(0, 8).map(lambda k: start + k * 10 * MS), max_size=6))
        )
        if not sorted_cells and len(stamps) > 2:
            stamps[1:-1] = draw(st.permutations(stamps[1:-1]))
        directions = draw(st.lists(st.sampled_from([1, -1]), min_size=len(stamps), max_size=len(stamps)))
        circuits.append(circuit_at(circuit_id, stamps, directions))
    return channel_of(*circuits, channel_id=draw(st.integers(1, 5)))


def window_tuples(windows):
    return [(w.channel_id, w.t_start, w.t_end, w.consumed_circuit_ids) for w in windows]


def spanning_circuit(circuit_id, start_s, end_s, channel_id=1, n=40, lead=1):
    """Circuit with n cells spread over [start_s, end_s]."""
    step = max(int((end_s - start_s) * SEC) // max(n - 1, 1), 1)
    cells = []
    t = int(start_s * SEC)
    for i in range(n):
        d = lead if i == 0 else (1 if i % 3 == 0 else -1)
        cells.append((t, d))
        t += step
    cells[-1] = (int(end_s * SEC), cells[-1][1])
    return circuit_from_cells(circuit_id, cells)


class TestMonitoredWindow:
    def test_merges_overlapping_circuits(self):
        ch = channel_of(
            spanning_circuit(1, 0, 10), spanning_circuit(2, 5, 9), channel_id=3
        )
        (trace,) = extract_monitored_window(ch, 0, 10 * SEC, label="p").traces()
        # both circuits contribute, time-sorted, teardown pair removed
        assert len(trace.cells) == 80 - 2
        assert all(b >= a for (a, _), (b, _) in zip(trace.cells, trace.cells[1:]))
        assert trace.label == "p"

    def test_leading_incoming_dropped(self):
        cells = [(i * MS, -1) for i in range(3)]
        cells += [((3 + i) * MS, 1) for i in range(10)]
        ch = channel_of(circuit_from_cells(1, cells))
        (trace,) = extract_monitored_window(ch, 0, SEC).traces()
        assert trace.cells[0] == (0, 1)
        assert len(trace.cells) == 8

    def test_empty_window_raises(self):
        ch = channel_of(spanning_circuit(1, 100, 200))
        with pytest.raises(GuardsiftError, match=empty_window(1, 0, SEC)):
            extract_monitored_window(ch, 0, SEC)

    def test_no_outgoing_raises(self):
        cells = [(i * MS, -1) for i in range(10)]
        ch = channel_of(circuit_from_cells(1, cells))
        with pytest.raises(GuardsiftError, match=empty_window(1, 0, SEC)):
            extract_monitored_window(ch, 0, SEC)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            extract_monitored_window(channel_of(spanning_circuit(1, 0, 1)), 5, 5)


class TestGreedySegmentation:
    def test_single_circuit_single_trace(self):
        ch = channel_of(spanning_circuit(1, 0, 10))
        traces = segment_nonmonitored(ch)
        assert len(traces) == 1

    def test_overlap_consumed_into_one_window(self):
        ch = channel_of(
            spanning_circuit(1, 0, 10, n=20), spanning_circuit(2, 5, 20, n=20)
        )
        windows = plan_windows(ch)
        assert len(windows) == 1
        assert windows[0].consumed_circuit_ids == {1, 2}
        traces = segment_nonmonitored(ch).traces()
        assert len(traces) == 1
        # circuit 2 cells beyond the window are dropped, not reused
        in_window = int((ch.circuits[2].timestamps <= 10 * SEC).sum())
        assert len(traces[0].cells) == 20 + in_window - 2

    def test_disjoint_circuits_two_windows(self):
        ch = channel_of(
            spanning_circuit(1, 0, 10, n=20), spanning_circuit(3, 30, 40, n=20)
        )
        assert len(plan_windows(ch)) == 2
        assert len(segment_nonmonitored(ch)) == 2

    def test_touching_endpoints_count_as_overlap(self):
        ch = channel_of(
            spanning_circuit(1, 0, 10, n=4), spanning_circuit(2, 10, 15, n=4)
        )
        windows = plan_windows(ch)
        assert len(windows) == 1
        assert windows[0].consumed_circuit_ids == {1, 2}

    def test_consumption_is_a_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            circuits = []
            for cid in range(int(rng.integers(1, 8))):
                start = float(rng.uniform(0, 60))
                circuits.append(
                    spanning_circuit(cid, start, start + float(rng.uniform(1, 30)), n=int(rng.integers(4, 30)))
                )
            ch = channel_of(*circuits)
            windows = plan_windows(ch)
            consumed = [cid for w in windows for cid in w.consumed_circuit_ids]
            assert sorted(consumed) == sorted(ch.circuits)

    def test_every_trace_starts_outgoing(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            circuits = []
            for cid in range(int(rng.integers(1, 6))):
                start = float(rng.uniform(0, 40))
                lead = 1 if rng.random() < 0.5 else -1
                circuits.append(
                    spanning_circuit(cid, start, start + float(rng.uniform(1, 20)), n=int(rng.integers(4, 25)), lead=lead)
                )
            for trace in segment_nonmonitored(channel_of(*circuits)).traces():
                assert trace.cells[0][1] == 1

    def test_empty_channel(self):
        assert len(segment_nonmonitored(Channel(1))) == 0

    def test_single_circuit_matches_sanitizer_modulo_handshake(self):
        # one circuit, built by hand: handshake, long idle, 300-cell load
        # spread over ~8 s, a qualifying shutdown tail, then teardown
        from guardsift.sanitize import SanitizeConfig, trim_head
        from oracles import trim_tail

        cells = [(0, 1), (60 * MS, -1)]
        t = 30 * SEC
        for i in range(300):
            cells.append((t, 1 if i % 5 == 0 else -1))
            t += 27 * MS
        t += 6 * SEC
        for i in range(20):
            cells.append((t, 1 if i == 0 else -1))
            t += 10 * MS
        cells.append((t + 500 * MS, 1))
        cells.append((t + 510 * MS, -1))
        circuit = circuit_from_cells(9, cells)
        channel = channel_of(circuit)

        seg_traces = segment_nonmonitored(channel).traces()
        assert len(seg_traces) == 1
        sanitized = trim_tail(Trace(*trim_head(circuit, "pre"), phase="pre"), SanitizeConfig())
        # the segmentation view keeps the two handshake cells; after them
        # the two paths carry identical inter-arrival structure
        seg_tail = seg_traces[0].cells[2:]
        base = seg_tail[0][0]
        assert tuple((ts - base, d) for ts, d in seg_tail) == sanitized.cells


class TestPlannerAgainstOracle:
    @given(small_channels())
    @settings(max_examples=200, deadline=None)
    def test_sweep_equals_oracle(self, channel):
        assert window_tuples(plan_windows(channel)) == window_tuples(oracle_plan_windows(channel))

    @pytest.mark.parametrize(
        "circuits, expected",
        [
            # equal starts: the first-listed opener takes every tied circuit
            ([(1, [0, 50]), (2, [0, 10]), (3, [0, 90])], [{1, 2, 3}]),
            # touching endpoints chain only from the opener, not transitively
            ([(1, [0, 10]), (2, [10, 20]), (3, [20, 30])], [{1, 2}, {3}]),
            # nested circuits are consumed by the enclosing one
            ([(1, [0, 100]), (2, [10, 20]), (3, [30, 40]), (4, [101, 120])], [{1, 2, 3}, {4}]),
            # single-cell circuits are zero-length windows
            ([(1, [5]), (2, [5]), (3, [6]), (4, [6, 9])], [{1, 2}, {3, 4}]),
            # a long second circuit does not extend the opener's window
            ([(1, [0, 10]), (2, [5, 500]), (3, [11, 12])], [{1, 2}, {3}]),
        ],
        ids=["equal-starts", "touching", "nested", "single-cell", "no-extension"],
    )
    def test_edge_cases(self, circuits, expected):
        channel = channel_of(*(circuit_at(cid, [t * MS for t in ts]) for cid, ts in circuits))
        windows = plan_windows(channel)
        assert [set(w.consumed_circuit_ids) for w in windows] == expected
        assert window_tuples(windows) == window_tuples(oracle_plan_windows(channel))

    @given(small_channels(max_circuits=8))
    @settings(max_examples=200, deadline=None)
    def test_segmentation_unchanged_with_oracle_plan(self, channel):
        # cells on the coarse grid tie across circuits, often with opposite
        # directions; their order in the output must not depend on the planner
        expected_windows = oracle_plan_windows(channel)
        traces = segment_nonmonitored(channel).traces()
        original = segment_module.plan_windows
        segment_module.plan_windows = lambda ch: expected_windows
        try:
            expected = segment_nonmonitored(channel).traces()
        finally:
            segment_module.plan_windows = original
        assert [(t.cells, t.label) for t in traces] == [(t.cells, t.label) for t in expected]

    def test_tied_opposite_directions_keep_circuit_id_order(self):
        # two circuits share every timestamp with opposite directions; the
        # merged trace lists the lower circuit id's cell first at each tie
        stamps = [0, 10 * MS, 20 * MS, 30 * MS, 40 * MS, 50 * MS]
        channel = channel_of(
            circuit_at(9, stamps, [-1, -1, 1, -1, 1, -1]),
            circuit_at(4, stamps, [1, 1, -1, 1, -1, 1]),
        )
        (trace,) = segment_nonmonitored(channel).traces()
        assert [d for _, d in trace.cells] == [1, -1, 1, -1, -1, 1, 1, -1, -1, 1]

    def test_circuit_ending_before_it_starts_is_named(self):
        channel = channel_of(
            circuit_at(3, [0, 10 * MS]), circuit_at(5, [3000, 1000], [1, -1]), channel_id=8
        )
        with pytest.raises(
            GuardsiftError, match="^channel 8: circuit 5 ends at 1000 ns, before its first cell at 3000 ns$"
        ):
            plan_windows(channel)


# --- the array segmentation against the per-cell loops it replaced -------------


def reference_finish_segment(cells, config, label):
    start = next((i for i, (_, d) in enumerate(cells) if d == 1), None)
    if start is None:
        return None
    cells = cells[start:]
    base = cells[0][0]
    cells, _ = oracle_tail_stages([(ts - base, d) for ts, d in cells], config)
    if not cells:
        return None
    return trace_from_cells(cells, phase="pre", label=label)


def circuit_cells(circuit):
    return list(zip(circuit.timestamps.tolist(), circuit.directions.tolist()))


def reference_extract_monitored_window(channel, visit_start, visit_end, config, label=None):
    """Record-loop version: every channel cell in the window, stably time-sorted."""
    cells = [
        cell
        for circuit in channel.circuits.values()
        for cell in circuit_cells(circuit)
        if visit_start <= cell[0] <= visit_end
    ]
    cells.sort(key=lambda c: c[0])
    return reference_finish_segment(cells, config, label)


def reference_segment_nonmonitored(channel, config):
    """Record-loop version: per window, consumed circuits in id order, stably time-sorted."""
    traces = []
    for window in plan_windows(channel):
        cells = [
            cell
            for circuit_id in sorted(window.consumed_circuit_ids)
            for cell in circuit_cells(channel.circuits[circuit_id])
            if window.t_start <= cell[0] <= window.t_end
        ]
        cells.sort(key=lambda c: c[0])
        trace = reference_finish_segment(cells, config, None)
        if trace is not None:
            traces.append(trace)
    return traces


def trace_fields(trace):
    return (trace.cells, trace.phase, trace.label)


# small thresholds so tail pruning, the duration cap and the length cap all bite
segment_configs = st.builds(
    SanitizeConfig,
    tail_gap_ns=st.sampled_from([10 * MS, 20 * MS, 5 * SEC]),
    max_tail_cells=st.integers(1, 4),
    max_tail_duration_ns=st.sampled_from([0, 10 * MS, 50 * MS]),
    duration_cap_ns=st.sampled_from([None, 0, 30 * MS, 60 * MS]),
    max_len=st.integers(1, 8),
)


class TestSegmentationAgainstReference:
    @given(small_channels(sorted_cells=False), segment_configs)
    @settings(max_examples=300, deadline=None)
    def test_nonmonitored_equals_reference(self, channel, config):
        got = segment_nonmonitored(channel, config).traces()
        assert [trace_fields(t) for t in got] == [
            trace_fields(t) for t in reference_segment_nonmonitored(channel, config)
        ]

    @given(
        small_channels(sorted_cells=False),
        segment_configs,
        st.integers(0, 28).map(lambda k: k * 10 * MS),
        st.integers(1, 12).map(lambda k: k * 10 * MS),
    )
    @settings(max_examples=300, deadline=None)
    def test_monitored_window_equals_reference(self, channel, config, start, length):
        # window edges sit on the cell grid, so cells fall exactly on them
        expected = reference_extract_monitored_window(channel, start, start + length, config, "p")
        if expected is None:
            message = empty_window(channel.channel_id, start, start + length)
            with pytest.raises(GuardsiftError, match=message):
                extract_monitored_window(channel, start, start + length, config, "p")
        else:
            got = extract_monitored_window(channel, start, start + length, config, "p")
            assert [trace_fields(t) for t in got.traces()] == [trace_fields(expected)]
