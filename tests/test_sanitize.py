from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    MS,
    SEC,
    channel_of,
    circuit_from_dirs,
    oracle_prune_close_tail,
    oracle_tail_stages,
)
from guardsift.errors import ConfigError, GuardsiftError
from guardsift.ingest import PageVisitRecord
from guardsift.sanitize import (
    CONFLUX,
    INVALID,
    NON_CONFLUX,
    SanitizeConfig,
    cap_tail,
    compute_duration_cap,
    detect_spam_channels,
    group_visits,
    prune_close_tail,
    sanitize,
    select_main_circuit,
    trim_head,
    validate_handshake_post,
    validate_handshake_pre,
)
from guardsift.trace import Channel, Stage, Trace
from oracles import TrimmedTrace, circuit_from_cells, trace_from_cells, trim_tail


def bulk_channel(channel_id, n_circuits):
    ch = Channel(channel_id)
    for i in range(n_circuits):
        ch.circuits[i] = circuit_from_cells(i, [(0, 1)])
    return ch


class TestSpamDetection:
    def test_strictly_more_than_threshold(self):
        channels = [bulk_channel(1, 10_001), bulk_channel(2, 10_000), bulk_channel(3, 1)]
        assert detect_spam_channels(channels, 10_000) == {1}

    def test_custom_threshold(self):
        assert detect_spam_channels([bulk_channel(4, 3)], threshold=2) == {4}


class TestHandshakePre:
    def test_valid_pattern(self):
        assert validate_handshake_pre(circuit_from_dirs([1, -1, 1, -1, 1]))

    def test_first_cell_must_be_outgoing(self):
        assert not validate_handshake_pre(circuit_from_dirs([-1, 1, 1, 1]))

    def test_third_cell_must_be_outgoing(self):
        assert not validate_handshake_pre(circuit_from_dirs([1, -1, -1, 1]))

    def test_too_short_is_invalid(self):
        assert not validate_handshake_pre(circuit_from_dirs([1, -1]))


class TestHandshakePost:
    def post_circuit(self, g1_ns, g2_ns, dirs=(1, -1, 1, -1, 1)):
        gaps = [50 * MS, g1_ns, 60 * MS, g2_ns]
        return circuit_from_dirs(list(dirs) + [1, -1], gaps_ns=gaps + [MS, MS])

    def test_balanced_gaps_classify_linked(self):
        circuit = self.post_circuit(80 * MS, 85 * MS)
        assert validate_handshake_post(circuit) == CONFLUX

    def test_idle_gap_classifies_plain(self):
        circuit = self.post_circuit(90 * MS, 45 * SEC)
        assert validate_handshake_post(circuit) == NON_CONFLUX

    def test_pattern_mismatch_is_invalid(self):
        circuit = self.post_circuit(80 * MS, 85 * MS, dirs=(1, -1, 1, 1, -1))
        assert validate_handshake_post(circuit) == INVALID

    def test_short_circuit_is_invalid(self):
        assert validate_handshake_post(circuit_from_dirs([1, -1, 1])) == INVALID

    def test_zero_gap_uses_floor(self):
        # both gaps tiny: ratio bounded by the 1 ms floor, still linked
        circuit = self.post_circuit(0, 0)
        assert validate_handshake_post(circuit) == CONFLUX


def visit(first_party, target, circuit_id, ts=0):
    return PageVisitRecord(first_party, ts, target, circuit_id)


class TestMainCircuitSelection:
    def test_highest_cell_count_wins(self):
        big = circuit_from_dirs([1, -1] * 250, circuit_id=1)
        small = circuit_from_dirs([1, -1] * 150, circuit_id=2)
        chosen = select_main_circuit(
            "site.example",
            [(visit("site.example", "site.example", 1), big),
             (visit("site.example", "site.example", 2), small)],
        )
        assert chosen.circuit_id == 1

    def test_onion_candidate_dropped(self):
        normal = circuit_from_dirs([1, -1] * 50, circuit_id=1)
        onion = circuit_from_dirs([1, -1] * 500, circuit_id=2)
        chosen = select_main_circuit(
            "site.example",
            [(visit("site.example", "site.example", 1), normal),
             (visit("site.example", "abc.onion", 2), onion)],
        )
        assert chosen.circuit_id == 1

    def test_redirect_candidate_dropped(self):
        normal = circuit_from_dirs([1, -1] * 50, circuit_id=1)
        redirected = circuit_from_dirs([1, -1] * 400, circuit_id=2)
        chosen = select_main_circuit(
            "site.example",
            [(visit("site.example", "site.example", 1), normal),
             (visit("other.example", "other.example", 2), redirected)],
        )
        assert chosen.circuit_id == 1

    def test_single_candidate(self):
        only = circuit_from_dirs([1, -1], circuit_id=9)
        assert select_main_circuit(
            "a.example", [(visit("a.example", "a.example", 9), only)]
        ).circuit_id == 9

    def test_no_survivor_is_none(self):
        onion = circuit_from_dirs([1, -1], circuit_id=2)
        assert select_main_circuit("a.example", [(visit("a.example", "x.onion", 2), onion)]) is None

    def test_tie_breaks_to_earliest_start(self):
        early = circuit_from_dirs([1, -1] * 10, circuit_id=1, start=100)
        late = circuit_from_dirs([1, -1] * 10, circuit_id=2, start=200)
        chosen = select_main_circuit(
            "a.example",
            [(visit("a.example", "a.example", 2), late),
             (visit("a.example", "a.example", 1), early)],
        )
        assert chosen.circuit_id == 1


class TestHeadTrim:
    def test_pre_strips_two(self):
        circuit = circuit_from_dirs([1, -1] + [1] * 8)
        timestamps, directions = trim_head(circuit, "pre")
        assert len(timestamps) == len(directions) == 8
        assert timestamps[0] == 0

    def test_post_strips_five(self):
        circuit = circuit_from_dirs([1, -1, 1, -1, 1] + [1] * 5)
        timestamps, directions = trim_head(circuit, "post")
        assert len(timestamps) == len(directions) == 5
        assert timestamps[0] == 0

    def test_post_five_cells_empties(self):
        with pytest.raises(GuardsiftError, match="^circuit 1: no cells left after head trim$"):
            trim_head(circuit_from_dirs([1, -1, 1, -1, 1]), "post")

    def test_idle_gap_removed_by_renormalization(self):
        circuit = circuit_from_dirs([1, -1, 1, 1], gaps_ns=[MS, 120 * SEC, MS])
        timestamps, directions = trim_head(circuit, "pre")
        assert (timestamps[0], directions[0]) == (0, 1)
        assert timestamps[-1] == MS


EMPTY_AFTER_TAIL_TRIM = "^trace [0-9a-f]{16}: empty after tail trim$"


def build_trace(segments, tail_trimmed=False):
    """segments: list of (count, direction, spacing_ns) appended in order."""
    cells = []
    t = 0
    for count, direction, spacing in segments:
        for _ in range(count):
            cells.append((t, direction))
            t += spacing
    trace = trace_from_cells(cells)
    return TrimmedTrace(trace.timestamps, trace.directions) if tail_trimmed else trace


class TestTailTrim:
    def config(self, **kw):
        return SanitizeConfig(**kw)

    def test_teardown_cells_removed_once(self):
        trace = build_trace([(10, 1, MS)])
        trimmed = trim_tail(trace, self.config())
        assert len(trimmed.cells) == 8
        assert isinstance(trimmed, TrimmedTrace)
        again = trim_tail(trimmed, self.config())
        assert again.cells == trimmed.cells

    def test_qualifying_tail_removed(self):
        # 200 page cells, 6 s gap, outgoing-led 50-cell quick tail, teardown pair
        cells = [(i * MS, 1 if i % 3 == 0 else -1) for i in range(200)]
        t = cells[-1][0] + 6 * SEC
        for i in range(50):
            cells.append((t, 1 if i == 0 else -1))
            t += MS
        cells += [(t + MS, 1), (t + 2 * MS, -1)]
        trimmed = trim_tail(trace_from_cells(cells), self.config())
        assert len(trimmed.cells) == 200

    def test_incoming_led_tail_kept(self):
        cells = [(i * MS, 1 if i % 3 == 0 else -1) for i in range(200)]
        t = cells[-1][0] + 6 * SEC
        for i in range(50):
            cells.append((t, -1 if i == 0 else 1))
            t += MS
        trimmed = trim_tail(trace_from_cells(cells), self.config())
        assert len(trimmed.cells) == 248

    def test_long_slow_tail_kept(self):
        cells = [(i * MS, 1) for i in range(200)]
        t = cells[-1][0] + 6 * SEC
        for i in range(120):  # >= 100 cells and >= 1 s long: not shutdown-like
            cells.append((t, 1))
            t += 12 * MS
        trimmed = trim_tail(trace_from_cells(cells), self.config())
        assert len(trimmed.cells) == 200 + 120 - 2

    def test_length_cap(self):
        trace = build_trace([(6000, 1, MS)])
        trimmed = trim_tail(trace, self.config())
        assert len(trimmed.cells) == 5000

    def test_duration_cap_drops_late_cells(self):
        trace = build_trace([(100, 1, SEC)], tail_trimmed=True)
        trimmed = trim_tail(trace, self.config(duration_cap_ns=50 * SEC))
        assert all(ts <= 50 * SEC for ts, _ in trimmed.cells)
        assert len(trimmed.cells) == 51

    def test_empty_after_trim(self):
        with pytest.raises(GuardsiftError, match=EMPTY_AFTER_TAIL_TRIM):
            trim_tail(build_trace([(2, 1, MS)]), self.config())

    def test_idempotent_with_multiple_gaps(self):
        # two qualifying gaps; re-application must not prune a second time
        cells = [(0, 1), (SEC, -1)]
        cells += [(7 * SEC + i * MS, 1) for i in range(5)]
        cells += [(20 * SEC + i * MS, 1) for i in range(10)]
        trace = trace_from_cells(cells)
        once = trim_tail(trace, self.config())
        twice = trim_tail(once, self.config())
        assert once.cells == twice.cells


# --- the array tail stages against the list implementations they replaced ------

# small thresholds so every stage bites: gaps on and off the idle-gap bound,
# short and long tails, caps that cut anywhere
tail_configs = st.builds(
    SanitizeConfig,
    tail_gap_ns=st.sampled_from([0, 10 * MS, 25 * MS, 5 * SEC]),
    max_tail_cells=st.integers(1, 6),
    max_tail_duration_ns=st.sampled_from([0, 10 * MS, 50 * MS, SEC]),
    duration_cap_ns=st.sampled_from([None, -1, 0, 30 * MS, 100 * MS]),
    max_len=st.integers(1, 12),
)


@st.composite
def tail_cells(draw):
    """Sorted cells whose gaps sit on, under and over the tail thresholds."""
    gaps = draw(st.lists(st.sampled_from([0, MS, 10 * MS, 25 * MS, 6 * SEC]), max_size=30))
    times = list(accumulate(gaps, initial=draw(st.integers(0, 3 * SEC))))
    dirs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(times), max_size=len(times)))
    return list(zip(times, dirs))


def back_to_back(segments):
    """The segments' cells in one pair of arrays, any spare cells after each
    segment, and each segment's start and end offsets."""
    cells, starts, ends = [], [], []
    for segment, spare in segments:
        starts.append(len(cells))
        ends.append(len(cells) + len(segment))
        cells += segment + spare
    timestamps = np.array([ts for ts, _ in cells], dtype=np.int64)
    directions = np.array([d for _, d in cells], dtype=np.int8)
    return timestamps, directions, starts, ends


# one to three segments, each with up to one unrelated cell after it
tail_segments = st.lists(
    st.tuples(
        tail_cells(),
        st.lists(st.tuples(st.integers(0, 3 * SEC), st.sampled_from([1, -1])), max_size=1),
    ),
    min_size=1,
    max_size=3,
)


class TestTailStagesAgainstListOracle:
    @given(tail_segments, tail_configs)
    @settings(max_examples=300, deadline=None)
    def test_prune_close_tail(self, segments, config):
        timestamps, directions, starts, ends = back_to_back(segments)
        got_ends, got_pruned = prune_close_tail(timestamps, directions, starts, ends, config)
        for (cells, _), start, end, pruned in zip(segments, starts, got_ends.tolist(), got_pruned.tolist()):
            expected, expected_pruned = cells[:-2], False
            if expected:
                expected, expected_pruned = oracle_prune_close_tail(
                    expected, config.tail_gap_ns, config.max_tail_cells, config.max_tail_duration_ns
                )
            assert (cells[: end - start], pruned) == (expected, expected_pruned)

    def test_an_idle_gap_before_a_segment_is_not_in_its_tail(self):
        timestamps = np.array([0, 10 * SEC, 10 * SEC + MS, 10 * SEC + 2 * MS])
        directions = np.array([1, 1, -1, 1], dtype=np.int8)
        ends, pruned = prune_close_tail(timestamps, directions, [0, 1], [1, 4], SanitizeConfig())
        assert (ends.tolist(), pruned.tolist()) == ([0, 2], [False, False])

    @given(tail_segments, tail_configs)
    @settings(max_examples=300, deadline=None)
    def test_cap_tail(self, segments, config):
        timestamps, _, starts, ends = back_to_back(segments)
        cap, max_len = config.duration_cap_ns, config.max_len
        capped, got = cap_tail(timestamps, starts, ends, cap, max_len)
        for (cells, _), start, capped_end, end in zip(segments, starts, capped.tolist(), got.tolist()):
            kept = [c for c in cells if cap is None or c[0] <= cap]
            assert (capped_end - start, end - start) == (len(kept), min(len(kept), max_len))

    @given(tail_cells(), tail_configs, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_trim_tail(self, cells, config, tail_trimmed):
        trace = trace_from_cells(cells)
        if tail_trimmed:
            trace = TrimmedTrace(trace.timestamps, trace.directions)
        expected, _ = oracle_tail_stages(cells, config, tail_trimmed)
        if not expected:
            with pytest.raises(GuardsiftError, match=EMPTY_AFTER_TAIL_TRIM):
                trim_tail(trace, config)
            return
        trimmed = trim_tail(trace, config)
        assert list(trimmed.cells) == expected and isinstance(trimmed, TrimmedTrace)


class TestDurationCap:
    def test_nearest_rank_99(self):
        durations = [i * SEC for i in range(100, 0, -1)]
        assert compute_duration_cap(durations) == 99 * SEC

    def test_all_equal(self):
        assert compute_duration_cap([45 * SEC] * 5) == 45 * SEC

    def test_single_trace(self):
        assert compute_duration_cap([30 * SEC]) == 30 * SEC

    def test_empty_raises(self):
        with pytest.raises(GuardsiftError, match="^duration cap needs at least one monitored trace$"):
            compute_duration_cap([])


def visit_channel(channel_id, *circuit_ids):
    """A channel carrying one-cell circuits with the given ids."""
    circuits = (circuit_from_dirs([1], circuit_id=c) for c in circuit_ids)
    return channel_of(*circuits, channel_id=channel_id)


class TestGroupVisits:
    def test_rows_within_span_join(self):
        rows = [
            PageVisitRecord("a.example", 0, "a.example", 1),
            PageVisitRecord("moved-a.example", 5 * SEC, "moved-a.example", 2),
            PageVisitRecord("b.example", 120 * SEC, "b.example", 3),
        ]
        groups = group_visits(rows, [visit_channel(7, 1, 2, 3)], 60 * SEC)
        assert [g.page_domain for g in groups] == ["a.example", "b.example"]
        assert [g.channel_id for g in groups] == [7, 7]
        assert len(groups[0].rows) == 2

    def test_each_group_carries_the_channel_of_its_rows(self):
        rows = [
            PageVisitRecord("a.example", 0, "a.example", 1),
            # the row's own id and its first leg belong to no channel; its
            # second leg is circuit 3, on channel 9
            PageVisitRecord("c.example", 0, "c.example", 30, (31, 3)),
            # the own id wins over a leg on another channel
            PageVisitRecord("b.example", 0, "b.example", 2, (2, 3)),
        ]
        channels = [visit_channel(7, 1), visit_channel(8, 2), visit_channel(9, 3)]
        groups = group_visits(rows, channels, 60 * SEC)
        assert [(g.channel_id, g.page_domain, len(g.rows)) for g in groups] == [
            (7, "a.example", 1), (8, "b.example", 1), (9, "c.example", 1),
        ]

    def test_unknown_circuits_ignored(self):
        rows = [PageVisitRecord("a.example", 0, "a.example", 99)]
        assert group_visits(rows, [], 60 * SEC) == []

    def test_named_lists_rows_in_time_order_then_ids_in_row_order(self):
        channels = [visit_channel(7, 1, 2, 3), visit_channel(8, 4)]
        rows = [
            PageVisitRecord("a.example", 10 * SEC, "a.example", 3),
            # own id first, then the legs; the repeated own id is named once
            PageVisitRecord("a.example", 0, "a.example", 2, (1, 2)),
            PageVisitRecord("a.example", 5 * SEC, "a.example", 4),  # on channel 8
        ]
        groups = group_visits(rows, channels, 60 * SEC)
        assert [(g.channel_id, [r.request_ts for r in g.rows]) for g in groups] == [
            (7, [0, 10 * SEC]), (8, [5 * SEC]),
        ]
        assert [(row.request_ts, channel_id, c.circuit_id) for row, channel_id, c in groups[0].named] == [
            (0, 7, 2), (0, 7, 1), (10 * SEC, 7, 3),
        ]
        # each named circuit is the channel's own object
        assert all(c is channels[0].circuits[c.circuit_id] for _, _, c in groups[0].named)

    def test_conflux_row_names_legs_on_two_channels(self):
        channels = [visit_channel(7, 1), visit_channel(8, 2)]
        row = PageVisitRecord("a.example", 0, "a.example", 1, (1, 2))
        (group,) = group_visits([row], channels, 60 * SEC)
        assert group.channel_id == 7
        assert [(r, channel_id, c) for r, channel_id, c in group.named] == [
            (row, 7, channels[0].circuits[1]), (row, 8, channels[1].circuits[2]),
        ]


def valid_circuit(circuit_id, n=240, start=0):
    dirs = [1, -1] + [1 if i % 3 == 0 else -1 for i in range(n - 2)]
    return circuit_from_dirs(dirs, circuit_id=circuit_id, start=start)


class TestSanitizePipeline:
    def test_all_valid_dataset_fully_retained(self):
        channels = [channel_of(valid_circuit(1), valid_circuit(2), channel_id=1)]
        result = sanitize(channels, SanitizeConfig(), "pre")
        assert result.report.retained == 2
        assert result.outcomes == {(1, 1): Stage.RETAINED, (1, 2): Stage.RETAINED}
        report = result.report
        stage_counters = (
            report.spam_circuits_dropped, report.visit_extra_dropped, report.handshake_dropped,
            report.conflux_heuristic_dropped, report.small_dropped, report.trim_dropped,
            report.retained,
        )
        assert sum(stage_counters) == report.input_circuits == 2

    def test_small_only_dataset_dropped(self):
        channels = [channel_of(*(valid_circuit(i, n=100) for i in range(3)), channel_id=1)]
        result = sanitize(channels, SanitizeConfig(), "pre")
        assert result.report.retained == 0
        assert result.report.small_dropped == 3

    def test_invalid_handshake_counted(self):
        bad = circuit_from_dirs([-1, 1] + [1] * 250, circuit_id=5)
        channels = [channel_of(valid_circuit(1), bad, channel_id=1)]
        result = sanitize(channels, SanitizeConfig(), "pre")
        assert result.report.handshake_dropped == 1
        assert result.report.retained == 1

    def test_circuit_ids_repeated_on_two_channels_stay_apart(self):
        # circuit ids are link-local: channels 1 and 2 both carry a circuit 5
        channels = [
            channel_of(valid_circuit(5), valid_circuit(6), channel_id=1),
            channel_of(valid_circuit(5), channel_id=2),
        ]
        visits = [
            PageVisitRecord("a.example", 0, "a.example", 6),
            PageVisitRecord("b.example", 0, "b.example", 5),
        ]
        result = sanitize(channels, SanitizeConfig(), "pre", visits)
        assert sorted(result.traces.labels) == ["a.example", "b.example"]
        assert result.report.visit_extra_dropped == 1
        assert result.outcomes == {
            (1, 5): Stage.UNSELECTED, (1, 6): Stage.RETAINED, (2, 5): Stage.RETAINED,
        }
        assert result.labels == {(1, 6): "a.example", (2, 5): "b.example"}

    def test_retained_traces_invariants(self):
        channels = [channel_of(valid_circuit(1), channel_id=1)]
        config = SanitizeConfig()
        (trace,) = sanitize(channels, config, "pre").traces.traces()
        assert 1 <= len(trace.cells) <= 5000
        assert trace.cells[0] == (0, 1)  # pre phase starts outgoing
        # the tail stages ran
        head = Trace(*trim_head(channels[0].circuits[1], "pre"), phase="pre")
        assert trace.cells == trim_tail(head, config).cells

    def test_stages_only_remove_cells(self):
        channels = [channel_of(*(valid_circuit(i, n=nc) for i, nc in
                                 enumerate((240, 300, 6000))), channel_id=1)]
        largest = max(len(c) for ch in channels for c in ch.circuits.values())
        result = sanitize(channels, SanitizeConfig(), "pre")
        assert result.report.retained == 3
        for trace in result.traces.traces():
            assert len(trace.cells) < largest


@pytest.mark.parametrize("value", [2**63 - 1, -(2**63), 2**63, -(2**63) - 1])
def test_config_integers_must_fit_int64(tmp_path, value):
    path = tmp_path / "sanitize.json"
    path.write_text(f'{{"tail_gap_ns": {value}}}')
    if -(2**63) <= value < 2**63:
        assert SanitizeConfig.from_json(path).tail_gap_ns == value
    else:
        with pytest.raises(ConfigError, match=f"tail_gap_ns must be int, got {value}$"):
            SanitizeConfig.from_json(path)


def test_config_from_json_rejects_unknown_key(tmp_path):
    path = tmp_path / "sanitize.json"
    path.write_text('{"min_cell": 3}')
    with pytest.raises(ConfigError):
        SanitizeConfig.from_json(path)
