import numpy as np
import pytest

from conftest import MS
from guardsift.conflux import (
    PrimaryLegVerdict,
    analyze_set,
    detect_first_segment,
    fs_ground_truth,
    identify_primary_legs,
    leg_coverage,
    strip_conflux_handshake,
)
from guardsift.errors import GuardsiftError
from oracles import circuit_from_cells


def typed_leg(circuit_id, spec, start=0, step=MS):
    """spec: list of (direction, cell_type)."""
    return circuit_from_cells(circuit_id, [(start + i * step, d, ct) for i, (d, ct) in enumerate(spec)])


LINK_HS = [(1, 200), (-1, 201), (1, 19), (-1, 20), (1, 21)]


class TestStripHandshake:
    def test_drops_through_first_link_ack(self):
        leg = typed_leg(1, LINK_HS + [(1, 1), (1, 2)])
        stripped = strip_conflux_handshake(leg)
        assert stripped.cell_types.tolist() == [1, 2]

    def test_ack_as_last_cell_leaves_empty(self):
        leg = typed_leg(1, LINK_HS)
        assert len(strip_conflux_handshake(leg)) == 0

    def test_missing_ack_raises(self):
        with pytest.raises(GuardsiftError, match="^leg 1 has no link-ack cell$"):
            strip_conflux_handshake(typed_leg(1, [(1, 200), (-1, 201), (1, 2)]))


def stripped_legs(a_spec, b_spec):
    return typed_leg(10, a_spec), typed_leg(20, b_spec)


class TestIdentifyPrimaryLegs:
    def test_connected_on_same_leg(self):
        # begins then an incoming connected on the same leg: exit agrees
        verdict = identify_primary_legs(
            *stripped_legs([(1, 1), (-1, 4), (1, 2)], [(1, 2), (-1, 2)])
        )
        assert verdict.client_primary == 10
        assert verdict.exit_primary == 10

    def test_outgoing_data_means_other_leg(self):
        # client sends data right after begins: connected arrived elsewhere
        verdict = identify_primary_legs(
            *stripped_legs([(1, 1), (1, 2), (-1, 2)], [(-1, 4), (-1, 2)])
        )
        assert verdict.client_primary == 10
        assert verdict.exit_primary == 20

    def test_neither_leg_begins_is_unused(self):
        verdict = identify_primary_legs(*stripped_legs([(1, 2)], [(-1, 2)]))
        assert verdict == PrimaryLegVerdict(None, None)

    def test_begin_on_second_leg(self):
        verdict = identify_primary_legs(
            *stripped_legs([(-1, 4), (-1, 2)], [(1, 1), (-1, 4)])
        )
        assert verdict.client_primary == 20
        assert verdict.exit_primary == 20

    def test_multiple_begins_skipped(self):
        verdict = identify_primary_legs(
            *stripped_legs([(1, 1), (1, 1), (1, 1), (1, 2)], [(-1, 4)])
        )
        assert verdict.exit_primary == 20

    def test_switch_cell_counts_as_same_leg(self):
        verdict = identify_primary_legs(
            *stripped_legs([(1, 1), (-1, 22), (1, 2)], [(-1, 2)])
        )
        assert verdict.exit_primary == 10

    def test_empty_leg_is_indeterminate(self):
        with pytest.raises(GuardsiftError, match="^a leg is empty after handshake strip$"):
            identify_primary_legs(typed_leg(1, []), typed_leg(2, [(1, 1)]))

    def test_symmetric_under_relabeling(self):
        a, b = [(1, 1), (1, 2), (-1, 2)], [(-1, 4), (-1, 2)]
        v1 = identify_primary_legs(*stripped_legs(a, b))
        v2 = identify_primary_legs(typed_leg(20, b), typed_leg(10, a))
        assert (v1.client_primary, v1.exit_primary) == (v2.client_primary, v2.exit_primary)


def directions(values):
    """A head-trimmed guard leg's directions, as ``trim_head`` returns them."""
    return np.array(values, dtype=np.int8)


class TestFirstSegmentDetector:
    def test_minimal_positive(self):
        assert detect_first_segment(directions([1, -1, 1]))

    def test_incoming_start_fails(self):
        assert not detect_first_segment(directions([-1, 1, 1, -1]))

    def test_no_incoming_within_ten_fails(self):
        assert not detect_first_segment(directions([1] * 10 + [-1, 1]))

    def test_incoming_at_tenth_position_counts(self):
        assert detect_first_segment(directions([1] * 9 + [-1] + [1]))

    def test_no_outgoing_after_first_incoming_fails(self):
        assert not detect_first_segment(directions([1, -1] + [-1] * 15))

    def test_outgoing_just_inside_second_window(self):
        assert detect_first_segment(directions([1, -1] + [-1] * 9 + [1]))

    def test_outgoing_outside_second_window_fails(self):
        assert not detect_first_segment(directions([1, -1] + [-1] * 10 + [1]))

    def test_short_leg_fails_conservatively(self):
        assert not detect_first_segment(directions([1]))
        assert not detect_first_segment(directions([]))


class TestFsGroundTruth:
    def test_both_primary(self):
        v = PrimaryLegVerdict(10, 10)
        assert fs_ground_truth(v, 10)
        assert not fs_ground_truth(v, 20)
        assert not fs_ground_truth(PrimaryLegVerdict(10, 20), 10)

    def test_unused_raises(self):
        with pytest.raises(
            GuardsiftError, match="^a set neither endpoint used has no first-segment truth$"
        ):
            fs_ground_truth(PrimaryLegVerdict(None, None), 10)


class TestCoverageAndMerge:
    def test_coverage_ratio(self):
        assert leg_coverage(500, 1000) == 0.5
        assert leg_coverage(1000, 1000) == 1.0
        assert leg_coverage(0, 1000) == 0.0

    def test_empty_full_trace_raises(self):
        with pytest.raises(GuardsiftError, match="^full client trace is empty$"):
            leg_coverage(1, 0)

    def test_set_coverage_counts_both_legs_after_the_link_ack(self):
        # 4 + 2 client cells after the link-acks; the guard sees 3 of them
        leg_a = typed_leg(10, LINK_HS + [(1, 1), (-1, 4), (1, 2), (-1, 2)])
        leg_b = typed_leg(20, LINK_HS + [(-1, 2), (-1, 2)])
        analysis = analyze_set("s", leg_a, leg_b, directions([1, -1, 1]), 10)
        assert analysis.coverage == 0.5
        assert (analysis.client_primary, analysis.exit_primary) == (10, 10)
        assert analysis.fs_detected and analysis.fs_truth
