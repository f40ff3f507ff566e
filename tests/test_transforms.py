import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MS, SEC
from oracles import trace_from_cells
from guardsift.transforms import inject_jitter, truncate_length, truncate_percent


def uniform_trace(n, spacing_ns=10 * MS):
    return trace_from_cells(tuple((i * spacing_ns, 1 if i % 2 == 0 else -1) for i in range(n)))


class TestJitter:
    def test_zero_jitter_is_identity(self):
        trace = uniform_trace(100)
        out = inject_jitter(trace, 0.0, np.random.default_rng(0))
        assert out is trace

    def test_directions_and_order_preserved(self):
        trace = uniform_trace(300)
        out = inject_jitter(trace, 20.0, np.random.default_rng(1), max_duration_ns=10**15)
        assert len(out.cells) == 300
        assert [d for _, d in out.cells] == [d for _, d in trace.cells]
        assert all(b > a for (a, _), (b, _) in zip(out.cells, out.cells[1:]))

    def test_gaps_only_grow(self):
        trace = uniform_trace(50)
        out = inject_jitter(trace, 5.0, np.random.default_rng(2), max_duration_ns=10**15)
        for (a0, _), (a1, _), (b0, _), (b1, _) in zip(
            trace.cells, trace.cells[1:], out.cells, out.cells[1:]
        ):
            assert b1 - b0 >= a1 - a0

    def test_cells_past_max_duration_dropped(self):
        trace = trace_from_cells(((0, 1), (44 * SEC, -1), (46 * SEC, 1)))
        out = inject_jitter(trace, 0.001, np.random.default_rng(3))
        assert len(out.cells) == 2

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            inject_jitter(uniform_trace(3), -1.0, np.random.default_rng(0))


class TestTruncatePercent:
    def test_full_is_identity(self):
        trace = uniform_trace(10)
        assert truncate_percent(trace, 100) is trace

    def test_half(self):
        assert len(truncate_percent(uniform_trace(10), 50).cells) == 5

    def test_floor_with_minimum_one(self):
        assert len(truncate_percent(uniform_trace(200), 1).cells) == 2
        assert len(truncate_percent(uniform_trace(10), 1).cells) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            truncate_percent(uniform_trace(10), 0)
        with pytest.raises(ValueError):
            truncate_percent(uniform_trace(10), 101)

    def test_idempotent_composition(self):
        trace = uniform_trace(137)
        once = truncate_percent(trace, 37)
        assert truncate_percent(once, 100).cells == once.cells


class TestTruncateLength:
    def test_cap(self):
        assert len(truncate_length(uniform_trace(5001)).cells) == 5000

    def test_short_unchanged(self):
        trace = uniform_trace(10)
        assert truncate_length(trace, 5000) is trace

    def test_single(self):
        assert len(truncate_length(uniform_trace(10), 1).cells) == 1


# --- the array transforms against the per-cell loops they replaced --------------


def oracle_inject_jitter(cells, jitter_ms, rng, max_duration_ns):
    """One scalar draw per gap, accumulated cell by cell."""
    out = [cells[0]]
    shift = 0
    for ts, direction in cells[1:]:
        shift += int(round(rng.uniform(0.0, jitter_ms) * MS))
        out.append((ts + shift, direction))
    return tuple(c for c in out if c[0] - out[0][0] <= max_duration_ns)


@st.composite
def random_traces(draw, max_size=60):
    gaps = draw(st.lists(st.integers(0, 50 * MS), max_size=max_size))
    start = draw(st.integers(0, SEC))
    cells, t = [], start
    for gap in [0] + gaps:
        t += gap
        cells.append((t, draw(st.sampled_from([1, -1]))))
    return trace_from_cells(cells, label=draw(st.none() | st.just("a.example")))


@given(
    random_traces(),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1000.0, exclude_min=True) | st.sampled_from([0.001, 0.5, 20.0]),
    st.integers(0, 3 * SEC) | st.just(45 * SEC),
)
@settings(max_examples=300, deadline=None)
def test_jitter_matches_the_per_gap_oracle(trace, seed, jitter_ms, max_duration_ns):
    got = inject_jitter(trace, jitter_ms, np.random.default_rng(seed), max_duration_ns)
    want = oracle_inject_jitter(trace.cells, jitter_ms, np.random.default_rng(seed), max_duration_ns)
    assert got.cells == want and got.label == trace.label


def test_jitter_matches_the_oracle_on_long_traces():
    trace = uniform_trace(3000, spacing_ns=3 * MS)
    for seed in range(20):
        got = inject_jitter(trace, 20.0, np.random.default_rng(seed))
        want = oracle_inject_jitter(trace.cells, 20.0, np.random.default_rng(seed), 45 * SEC)
        assert got.cells == want


@given(random_traces(), st.floats(1, 100), st.integers(1, 80))
def test_truncations_are_list_slices(trace, percent, max_len):
    keep = max(1, int(len(trace) * percent // 100))
    assert truncate_percent(trace, percent).cells == trace.cells[:keep]
    assert truncate_length(trace, max_len).cells == trace.cells[:max_len]
