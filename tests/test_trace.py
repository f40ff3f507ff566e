import io

import pytest
from hypothesis import given, strategies as st

from guardsift.errors import EmptyTraceError, NotNormalizedError, ParseError
from guardsift.trace import (
    CellRecord,
    Trace,
    compute_trace_id,
    normalize,
    read_dataset,
    serialize_dataset,
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
        Trace(cells=((10, 1), (5, -1)))


def test_normalize_offsets():
    t = Trace(cells=((100, 1), (150, -1), (400, 1)))
    n = normalize(t)
    assert [ts for ts, _ in n.cells] == [0, 50, 300]


def test_normalize_single_cell():
    assert normalize(Trace(cells=((7, 1),))).cells == ((0, 1),)


def test_normalize_empty_raises():
    with pytest.raises(EmptyTraceError):
        normalize(Trace(cells=()))


def test_normalize_already_normalized_is_identity():
    t = Trace(cells=((0, 1), (9, -1)))
    assert normalize(t) is t


cells_strategy = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from([1, -1])), min_size=1, max_size=60
).map(lambda items: tuple(sorted(items, key=lambda c: c[0])))


@given(cells_strategy)
def test_normalize_idempotent_and_preserves_deltas(cells):
    t = Trace(cells=cells)
    n = normalize(t)
    assert normalize(n).cells == n.cells
    deltas = [b[0] - a[0] for a, b in zip(cells, cells[1:])]
    n_deltas = [b[0] - a[0] for a, b in zip(n.cells, n.cells[1:])]
    assert deltas == n_deltas
    assert [d for _, d in n.cells] == [d for _, d in cells]


def test_trace_id_invariant_under_offset_only():
    a = Trace(cells=((100, 1), (200, -1)))
    b = Trace(cells=((0, 1), (100, -1)))
    c = Trace(cells=((0, 1), (101, -1)))
    assert a.trace_id == b.trace_id
    assert a.trace_id != c.trace_id
    assert compute_trace_id(a.cells, salt="x") != compute_trace_id(a.cells, salt="y")


def _traces():
    return [
        Trace(cells=((0, 1), (50, -1), (300, 1)), phase="pre", label="site-a"),
        Trace(cells=((0, 1), (10, -1)), phase="pre"),
        Trace(cells=((0, 1), (5, 1), (9, -1)), phase="post", label="site-b"),
    ]


def test_export_is_deterministic_and_stripped():
    data1 = serialize_dataset(_traces(), seed=1)
    data2 = serialize_dataset(_traces(), seed=1)
    assert data1 == data2
    text = data1.decode("utf-8")
    assert "channel" not in text and "circuit" not in text
    assert text.endswith("\n")
    assert serialize_dataset(_traces(), seed=2) != data1


def test_export_roundtrip_bit_exact():
    data = serialize_dataset(_traces(), seed=3)
    back = read_dataset(io.StringIO(data.decode("utf-8")))
    original = {(t.phase, t.label, t.cells) for t in _traces()}
    assert {(t.phase, t.label, t.cells) for t in back} == original


def test_export_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        serialize_dataset([Trace(cells=((5, 1), (9, -1)))], seed=0)
    with pytest.raises(EmptyTraceError):
        serialize_dataset([Trace(cells=())], seed=0)


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
    import guardsift.trace as trace_module

    calls = []
    real = trace_module.compute_trace_id

    def counting(cells, salt=""):
        calls.append(cells)
        return real(cells, salt)

    monkeypatch.setattr(trace_module, "compute_trace_id", counting)
    return calls


def test_building_traces_computes_no_id(id_calls):
    t = Trace(cells=((100, 1), (200, -1), (260, -1)), label="site-a")
    t.with_cells(t.cells[:2], tail_trimmed=True)
    normalize(t)
    read_dataset(io.StringIO(serialize_dataset(_traces(), seed=0).decode("utf-8")))
    assert id_calls == []


def test_trace_id_is_computed_once_on_first_read(id_calls):
    t = Trace(cells=((100, 1), (200, -1), (260, -1)))
    assert t.trace_id == compute_trace_id(t.cells)
    assert t.trace_id == t.trace_id
    assert len(id_calls) == 1


@given(cells_strategy)
def test_trace_id_is_the_content_hash(cells):
    assert Trace(cells=cells).trace_id == compute_trace_id(cells)


def test_trace_ids_match_pinned_values():
    # existing labels.csv files carry these ids, so the values must not move
    t = Trace(cells=((100, 1), (200, -1), (260, -1), (900, 1)), label="site-a")
    assert t.trace_id == "ae4d0475455b927f"
    assert normalize(t).trace_id == "ae4d0475455b927f"
    assert t.with_cells(t.cells[:2]).trace_id == "4b6094ff58be4d52"
    assert Trace(cells=()).trace_id == "e3b0c44298fc1c14"
    assert Trace(cells=((0, 1),)).trace_id == "35df8f7285481b9f"


def test_copies_do_not_inherit_a_read_id():
    t = Trace(cells=((100, 1), (200, -1), (260, -1)))
    first = t.trace_id
    shorter = t.with_cells(t.cells[:2])
    assert shorter.trace_id == compute_trace_id(t.cells[:2]) != first
    assert normalize(t).trace_id == first
    assert t == Trace(cells=t.cells)
