from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guardsift.errors import GuardsiftError, ParseError
from guardsift.metrics import (
    NONMON,
    Scores,
    f1,
    operating_point_at_fpr,
    r_precision,
    read_scores,
    select_threshold_max_f1,
    sweep,
    tally,
    wilson_upper,
)

Row = namedtuple("Row", "trace_id true_label predicted_label score")


def rec(true, pred, score, trace_id="t"):
    return Row(trace_id, true, pred, score)


def columns(rows) -> Scores:
    """The rows as the columns ``read_scores`` returns, which drop the trace ids."""
    return Scores(*(list(column) for column in list(zip(*rows))[1:])) if rows else Scores([], [], [])


class TestTally:
    def test_true_positive(self):
        counts = tally(columns([rec(5, 5, 0.9)]), 0.5)
        assert (counts.n_tp, counts.n_wp, counts.n_fp) == (1, 0, 0)

    def test_wrong_positive(self):
        counts = tally(columns([rec(5, 7, 0.9)]), 0.5)
        assert (counts.n_tp, counts.n_wp, counts.n_fp) == (0, 1, 0)

    def test_false_positive(self):
        counts = tally(columns([rec(NONMON, 3, 0.9)]), 0.5)
        assert (counts.n_tp, counts.n_wp, counts.n_fp) == (0, 0, 1)

    def test_below_threshold_not_positive(self):
        counts = tally(columns([rec(5, 5, 0.4)]), 0.5)
        assert counts.n_tp == 0 and counts.n_p == 1

    def test_nonmon_prediction_never_positive(self):
        counts = tally(columns([rec(5, NONMON, 0.99)]), 0.0)
        assert counts.n_tp + counts.n_wp + counts.n_fp == 0

    def test_threshold_is_inclusive(self):
        assert tally(columns([rec(5, 5, 0.5)]), 0.5).n_tp == 1

    def test_bad_label_raises(self, tmp_path):
        path = tmp_path / "scores.csv"
        for row, message in [
            ("a,-2,5,0.5", "line 1: labels must be class indexes or -1, got true=-2 predicted=5"),
            ("a,5,5,1.5", "line 1: score must be in [0, 1], got 1.5"),
            ("a,5,5,nan", "line 1: score must be in [0, 1], got nan"),
        ]:
            path.write_text(row + "\n")
            with pytest.raises(ParseError) as err:
                read_scores(path)
            assert str(err.value) == message


class TestRates:
    def test_formulas(self):
        # tpr 0.9, wpr 0.05 and fpr 0.0 at r = 10
        assert r_precision(n_p=100, n_n=1000, n_tp=90, n_wp=5, n_fp=0, r=10) == 0.9 / (0.9 + 0.05)
        curve = sweep(columns([rec(1, 1, 0.9), rec(1, 2, 0.9), rec(NONMON, 1, 0.5)]), 10)
        assert (curve.recall[1], curve.fpr[1]) == (1 / 2, 1 / 1)

    def test_zero_denominator(self):
        undefined = "^need monitored and non-monitored records, got n_p={} n_n={}$"
        with pytest.raises(GuardsiftError, match=undefined.format(0, 10)):
            r_precision(0, 10, 0, 0, 0, 10)
        with pytest.raises(GuardsiftError, match=undefined.format(10, 0)):
            r_precision(10, 0, 1, 0, 0, 10)


class TestWilson:
    def test_zero_fp_closed_form(self):
        assert abs(wilson_upper(0, 1000, 1.96) - 0.003827) < 1e-6

    def test_all_fp_is_one(self):
        assert wilson_upper(50, 50) == pytest.approx(1.0)

    def test_large_n_approaches_phat(self):
        assert abs(wilson_upper(100_000, 10**6) - 0.1) < 1e-3

    def test_monotone_decreasing_in_n(self):
        values = [wilson_upper(0, n) for n in (10, 100, 1000, 10_000, 100_000)]
        assert values == sorted(values, reverse=True)


class TestRPrecision:
    def test_perfect(self):
        for base in (0, 1, 10, 1000):
            assert r_precision(10, 10, 10, 0, 0, base) == 1.0

    def test_formula(self):
        # tpr, wpr, fpr = 0.9, 0.05, 0.005 and 0.5, 0.0, 0.05
        assert r_precision(100, 1000, 90, 5, 5, 10) == pytest.approx(0.9)
        assert r_precision(10, 100, 5, 0, 5, 100) == pytest.approx(0.5 / 5.5)

    def test_monotone_in_r(self):
        values = [r_precision(100, 100, 90, 2, 1, base) for base in (0, 1, 10, 100)]
        assert values == sorted(values, reverse=True)

    def test_wilson_substitution_lowers_precision(self):
        plain = r_precision(10, 1000, 9, 0, 2, 10)
        bounded = r_precision(10, 1000, 9, 0, 2, 10, wilson_z=1.96)
        assert bounded < plain

    def test_wilson_ignored_when_fp_large(self):
        assert r_precision(10, 1000, 9, 0, 50, 10, 1.96) == r_precision(10, 1000, 9, 0, 50, 10)

    def test_zero_denominator(self):
        with pytest.raises(GuardsiftError, match="^r-precision denominator is zero$"):
            r_precision(10, 10, 0, 0, 0, 10)


class TestF1:
    def test_reference_rows(self):
        assert abs(f1(0.956, 0.922) - 0.939) <= 1e-3
        assert abs(f1(0.980, 0.968) - 0.974) <= 1e-3

    def test_perfect(self):
        assert f1(1.0, 1.0) == 1.0

    def test_both_zero_convention(self):
        assert f1(0.0, 0.0) == 0.0


# --- independent brute-force evaluator -------------------------------------------


def oracle_counts(records, threshold):
    n_p = n_n = tp = wp = fp = 0
    for r in records:
        if r.true_label == NONMON:
            n_n += 1
        else:
            n_p += 1
        positive = r.predicted_label != NONMON and r.score >= threshold
        if not positive:
            continue
        if r.true_label == NONMON:
            fp += 1
        elif r.predicted_label == r.true_label:
            tp += 1
        else:
            wp += 1
    return n_p, n_n, tp, wp, fp


def oracle_point(records, threshold, r):
    n_p, n_n, tp, wp, fp = oracle_counts(records, threshold)
    recall = tp / n_p if n_p else None
    pi = None
    if n_p and n_n:
        tpr, wpr, fpr = tp / n_p, wp / n_p, fp / n_n
        denom = tpr + wpr + r * fpr
        if denom > 0:
            pi = tpr / denom
    return pi, recall


def oracle_thresholds(records):
    values = sorted({r.score for r in records})
    out = values if values and values[0] == 0.0 else [0.0] + values
    return out + [values[-1] + 1.0 if values else 1.0]


def random_records(rng, n_classes=6, max_n=120):
    n = int(rng.integers(1, max_n + 1))
    records = []
    grid = np.round(np.linspace(0, 1, 21), 3)
    for i in range(n):
        true = NONMON if rng.random() < 0.5 else int(rng.integers(0, n_classes))
        pred = NONMON if rng.random() < 0.2 else int(rng.integers(0, n_classes))
        records.append(rec(true, pred, float(rng.choice(grid)), f"t{i}"))
    return records


class TestSweep:
    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            records = random_records(rng)
            curve = sweep(columns(records), r=10)
            assert curve.thresholds == oracle_thresholds(records)
            for i, threshold in enumerate(curve.thresholds):
                pi, recall = oracle_point(records, threshold, 10)
                assert curve.pi_r[i] == pi
                assert curve.recall[i] == recall
                counts = oracle_counts(records, threshold)
                assert counts == (curve.n_p, curve.n_n, curve.n_tp[i], curve.n_wp[i], curve.n_fp[i])

    def test_recall_non_increasing(self):
        rng = np.random.default_rng(23)
        records = random_records(rng)
        recalls = [r for r in sweep(columns(records), 10).recall if r is not None]
        assert recalls == sorted(recalls, reverse=True)

    def test_all_scores_equal_gives_three_points(self):
        records = [rec(1, 1, 0.5), rec(NONMON, 1, 0.5)]
        assert sweep(columns(records), 10).thresholds == [0.0, 0.5, 1.5]

    def test_separable_scores_reach_perfect_point(self):
        records = [rec(1, 1, 0.9), rec(2, 2, 0.8), rec(NONMON, 1, 0.1)]
        curve = sweep(columns(records), 10)
        assert any(pi == 1.0 and recall == 1.0 for pi, recall in zip(curve.pi_r, curve.recall))

    def test_first_of_equal_scores_names_the_threshold(self):
        records = [rec(1, 1, 0.5), rec(NONMON, 1, -0.0), rec(1, 2, 0.0)]
        thresholds = sweep(columns(records), 10).thresholds
        assert thresholds == [0.0, 0.5, 1.5]
        assert str(thresholds[0]) == "-0.0"


class TestSelectThreshold:
    def test_separable_picks_largest_gap_threshold(self):
        records = [rec(1, 1, 0.9), rec(2, 2, 0.8), rec(NONMON, 1, 0.1)]
        point = select_threshold_max_f1(sweep(columns(records), 10))
        assert point.threshold == 0.8
        assert point.f1 == 1.0

    def test_single_correct_positive(self):
        records = [rec(1, 1, 0.7), rec(NONMON, NONMON, 0.9)]
        point = select_threshold_max_f1(sweep(columns(records), 10))
        assert point.threshold == 0.7

    def test_all_nonmon_raises(self):
        with pytest.raises(GuardsiftError, match="^no monitored records; F1 is undefined$"):
            select_threshold_max_f1(sweep(columns([rec(NONMON, 1, 0.5)]), 10))


class TestOperatingPoint:
    def test_zero_fpr_achievable(self):
        records = [rec(1, 1, 0.9)] * 8 + [rec(1, 1, 0.2)] * 2 + [rec(NONMON, 1, 0.3)] * 100
        point = operating_point_at_fpr(columns(records), 0.005)
        assert point.fpr == 0.0
        assert point.recall == 0.8

    def test_infeasible_raises(self):
        # every real threshold keeps at least one of the 10 false positives
        records = [rec(1, 1, 0.5)] + [rec(NONMON, 2, 1.0)] * 2 + [rec(NONMON, 3, 0.9)] * 8
        with pytest.raises(GuardsiftError, match=r"^no threshold achieves FPR <= 0\.005$"):
            operating_point_at_fpr(columns(records), 0.005)

    def test_max_tpr_among_feasible(self):
        records = (
            [rec(1, 1, 0.9)] * 6
            + [rec(1, 1, 0.7)] * 1
            + [rec(1, NONMON, 0.9)] * 3
            + [rec(NONMON, 1, 0.1)] * 200
        )
        point = operating_point_at_fpr(columns(records), 0.005)
        assert point.recall == 0.7
        assert point.threshold == 0.7


def test_scores_csv_roundtrip(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("trace_id,true_label,predicted_label,score\na,1,2,0.25\nb,-1,-1,0.75\n")
    records = [rec(1, 2, 0.25, "a"), rec(NONMON, NONMON, 0.75, "b")]
    assert read_scores(path) == columns(records)


@pytest.mark.parametrize("before", ["# run 3\n", "\n", "# run 3\n\n# seed 7\n"], ids=["comment", "blank", "both"])
def test_header_may_follow_comments_and_blank_lines(tmp_path, before):
    path = tmp_path / "scores.csv"
    path.write_text(before + "trace_id,true_label,predicted_label,score\na,1,2,0.25\n")
    assert read_scores(path) == columns([rec(1, 2, 0.25, "a")])


@pytest.mark.parametrize("label", [" 3", "3 ", "+3"])
def test_a_first_row_whose_label_int_reads_is_data(tmp_path, label):
    # the header rule reads the label as int() reads it on every later row
    path = tmp_path / "scores.csv"
    path.write_text(f"m,{label},3,0.9\nn,-1,1,0.1\nk,2,2,0.5\n")
    assert read_scores(path) == columns([rec(3, 3, 0.9), rec(NONMON, 1, 0.1), rec(2, 2, 0.5)])


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"abc\n", 1),
        (b"trace_id,true_label,predicted_label,score\na,1\n", 2),
        (b"a,1,1,0.5\nb,x,1,0.5\n", 2),
        (b"a,1,1,0.5\n\xff,1,1,0.5\n", 2),
        (b"# run 3\na,1,2,0.25\ntrace_id,true_label,predicted_label,score\n", 3),
    ],
    ids=["one-field-first-line", "short-row", "bad-label", "not-utf8", "header-after-a-row"],
)
def test_read_scores_names_the_bad_line(tmp_path, data, line_no):
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert err.value.line_no == line_no


score_fields = st.text(max_size=4) | st.integers(-3, 3).map(str) | st.floats().map(str)
score_lines = st.text(max_size=30) | st.lists(score_fields, min_size=1, max_size=5).map(",".join)


@given(st.lists(score_lines, max_size=5) | st.binary(max_size=60))
@settings(max_examples=300, deadline=None)
def test_read_scores_fuzz_lets_only_guardsift_errors_escape(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text("\n".join(content), encoding="utf-8")
    try:
        scores = read_scores(path)
    except GuardsiftError:
        return
    rows = list(zip(scores.true_labels, scores.predicted_labels, scores.scores))
    assert len(rows) == len(scores)
    assert all(true >= NONMON and predicted >= NONMON and 0 <= score <= 1 for true, predicted, score in rows)
