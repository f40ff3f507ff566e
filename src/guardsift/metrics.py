"""Open-world evaluation: confusion tallies, rates, r-precision, sweeps.

Monitored (positive) records are judged against their true class, so a
positive prediction of the wrong monitored class is a wrong positive, not
a false positive; only non-monitored records can produce false positives.
The r in r-precision is the assumed deployment ratio of non-monitored to
monitored visits.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    LabelError,
    NoFeasibleThresholdError,
    NoPositivesError,
    ParseError,
    UndefinedPrecisionError,
    UndefinedRateError,
    read_utf8,
)

NONMON = -1


@dataclass(frozen=True)
class ScoreRecord:
    """One classifier output row."""

    trace_id: str
    true_label: int
    predicted_label: int
    score: float

    def __post_init__(self):
        if self.true_label < NONMON or self.predicted_label < NONMON:
            raise LabelError(
                f"labels must be class indexes or {NONMON}, got "
                f"true={self.true_label} predicted={self.predicted_label}"
            )
        if not 0.0 <= self.score <= 1.0 or math.isnan(self.score):
            raise LabelError(f"score must be in [0, 1], got {self.score}")


@dataclass(frozen=True)
class ConfusionCounts:
    n_p: int
    n_n: int
    n_tp: int
    n_wp: int
    n_fp: int

    def __post_init__(self):
        if min(self.n_p, self.n_n, self.n_tp, self.n_wp, self.n_fp) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_tp + self.n_wp > self.n_p or self.n_fp > self.n_n:
            raise ValueError("counts exceed their population")


@dataclass(frozen=True)
class Rates:
    tpr: float
    wpr: float
    fpr: float


@dataclass(frozen=True)
class WilsonParams:
    n_fp: int
    n_n: int
    z: float = 1.96


def tally(records: Sequence[ScoreRecord], threshold: float) -> ConfusionCounts:
    """Count the confusion cells at one decision threshold.

    A record counts as positive iff it predicts a monitored class with
    score >= threshold.
    """
    n_p = n_n = n_tp = n_wp = n_fp = 0
    for rec in records:
        if rec.true_label == NONMON:
            n_n += 1
        else:
            n_p += 1
        if rec.predicted_label == NONMON or rec.score < threshold:
            continue
        if rec.true_label == NONMON:
            n_fp += 1
        elif rec.predicted_label == rec.true_label:
            n_tp += 1
        else:
            n_wp += 1
    return ConfusionCounts(n_p, n_n, n_tp, n_wp, n_fp)


def rates(counts: ConfusionCounts) -> Rates:
    """TPR, WPR, FPR from the confusion counts."""
    if counts.n_p == 0 or counts.n_n == 0:
        raise UndefinedRateError(
            f"need monitored and non-monitored records, got n_p={counts.n_p} n_n={counts.n_n}"
        )
    return Rates(
        tpr=counts.n_tp / counts.n_p,
        wpr=counts.n_wp / counts.n_p,
        fpr=counts.n_fp / counts.n_n,
    )


def wilson_upper(n_fp: int, n_n: int, z: float = 1.96) -> float:
    """Upper endpoint of the Wilson score interval for n_fp / n_n."""
    if n_n <= 0:
        raise UndefinedRateError("n_n must be positive")
    if not 0 <= n_fp <= n_n:
        raise ValueError("n_fp must lie in [0, n_n]")
    phat = n_fp / n_n
    z2 = z * z
    center = phat + z2 / (2 * n_n)
    margin = z * math.sqrt(phat * (1 - phat) / n_n + z2 / (4 * n_n * n_n))
    return (center + margin) / (1 + z2 / n_n)


def r_precision(rate: Rates, r: float, wilson: WilsonParams | None = None) -> float:
    """Precision under an assumed negatives-to-positives base ratio ``r``.

    When ``wilson`` is given and its false-positive count is small (< 10),
    the FPR is replaced by its Wilson upper bound, making the result a
    conservative lower bound.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    fpr = rate.fpr
    if wilson is not None and wilson.n_fp < 10:
        fpr = wilson_upper(wilson.n_fp, wilson.n_n, wilson.z)
    denominator = rate.tpr + rate.wpr + r * fpr
    if denominator <= 0:
        raise UndefinedPrecisionError("r-precision denominator is zero")
    return rate.tpr / denominator


def f1(pi_r: float, recall: float) -> float:
    """Harmonic mean of r-precision and recall; 0 when both are 0."""
    if not 0 <= pi_r <= 1 or not 0 <= recall <= 1:
        raise ValueError("pi_r and recall must be in [0, 1]")
    if pi_r == 0 and recall == 0:
        return 0.0
    return 2 * pi_r * recall / (pi_r + recall)


# --- threshold sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    pi_r: float | None
    recall: float | None
    fpr: float | None
    counts: ConfusionCounts


def _sweep_thresholds(records: Sequence[ScoreRecord]) -> list[float]:
    """Every distinct score, plus 0 and a value above the maximum score."""
    values = sorted({rec.score for rec in records})
    thresholds = values if values and values[0] == 0.0 else [0.0] + values
    return thresholds + [values[-1] + 1.0 if values else 1.0]


def _point_at(
    threshold: float,
    r: float,
    counts: ConfusionCounts,
    wilson_z: float | None,
) -> SweepPoint:
    recall = counts.n_tp / counts.n_p if counts.n_p else None
    fpr = counts.n_fp / counts.n_n if counts.n_n else None
    pi = None
    if counts.n_p and counts.n_n:
        rate = rates(counts)
        wilson = WilsonParams(counts.n_fp, counts.n_n, wilson_z) if wilson_z else None
        try:
            pi = r_precision(rate, r, wilson)
        except UndefinedPrecisionError:
            pi = None
    return SweepPoint(threshold, pi, recall, fpr, counts)


def _counts_for_thresholds(
    records: Sequence[ScoreRecord], thresholds: Sequence[float]
) -> list[ConfusionCounts]:
    """Confusion counts per threshold via suffix sums over sorted scores."""
    n_p = sum(1 for rec in records if rec.true_label != NONMON)
    n_n = len(records) - n_p
    scored = sorted(
        (
            (rec.score, rec.true_label == rec.predicted_label, rec.true_label == NONMON)
            for rec in records
            if rec.predicted_label != NONMON
        ),
        key=lambda item: item[0],
    )
    scores = [item[0] for item in scored]
    # suffix[i] = counts over scored[i:]
    suffix_tp = [0] * (len(scored) + 1)
    suffix_wp = [0] * (len(scored) + 1)
    suffix_fp = [0] * (len(scored) + 1)
    for i in range(len(scored) - 1, -1, -1):
        _, correct, is_nonmon = scored[i]
        suffix_tp[i] = suffix_tp[i + 1] + (1 if correct and not is_nonmon else 0)
        suffix_wp[i] = suffix_wp[i + 1] + (1 if not correct and not is_nonmon else 0)
        suffix_fp[i] = suffix_fp[i + 1] + (1 if is_nonmon else 0)
    out = []
    for threshold in thresholds:
        i = bisect_left(scores, threshold)
        out.append(ConfusionCounts(n_p, n_n, suffix_tp[i], suffix_wp[i], suffix_fp[i]))
    return out


def sweep(
    records: Sequence[ScoreRecord], r: float, wilson_z: float | None = None
) -> list[SweepPoint]:
    """Evaluate every distinct score as a threshold, plus both endpoints.

    Points are ordered by threshold; recall never increases along the
    curve. Rates that are undefined at a point are reported as None.
    """
    if not records:
        raise ValueError("need at least one record")
    thresholds = _sweep_thresholds(records)
    counts = _counts_for_thresholds(records, thresholds)
    return [
        _point_at(threshold, r, c, wilson_z)
        for threshold, c in zip(thresholds, counts)
    ]


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    pi_r: float | None
    recall: float
    fpr: float
    f1: float | None
    counts: ConfusionCounts


def select_threshold_max_f1(
    records: Sequence[ScoreRecord], r: float, wilson_z: float | None = None
) -> OperatingPoint:
    """The threshold maximizing F1; ties resolve to the larger threshold."""
    if not any(rec.true_label != NONMON for rec in records):
        raise NoPositivesError("no monitored records; F1 is undefined")
    best: OperatingPoint | None = None
    for point in sweep(records, r, wilson_z):
        if point.pi_r is None or point.recall is None:
            continue
        score = f1(point.pi_r, point.recall)
        if best is None or score >= best.f1:
            best = OperatingPoint(
                point.threshold, point.pi_r, point.recall, point.fpr, score, point.counts
            )
    if best is None:
        raise NoPositivesError("no threshold yields defined rates")
    return best


def operating_point_at_fpr(
    records: Sequence[ScoreRecord], target_fpr: float = 0.005
) -> OperatingPoint:
    """Highest-TPR threshold whose FPR stays at or below the target.

    Only real score thresholds qualify; the reject-everything endpoint
    above the maximum score is not an operating point.
    """
    if not 0 < target_fpr < 1:
        raise ValueError("target_fpr must be in (0, 1)")
    n_p = sum(1 for rec in records if rec.true_label != NONMON)
    n_n = len(records) - n_p
    if n_p == 0 or n_n == 0:
        raise UndefinedRateError("need monitored and non-monitored records")
    thresholds = _sweep_thresholds(records)[:-1]
    best: OperatingPoint | None = None
    for threshold, counts in zip(thresholds, _counts_for_thresholds(records, thresholds)):
        fpr = counts.n_fp / counts.n_n
        if fpr > target_fpr:
            continue
        tpr = counts.n_tp / counts.n_p
        if best is None or tpr >= best.recall:
            best = OperatingPoint(threshold, None, tpr, fpr, None, counts)
    if best is None:
        raise NoFeasibleThresholdError(f"no threshold achieves FPR <= {target_fpr}")
    return best


# --- serialization --------------------------------------------------------------


def read_scores(source: str | Path) -> list[ScoreRecord]:
    """Parse ``trace_id,true_label,predicted_label,score`` rows.

    A first line whose label field is not an integer is a header. Any
    other malformed line raises ``ParseError`` naming it.
    """
    records = []
    for line_no, raw in enumerate(io.StringIO(read_utf8(source), newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(fields)}")
        if line_no == 1 and not fields[1].lstrip("-").isdigit():
            continue
        try:
            records.append(
                ScoreRecord(fields[0], int(fields[1]), int(fields[2]), float(fields[3]))
            )
        except (ValueError, LabelError) as exc:
            raise ParseError(line_no, str(exc)) from None
    return records


def write_scores(records: Iterable[ScoreRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["trace_id", "true_label", "predicted_label", "score"])
        for rec in records:
            writer.writerow([rec.trace_id, rec.true_label, rec.predicted_label, rec.score])


def write_curve(points: Iterable[SweepPoint], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["threshold", "pi_r", "recall", "fpr"])
        for point in points:
            writer.writerow(
                [
                    point.threshold,
                    "" if point.pi_r is None else f"{point.pi_r:.9f}",
                    "" if point.recall is None else f"{point.recall:.9f}",
                    "" if point.fpr is None else f"{point.fpr:.9f}",
                ]
            )
