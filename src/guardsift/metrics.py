"""Open-world evaluation: confusion tallies, r-precision, threshold curves.

Monitored (positive) records are judged against their true class, so a
positive prediction of the wrong monitored class is a wrong positive, not
a false positive; only non-monitored records can produce false positives.
The r in r-precision is the assumed deployment ratio of non-monitored to
monitored visits.

A score file is held as columns (``Scores``). One pass over its rows,
sorted once by score from the highest down, counts every threshold
(``_threshold_counts``); the curve, the F1 maximum and the FPR target all
read those counts.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import GuardsiftError, ParseError, is_header, read_utf8

NONMON = -1


@dataclass(frozen=True)
class Scores:
    """Classifier output rows as columns, in file order; trace ids are not kept."""

    true_labels: list[int]
    predicted_labels: list[int]
    scores: list[float]

    def __len__(self) -> int:
        return len(self.scores)


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


def tally(scores: Scores, threshold: float) -> ConfusionCounts:
    """Count the confusion cells at one decision threshold.

    A record counts as positive iff it predicts a monitored class with
    score >= threshold.
    """
    n_p = n_n = n_tp = n_wp = n_fp = 0
    for true, predicted, score in zip(scores.true_labels, scores.predicted_labels, scores.scores):
        if true == NONMON:
            n_n += 1
        else:
            n_p += 1
        if predicted == NONMON or score < threshold:
            continue
        if true == NONMON:
            n_fp += 1
        elif predicted == true:
            n_tp += 1
        else:
            n_wp += 1
    return ConfusionCounts(n_p, n_n, n_tp, n_wp, n_fp)


def wilson_upper(n_fp: int, n_n: int, z: float = 1.96) -> float:
    """Upper endpoint of the Wilson score interval for n_fp / n_n."""
    if n_n <= 0:
        raise GuardsiftError("n_n must be positive")
    if not 0 <= n_fp <= n_n:
        raise ValueError("n_fp must lie in [0, n_n]")
    phat = n_fp / n_n
    z2 = z * z
    center = phat + z2 / (2 * n_n)
    margin = z * math.sqrt(phat * (1 - phat) / n_n + z2 / (4 * n_n * n_n))
    return (center + margin) / (1 + z2 / n_n)


def r_precision(
    n_p: int, n_n: int, n_tp: int, n_wp: int, n_fp: int, r: float, wilson_z: float | None = None
) -> float:
    """Precision from the confusion counts at one threshold, under an assumed
    negatives-to-positives base ratio ``r``.

    With a nonzero ``wilson_z`` and fewer than 10 false positives, the FPR
    is replaced by its Wilson upper bound, making the result a conservative
    lower bound.
    """
    if n_p == 0 or n_n == 0:
        raise GuardsiftError(f"need monitored and non-monitored records, got n_p={n_p} n_n={n_n}")
    if r < 0:
        raise ValueError("r must be non-negative")
    tpr = n_tp / n_p
    fpr = wilson_upper(n_fp, n_n, wilson_z) if wilson_z and n_fp < 10 else n_fp / n_n
    denominator = tpr + n_wp / n_p + r * fpr
    if denominator <= 0:
        raise GuardsiftError("r-precision denominator is zero")
    return tpr / denominator


def f1(pi_r: float, recall: float) -> float:
    """Harmonic mean of r-precision and recall; 0 when both are 0."""
    if not 0 <= pi_r <= 1 or not 0 <= recall <= 1:
        raise ValueError("pi_r and recall must be in [0, 1]")
    if pi_r == 0 and recall == 0:
        return 0.0
    return 2 * pi_r * recall / (pi_r + recall)


# --- threshold curves ------------------------------------------------------------


def _threshold_counts(scores: Scores) -> tuple[list[float], list[int], list[int], list[int]]:
    """Every threshold, ascending, with the right, wrong and false positives
    at or above it.

    The thresholds are every distinct score, plus 0 and a value above the
    maximum score. Of equal scores (0.0 and -0.0), the first in file order
    names the threshold. ``scores`` must not be empty.
    """
    values, true, predicted = scores.scores, scores.true_labels, scores.predicted_labels
    # stable, so each run of equal scores starts with its first row in file order
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    names, n_tp, n_wp, n_fp = [], [], [], []
    tp = wp = fp = 0
    last = math.nan
    for i in order:
        if values[i] != last:
            # the counts so far are those of the threshold above this one
            last = values[i]
            names.append(last)
            n_tp.append(tp)
            n_wp.append(wp)
            n_fp.append(fp)
        if predicted[i] == NONMON:
            continue
        if true[i] == NONMON:
            fp += 1
        elif predicted[i] == true[i]:
            tp += 1
        else:
            wp += 1
    thresholds = [names[0] + 1.0, *names] + ([] if names[-1] == 0.0 else [0.0])
    # the counts after the last row hold at the lowest threshold, and at 0 below it
    for column, count in ((n_tp, tp), (n_wp, wp), (n_fp, fp)):
        column.extend([count] * (len(thresholds) - len(column)))
        column.reverse()
    return thresholds[::-1], n_tp, n_wp, n_fp


@dataclass(frozen=True)
class Curve:
    """Counts and rates at every threshold, as columns in ascending threshold
    order; a rate that is undefined at a threshold is None."""

    n_p: int
    n_n: int
    thresholds: list[float]
    n_tp: list[int]
    n_wp: list[int]
    n_fp: list[int]
    pi_r: list[float | None]
    recall: list[float | None]
    fpr: list[float | None]

    def __len__(self) -> int:
        return len(self.thresholds)


def sweep(scores: Scores, r: float, wilson_z: float | None = None) -> Curve:
    """Evaluate every distinct score as a threshold, plus both endpoints.

    Recall never increases along the curve.
    """
    if not len(scores):
        raise GuardsiftError("need at least one record")
    n_n = scores.true_labels.count(NONMON)
    n_p = len(scores) - n_n
    thresholds, n_tp, n_wp, n_fp = _threshold_counts(scores)
    recall = [tp / n_p for tp in n_tp] if n_p else [None] * len(thresholds)
    fpr = [fp / n_n for fp in n_fp] if n_n else [None] * len(thresholds)
    pi_r = [None] * len(thresholds)
    if n_p and n_n:
        for i, counts in enumerate(zip(n_tp, n_wp, n_fp)):
            try:
                pi_r[i] = r_precision(n_p, n_n, *counts, r, wilson_z)
            except GuardsiftError:  # a zero denominator: n_p and n_n are positive
                pass
    return Curve(n_p, n_n, thresholds, n_tp, n_wp, n_fp, pi_r, recall, fpr)


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    pi_r: float | None
    recall: float
    fpr: float
    f1: float | None


def select_threshold_max_f1(curve: Curve) -> OperatingPoint:
    """The threshold of ``curve`` maximizing F1; ties resolve to the larger threshold."""
    if not curve.n_p:
        raise GuardsiftError("no monitored records; F1 is undefined")
    best = best_f1 = None
    for i, (pi, recall) in enumerate(zip(curve.pi_r, curve.recall)):
        if pi is None or recall is None:
            continue
        score = f1(pi, recall)
        if best is None or score >= best_f1:
            best, best_f1 = i, score
    if best is None:
        raise GuardsiftError("no threshold yields defined rates")
    return OperatingPoint(
        curve.thresholds[best], curve.pi_r[best], curve.recall[best], curve.fpr[best], best_f1
    )


def operating_point_at_fpr(scores: Scores, target_fpr: float = 0.005) -> OperatingPoint:
    """Highest-TPR threshold whose FPR stays at or below the target.

    Only real score thresholds qualify; the reject-everything endpoint
    above the maximum score is not an operating point.
    """
    if not 0 < target_fpr < 1:
        raise ValueError("target_fpr must be in (0, 1)")
    n_n = scores.true_labels.count(NONMON)
    n_p = len(scores) - n_n
    if n_p == 0 or n_n == 0:
        raise GuardsiftError("need monitored and non-monitored records")
    thresholds, n_tp, _, n_fp = _threshold_counts(scores)
    best = best_tpr = None
    for i in range(len(thresholds) - 1):
        tpr = n_tp[i] / n_p
        if n_fp[i] / n_n <= target_fpr and (best is None or tpr >= best_tpr):
            best, best_tpr = i, tpr
    if best is None:
        raise GuardsiftError(f"no threshold achieves FPR <= {target_fpr}")
    return OperatingPoint(thresholds[best], None, best_tpr, n_fp[best] / n_n, None)


# --- serialization --------------------------------------------------------------


def read_scores(source: str | Path) -> Scores:
    """Parse ``trace_id,true_label,predicted_label,score`` rows into columns,
    without the trace ids.

    Blank and ``#`` lines are skipped. The first other line is a header if
    its label field is not an integer. Any other malformed line raises
    ``ParseError`` naming it.
    """
    scores = Scores([], [], [])
    header_allowed = True
    for line_no, raw in enumerate(io.StringIO(read_utf8(source), newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(fields)}")
        if header_allowed:
            header_allowed = False
            if is_header(fields[1]):
                continue
        try:
            true, predicted, score = int(fields[1]), int(fields[2]), float(fields[3])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if true < NONMON or predicted < NONMON:
            raise ParseError(
                line_no,
                f"labels must be class indexes or {NONMON}, got true={true} predicted={predicted}",
            )
        if not 0.0 <= score <= 1.0:  # NaN too
            raise ParseError(line_no, f"score must be in [0, 1], got {score}")
        scores.true_labels.append(true)
        scores.predicted_labels.append(predicted)
        scores.scores.append(score)
    return scores


def write_curve(curve: Curve, path: str | Path) -> None:
    def cell(value: float | None) -> str:
        return "" if value is None else f"{value:.9f}"

    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("threshold,pi_r,recall,fpr\n")
        handle.writelines(
            f"{threshold!r},{cell(pi)},{cell(recall)},{cell(fpr)}\n"
            for threshold, pi, recall, fpr in zip(curve.thresholds, curve.pi_r, curve.recall, curve.fpr)
        )
