"""Classifier-ready representations of traces.

Three views: the raw direction sequence, the signed-timing sequence, and
a 2 x N per-direction count matrix over fixed time slots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError
from .trace import OUTGOING, Trace

SEC = 1_000_000_000


def direction_sequence(trace: Trace, length: int = 5000) -> np.ndarray:
    """Directions in order, zero-padded or truncated to ``length``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    out = np.zeros(length, dtype=np.int8)
    head = trace.directions[:length]
    out[: len(head)] = head
    return out


def directional_timing(trace: Trace, length: int = 5000) -> np.ndarray:
    """Per-cell timestamp in seconds, signed by direction, zero-padded."""
    if length < 1:
        raise ValueError("length must be >= 1")
    out = np.zeros(length, dtype=np.float64)
    ts, d = trace.timestamps[:length], trace.directions[:length]
    seconds = ts / SEC
    if len(ts) and not (-(2**53) < ts[0] and ts[-1] < 2**53):
        # past 2**53 ns the int64 -> float64 cast rounds before the division;
        # Python's int / int rounds once, and the sorted ends bound every cell
        seconds = np.array([t / SEC for t in ts.tolist()], dtype=np.float64)
    out[: len(ts)] = seconds * d
    return out


@dataclass(frozen=True)
class TAM:
    """Per-direction cell counts over fixed time slots.

    Row 0 counts outgoing cells, row 1 incoming. A cell at time t lands in
    slot floor(t / slot_duration), clamped so t == t_max falls in the last
    slot; cells before 0 or past t_max are dropped.
    """

    matrix: np.ndarray
    t_max_s: float
    n_slots: int

    @property
    def slot_duration_s(self) -> float:
        return self.t_max_s / self.n_slots

    def total(self) -> int:
        return int(self.matrix.sum())


def _tam_horizon_ns(t_max_s: float, n_slots: int) -> int:
    """``t_max`` in integer nanoseconds, checked for the int64 slot arithmetic."""
    if not 0 < t_max_s < math.inf:
        raise ValueError("t_max must be positive and finite")
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    t_max_ns = int(round(t_max_s * SEC))
    if t_max_ns < 1:
        raise ValueError("t_max must be at least 1 ns")
    if t_max_ns * n_slots >= 2**63:
        raise ValueError(
            f"t_max {t_max_s:g} s with {n_slots} slots overflows int64 slot arithmetic"
        )
    return t_max_ns


def build_tam(trace: Trace, t_max_s: float, n_slots: int) -> TAM:
    """Count cells into a 2 x ``n_slots`` matrix covering [0, t_max]."""
    t_max_ns = _tam_horizon_ns(t_max_s, n_slots)
    ts, d = trace.timestamps, trace.directions
    keep = (ts >= 0) & (ts <= t_max_ns)
    # integer slot index: exact, and pairwise-coarsening safe
    slots = np.minimum(ts[keep] * n_slots // t_max_ns, n_slots - 1)
    rows = (d[keep] != OUTGOING).astype(np.int64)
    counts = np.bincount(rows * n_slots + slots, minlength=2 * n_slots)
    matrix = counts.astype(np.int64, copy=False).reshape(2, n_slots)
    return TAM(matrix=matrix, t_max_s=t_max_s, n_slots=n_slots)


def coarsen_tam(tam: TAM, factor: int = 2) -> TAM:
    """Merge adjacent slot groups; totals are preserved."""
    if tam.n_slots % factor != 0:
        raise ValueError("n_slots must be divisible by the coarsening factor")
    merged = tam.matrix.reshape(2, tam.n_slots // factor, factor).sum(axis=2)
    return TAM(matrix=merged, t_max_s=tam.t_max_s, n_slots=tam.n_slots // factor)


def default_t_max(traces: Sequence[Trace]) -> float:
    """Longest trace duration in seconds; the usual matrix horizon."""
    if not traces:
        raise ValueError("no traces")
    return max(t.duration_ns for t in traces) / SEC


def slot_sweep(
    traces: Sequence[Trace], t_max_s: float, slot_durations_s: Sequence[float]
) -> list[tuple[float, int, list[TAM]]]:
    """Build matrices at several slot granularities.

    For each requested duration, the slot count is round(t_max / duration).
    """
    results = []
    for duration in slot_durations_s:
        if duration <= 0:
            raise ValueError("slot durations must be positive")
        n_slots = max(1, round(t_max_s / duration))
        results.append((duration, n_slots, [build_tam(t, t_max_s, n_slots) for t in traces]))
    return results


def feature_matrix(
    traces: Sequence[Trace],
    kind: str,
    length: int = 5000,
    t_max_s: float | None = None,
    n_slots: int = 1800,
) -> tuple[np.ndarray, dict]:
    """One row per trace of the ``kind`` view, plus the header metadata.

    ``direction`` and ``timing`` rows hold ``length`` values; ``tam`` rows
    are 2 x ``n_slots`` matrices over [0, ``t_max_s``].
    """
    if kind == "tam":
        if t_max_s is None:
            raise ValueError("tam features need t_max_s")
        _tam_horizon_ns(t_max_s, n_slots)  # reject bad settings before allocating
        out = np.empty((len(traces), 2, n_slots), dtype=np.int64)
        for i, trace in enumerate(traces):
            out[i] = build_tam(trace, t_max_s, n_slots).matrix
        meta = {
            "kind": kind,
            "t_max_s": t_max_s,
            "n_slots": n_slots,
            "slot_duration_s": t_max_s / n_slots,
        }
        return out, meta
    if kind == "direction":
        build, dtype = direction_sequence, np.int8
    elif kind == "timing":
        build, dtype = directional_timing, np.float64
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    out = np.empty((len(traces), length), dtype=dtype)
    for i, trace in enumerate(traces):
        out[i] = build(trace, length)
    return out, {"kind": kind, "length": length}


def write_features(path: str | Path, array: np.ndarray, meta: dict | None = None) -> None:
    """Row-major binary dump plus a JSON header sidecar."""
    path = Path(path)
    array = np.ascontiguousarray(array)
    array.tofile(path)
    header = {"shape": list(array.shape), "dtype": str(array.dtype)}
    header.update(meta or {})
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(header, sort_keys=True) + "\n", encoding="utf-8"
    )


def read_features(path: str | Path) -> tuple[np.ndarray, dict]:
    """The array and header written by :func:`write_features`.

    A header that is not a JSON object with a numeric ``dtype`` and a
    ``shape`` of non-negative integers matching the size of ``path`` raises
    ``ParseError``.
    """
    path = Path(path)
    header_path = path.with_suffix(path.suffix + ".json")
    try:
        header = json.loads(header_path.read_bytes())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{header_path.name} is not JSON: {exc.msg}") from None
    except (ValueError, RecursionError):  # not UTF-8, or nested too deeply
        raise ParseError(1, f"{header_path.name} is not JSON") from None
    if not isinstance(header, dict):
        raise ParseError(1, f"{header_path.name} is not a JSON object")
    shape, dtype = header.get("shape"), header.get("dtype")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ParseError(1, f"{header_path.name}: shape must be a list of non-negative integers")
    try:
        dtype = np.dtype(dtype) if isinstance(dtype, str) else None
    except (TypeError, ValueError, SyntaxError):  # numpy evaluates a repeat count as Python
        dtype = None
    if dtype is None or dtype.kind not in "biuf":
        raise ParseError(1, f"{header_path.name}: dtype must name a numeric type")
    count, size = math.prod(shape), path.stat().st_size
    if count * dtype.itemsize != size:
        raise ParseError(
            1, f"{header_path.name}: shape {shape} of {dtype} does not match the"
            f" {size} bytes of {path.name}"
        )
    return np.fromfile(path, dtype=dtype, count=count).reshape(shape), header


def write_features_csv(path: str | Path, array: np.ndarray) -> None:
    """Plain-text alternative for inspection."""
    arr = np.asarray(array)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    fmt = "%d" if np.issubdtype(arr.dtype, np.integer) else "%.9g"
    np.savetxt(path, arr, fmt=fmt, delimiter=",")
