"""Evaluation-time trace perturbations: jitter and truncation."""

from __future__ import annotations

import numpy as np

from .trace import Trace

MS = 1_000_000


def check_params(jitter_ms=None, percent=None, max_len=None) -> None:
    """Raise ``ValueError`` for a parameter out of range; ``None`` is not checked."""
    if jitter_ms is not None and not 0 <= jitter_ms < np.inf:
        raise ValueError("jitter must be non-negative and finite")
    if percent is not None and not 1 <= percent <= 100:
        raise ValueError("percent must be in [1, 100]")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")


def inject_jitter(
    trace: Trace,
    jitter_ms: float,
    rng: np.random.Generator,
    max_duration_ns: int = 45_000_000_000,
) -> Trace:
    """Add uniform [0, J] ms delay to every inter-arrival gap.

    The first cell stays at its timestamp; later cells shift by the
    accumulated jitter, so the trace only ever stretches. Cells pushed
    past ``max_duration_ns`` are dropped. J = 0 returns the trace as is.
    """
    check_params(jitter_ms=jitter_ms)
    n = len(trace)
    if jitter_ms == 0 or n < 2:
        return trace
    # one sized draw gives the same values as n - 1 scalar draws in turn
    shift = np.cumsum(np.rint(rng.uniform(0.0, jitter_ms, size=n - 1) * MS).astype(np.int64))
    timestamps = trace.timestamps.copy()
    timestamps[1:] += shift
    kept = timestamps - timestamps[0] <= max_duration_ns
    return trace.with_cells(timestamps[kept], trace.directions[kept])


def truncate_percent(trace: Trace, percent: float) -> Trace:
    """Keep the first ``percent`` of cells (floor, at least one cell)."""
    check_params(percent=percent)
    keep = max(1, int(len(trace) * percent // 100))
    if keep >= len(trace):
        return trace
    return trace.with_cells(trace.timestamps[:keep], trace.directions[:keep])


def truncate_length(trace: Trace, max_len: int = 5000) -> Trace:
    """Keep the first ``max_len`` cells."""
    check_params(max_len=max_len)
    if len(trace) <= max_len:
        return trace
    return trace.with_cells(trace.timestamps[:max_len], trace.directions[:max_len])
