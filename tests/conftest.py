"""Shared builders and the acceptance-criteria summary."""

from __future__ import annotations

import numpy as np

from guardsift.trace import CellRecord, Channel, Circuit

SEC = 1_000_000_000
MS = 1_000_000


def circuit_from_dirs(directions, circuit_id=1, channel_id=1, gaps_ns=None, start=0):
    """Circuit whose cells follow the given direction pattern.

    ``gaps_ns`` gives the delay before each cell after the first; defaults
    to 1 ms per step.
    """
    cells = []
    t = start
    for i, d in enumerate(directions):
        if i > 0:
            t += gaps_ns[i - 1] if gaps_ns else MS
        cells.append(CellRecord(channel_id, circuit_id, t, d))
    return Circuit.from_records(circuit_id, cells)


def channel_of(*circuits, channel_id=1, auth=False, tag=""):
    ch = Channel(channel_id, relay_authenticated=auth, source_tag=tag)
    for c in circuits:
        ch.circuits[c.circuit_id] = c
    return ch


def random_trace_cells(rng: np.random.Generator, n=None, with_gaps=False):
    """Sorted (ts, dir) cells; optionally salted with multi-second gaps."""
    if n is None:
        n = int(rng.integers(4, 400))
    gaps = rng.integers(100_000, 80_000_000, n - 1) if n > 1 else []
    cells = [(0, 1)]
    t = 0
    for i, g in enumerate(gaps):
        t += int(g)
        if with_gaps and rng.random() < 0.02:
            t += int(rng.uniform(5, 12) * SEC)
        cells.append((t, 1 if rng.random() < 0.5 else -1))
    return tuple(cells)


# --- acceptance summary ---------------------------------------------------------

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        name = report.nodeid.split("::")[-1]
        outcome = report.outcome.upper()
        if name not in _ACCEPTANCE_RESULTS or outcome == "FAILED":
            _ACCEPTANCE_RESULTS[name] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        marker = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{name}: {marker}")
