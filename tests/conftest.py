"""Shared builders and the acceptance-criteria summary."""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

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


def channel_of(*circuits, channel_id=1, auth=False):
    ch = Channel(channel_id, relay_authenticated=auth)
    for c in circuits:
        ch.circuits[c.circuit_id] = c
    return ch


# --- tuple-cell oracles: the list implementations the array code replaced -------


def oracle_last_gap_index(cells, gap_ns):
    """Index i of the last pair with cells[i+1].ts - cells[i].ts >= gap_ns."""
    for i in range(len(cells) - 2, -1, -1):
        if cells[i + 1][0] - cells[i][0] >= gap_ns:
            return i
    return None


def oracle_prune_close_tail(cells, gap_ns, max_tail_cells, max_tail_duration_ns):
    """Drop a trailing outgoing-led burst after the last idle gap when it is
    short in cells or in duration."""
    cells = list(cells)
    idx = oracle_last_gap_index(cells, gap_ns)
    if idx is None:
        return cells, False
    tail = cells[idx + 1 :]
    if tail[0][1] != 1:
        return cells, False
    tail_duration = tail[-1][0] - tail[0][0]
    if len(tail) < max_tail_cells or tail_duration < max_tail_duration_ns:
        return cells[: idx + 1], True
    return cells, False


def oracle_tail_stages(cells, config, tail_trimmed=False):
    """Teardown, shutdown tail, duration cap and length cap over a cell list;
    returns the kept cells and whether the shutdown tail was pruned."""
    cells, pruned = list(cells), False
    if not tail_trimmed:
        cells = cells[:-2]
        if cells:
            cells, pruned = oracle_prune_close_tail(
                cells, config.tail_gap_ns, config.max_tail_cells, config.max_tail_duration_ns
            )
    if config.duration_cap_ns is not None:
        cells = [c for c in cells if c[0] <= config.duration_cap_ns]
    return cells[: config.max_len], pruned


def duration_ns(trace):
    """Last timestamp minus first, without int64 wrap; 0 for an empty trace."""
    return int(trace.timestamps[-1]) - int(trace.timestamps[0]) if len(trace) else 0


def oracle_trace_id(cells):
    """Content hash over each cell's direction as one signed byte, then each
    cell's inter-arrival gap as a little-endian uint64 (0 for the first),
    one ``struct.pack`` per value."""
    h = hashlib.sha256()
    for _, direction in cells:
        h.update(struct.pack("<b", direction))
    prev = cells[0][0] if cells else 0
    for ts, _ in cells:
        h.update(struct.pack("<Q", ts - prev))
        prev = ts
    return h.hexdigest()[:16]


def oracle_trace_line(phase, label, cells):
    """One NDJSON line as json.dumps renders the payload dict."""
    payload = {"phase": phase, "label": label, "cells": [[ts, d] for ts, d in cells]}
    return json.dumps(payload, separators=(",", ":"))


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(args, cwd, stdin: str | None = None):
    """``python *args`` in a fresh interpreter that imports guardsift from
    this checkout, with ``stdin`` piped to it."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        input=stdin, capture_output=True, text=True, timeout=60,
    )


#: any JSON document, for fuzzing the readers of JSON inputs
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)


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
