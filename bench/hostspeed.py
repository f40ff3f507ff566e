"""A fixed probe of how fast the host runs right now.

The reference host's cores are shared with other tenants. Their speed
switches between fast and slow stretches, a third apart, and drifts by as
much over minutes, so the same subcommand on the same input takes up to a
third longer from one run to the next. CPU time tracks wall time, so the
slowdown is not waiting: everything on the core runs slower.

The benchmark times this probe in its own process just before each
subcommand and scales the subcommand's wall time to the reference speed:
``wall_s * REFERENCE_S / probe_s``. On a host running at the reference
speed that is the wall time itself. The probe mixes the kinds of work the
pipeline does: an interpreter loop, per-line string parsing into dicts and
lists, and numpy sorting and scans. Its data stay small (a few MB): a
child process's peak RSS, as ``os.wait4`` reports it, is never below the
benchmark process's own peak.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's median time on the reference host (Intel Xeon, 2.1 GHz, two cores)
REFERENCE_S = 0.12

_LINES = [f"{i},{i * 7919 % 100000},{1 if i % 3 else -1},{i % 13}" for i in range(5_000)]
_VALUES = np.random.default_rng(0).random(250_000)


def _interpreter_loop() -> int:
    total = 0
    for i in range(600_000):
        total += i * i % 7
    return total


def _parse_lines() -> int:
    total = 0
    for _ in range(8):
        by_key: dict[int, list[tuple[int, int]]] = {}
        for line in _LINES:
            _, ts, direction, key = line.split(",")
            by_key.setdefault(int(key), []).append((int(ts), int(direction)))
        total += len(by_key)
    return total


def _numpy_scan() -> int:
    total = 0
    for _ in range(8):
        sums = np.cumsum(np.sort(_VALUES))
        total += int(np.count_nonzero(np.diff(sums) > 0.5))
    return total


def probe_s() -> float:
    """Wall time of one fixed round of mixed work, about REFERENCE_S here."""
    start = time.perf_counter()
    _interpreter_loop()
    _parse_lines()
    _numpy_scan()
    return time.perf_counter() - start


def at_reference_speed(wall_s: float, probe: float) -> float:
    """``wall_s`` scaled from the speed the probe saw to the reference speed."""
    return wall_s * REFERENCE_S / probe
