"""Linked-leg analysis: primary-leg ground truth and guard-side detection.

Typed client-side cells reveal which leg each endpoint favored when a page
load started; the guard, seeing only directions and timing on its own leg,
has to infer the same thing from traffic shape.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import GuardsiftError
from .trace import INCOMING, OUTGOING, Circuit


class CellTypeCode(IntEnum):
    """Relay cell commands the analysis relies on."""

    RELAY_BEGIN = 1
    RELAY_DATA = 2
    RELAY_CONNECTED = 4
    RELAY_SENDME = 5
    CFX_LINK = 19
    CFX_LINKED = 20
    CFX_LINKED_ACK = 21
    CFX_SWITCH = 22


@dataclass(frozen=True)
class PrimaryLegVerdict:
    """Which leg each endpoint used first; both None if neither saw data."""

    client_primary: int | None
    exit_primary: int | None


def strip_conflux_handshake(leg: Circuit) -> Circuit:
    """Drop everything up to and including the first link-ack cell."""
    if leg.cell_types is not None:
        acks = np.flatnonzero(leg.cell_types == CellTypeCode.CFX_LINKED_ACK)
        if len(acks):
            return leg.tail(int(acks[0]) + 1)
    raise GuardsiftError(f"leg {leg.circuit_id} has no link-ack cell")


def _opens_with_begin(leg: Circuit) -> bool:
    return leg.cell_types is not None and leg.cell_types[0] == CellTypeCode.RELAY_BEGIN


def identify_primary_legs(leg_a: Circuit, leg_b: Circuit) -> PrimaryLegVerdict:
    """Recover both endpoints' initial primary leg from typed cells.

    Both legs must already be stripped of the link handshake. The client
    primary is the leg opening with RELAY_BEGIN. The exit primary follows
    from ordering: the client cannot send RELAY_DATA before RELAY_CONNECTED
    arrives, so an outgoing data cell right after the begins means the
    connected answer came in on the other leg.
    """
    if not len(leg_a) or not len(leg_b):
        raise GuardsiftError("a leg is empty after handshake strip")
    if _opens_with_begin(leg_a):
        client, secondary = leg_a, leg_b
    elif _opens_with_begin(leg_b):
        client, secondary = leg_b, leg_a
    else:
        return PrimaryLegVerdict(None, None)

    after_begins = np.flatnonzero(client.cell_types != CellTypeCode.RELAY_BEGIN)
    target = int(after_begins[0]) if len(after_begins) else None
    if (
        target is not None
        and client.directions[target] == OUTGOING
        and client.cell_types[target] == CellTypeCode.RELAY_DATA
    ):
        exit_primary = secondary.circuit_id
    else:
        # an incoming connected/switch answer (or nothing after the begins)
        # means the exit answered on the same leg the client favored
        exit_primary = client.circuit_id
    return PrimaryLegVerdict(client.circuit_id, exit_primary)


def detect_first_segment(directions: np.ndarray) -> bool:
    """Guard-side first-segment test on a head-trimmed leg's directions.

    Holds when (1) the first cell after the link handshake is outgoing,
    (2) an incoming cell appears within the first 10 cells, and (3) an
    outgoing cell appears within the 10 cells right after that first
    incoming one. Missing evidence counts against.
    """
    if not len(directions) or directions[0] != OUTGOING:
        return False
    incoming = np.flatnonzero(directions[:10] == INCOMING)
    if not len(incoming):
        return False
    first_in = int(incoming[0])
    return bool((directions[first_in + 1 : first_in + 11] == OUTGOING).any())


def fs_ground_truth(verdict: PrimaryLegVerdict, guard_leg_id: int) -> bool:
    """True iff the guard's leg was the initial primary for both endpoints."""
    if verdict.client_primary is None:
        raise GuardsiftError("a set neither endpoint used has no first-segment truth")
    return verdict.client_primary == guard_leg_id == verdict.exit_primary


def leg_coverage(guard_cells: int, full_cells: int) -> float:
    """Fraction of the full page load's ``full_cells`` that the guard's leg
    carries (``guard_cells``)."""
    if not full_cells:
        raise GuardsiftError("full client trace is empty")
    return min(1.0, max(0.0, guard_cells / full_cells))


@dataclass(frozen=True)
class SetAnalysis:
    set_id: str
    client_primary: int | None
    exit_primary: int | None
    fs_detected: bool
    fs_truth: bool | None
    coverage: float


def analyze_set(
    set_id: str, leg_a: Circuit, leg_b: Circuit, guard_directions: np.ndarray, guard_leg_id: int
) -> SetAnalysis:
    """Full per-set report row: verdicts, detection, and coverage.

    ``leg_a`` and ``leg_b`` are the client's typed legs, handshake included;
    ``guard_directions`` are the directions of leg ``guard_leg_id`` as the
    guard saw it, head-trimmed (``trim_head``). Coverage counts the client
    legs' cells after the link-ack.
    """
    leg_a, leg_b = strip_conflux_handshake(leg_a), strip_conflux_handshake(leg_b)
    verdict = identify_primary_legs(leg_a, leg_b)
    truth = None if verdict.client_primary is None else fs_ground_truth(verdict, guard_leg_id)
    detected = detect_first_segment(guard_directions)
    coverage = leg_coverage(len(guard_directions), len(leg_a) + len(leg_b))
    return SetAnalysis(
        set_id=set_id,
        client_primary=verdict.client_primary,
        exit_primary=verdict.exit_primary,
        fs_detected=detected,
        fs_truth=truth,
        coverage=coverage,
    )


def write_analysis_csv(rows: Iterable[SetAnalysis], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["set_id", "client_primary", "exit_primary", "fs_detected", "fs_truth", "coverage"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.set_id,
                    "" if row.client_primary is None else row.client_primary,
                    "" if row.exit_primary is None else row.exit_primary,
                    int(row.fs_detected),
                    "" if row.fs_truth is None else int(row.fs_truth),
                    f"{row.coverage:.6f}",
                ]
            )
