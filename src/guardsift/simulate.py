"""Synthetic guard and client traffic with a ground-truth sidecar.

The generator stands in for live relay data: it emits the guard cell log,
the typed client log, the visit log, and a ``truth.json`` sidecar that
records, per circuit, what the sanitization pipeline should decide about
it. Each channel draws from its own seed, derived from the scenario seed
and the channel's index, so the output is byte-identical for a given seed.

Single-leg circuits are int64 arrays of cell rows whose random draws match
a cell-by-cell pass draw for draw; the logs are merged and written from
int64 columns.

Traffic model, deliberately minimal: page loads are bursts of a few
outgoing request cells answered by a stream of incoming cells, with flow
control acknowledged every ``sendme_interval`` cells. Linked two-leg
connections schedule each cell on the leg whose currently estimated RTT
is lowest among legs with congestion-window space. That choice changes
only when an acknowledgment falls due, when the chosen leg's window runs
out, or at a SENDME boundary, so the scheduler sends every cell up to
the next such event as one run: its times come from the running sum of
the plan's spacing, and the earliest pending acknowledgment cuts it.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .conflux import CellTypeCode
from .errors import ConfigError, read_config
from .trace import INCOMING, OUTGOING, POST, PRE, Stage

MS = 1_000_000
SEC = 1_000_000_000

# synthetic codes for link-level cells; relay commands use CellTypeCode
CELL_CREATE = 200
CELL_CREATED = 201
CELL_DESTROY = 202

#: one generated cell event: (timestamp_ns, direction, cell_type)
CellEv = tuple[int, int, int]

KIND_MONITORED = "monitored"
KIND_NONMON = "nonmon"
KIND_SPAM = "spam"
KIND_RELAY = "relay"

_CIRCUIT_BLOCK_BITS = 17  # per-channel circuit-id block; caps circuits per channel


@dataclass
class ScenarioConfig:
    """Knobs for one generated dataset. Defaults give a small mixed load."""

    seed: int = 0
    phase: str = PRE
    client_tag: str = "sim"
    n_pages: int = 5
    n_visits_per_page: int = 10
    page_cell_range: tuple[int, int] = (300, 1500)
    visits_per_channel: int = 40
    retry_prob: float = 0.15
    altsvc_prob: float = 0.15
    redirect_prob: float = 0.1
    n_nonmon_channels: int = 20
    nonmon_circuits_range: tuple[int, int] = (1, 6)
    nonmon_cell_range: tuple[int, int] = (220, 900)
    nonmon_small_fraction: float = 0.5
    invalid_handshake_fraction: float = 0.0
    conflux_nonmon_fraction: float = 0.4
    spam_channel_fraction: float = 0.0
    spam_circuit_range: tuple[int, int] = (10_001, 10_200)
    relay_auth_channels: int = 0
    prebuilt_idle_range_s: tuple[float, float] = (6.0, 180.0)
    monitored_idle_range_s: tuple[float, float] = (6.0, 25.0)
    close_tail_fraction: float = 0.5
    close_tail_qualify_fraction: float = 0.75
    leg_rtt_ms: tuple[float, float] = (60.0, 60.0)
    competitor_rtt_delta_ms: float = 0.0
    rtt_noise_ms: float = 25.0
    sendme_interval: int = 100
    initial_cwnd: int = 1000
    exit_switch_prob: float = 0.0
    reorder_prob: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self):
        if self.phase not in (PRE, POST):
            raise ConfigError(f"phase must be 'pre' or 'post', got {self.phase!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in (
            "retry_prob", "altsvc_prob", "redirect_prob", "nonmon_small_fraction",
            "invalid_handshake_fraction", "conflux_nonmon_fraction",
            "spam_channel_fraction", "close_tail_fraction",
            "close_tail_qualify_fraction", "exit_switch_prob",
            "reorder_prob", "drop_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.sendme_interval < 1:
            raise ConfigError("sendme_interval must be >= 1")
        if self.initial_cwnd < self.sendme_interval:
            raise ConfigError("initial_cwnd must be at least one sendme interval")
        if self.n_pages < 1 or self.n_visits_per_page < 0:
            raise ConfigError("page and visit counts must be positive")
        if self.visits_per_channel < 1:
            raise ConfigError("visits_per_channel must be >= 1")
        for name in (
            "page_cell_range", "nonmon_cell_range", "nonmon_circuits_range",
            "spam_circuit_range", "prebuilt_idle_range_s", "monitored_idle_range_s",
            "leg_rtt_ms",
        ):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be a [low, high] pair") from None
            if lo > hi:
                raise ConfigError(f"{name} range is inverted")
            setattr(self, name, (lo, hi))
        if self.spam_circuit_range[1] >= 2**_CIRCUIT_BLOCK_BITS:
            raise ConfigError("spam_circuit_range exceeds the per-channel id block")
        # a monitored channel draws ids for up to 4 (pre) or 2 (post) circuits per visit, plus slack
        visits = min(self.visits_per_channel, self.n_pages * self.n_visits_per_page)
        for name, ids in (
            ("nonmon_circuits_range", self.nonmon_circuits_range[1]),
            ("visits_per_channel", (4 if self.phase == PRE else 2) * (visits + 1)),
        ):
            if ids > 2**_CIRCUIT_BLOCK_BITS:
                raise ConfigError(
                    f"{name} needs {ids} circuit ids per channel, more than the"
                    f" {2**_CIRCUIT_BLOCK_BITS} of the per-channel id block"
                )

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        return read_config(path, "scenario", cls)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in key)))


def _ui(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _uf(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# --- page models --------------------------------------------------------------


@dataclass(frozen=True)
class PageModel:
    """Burst skeleton of one monitored page."""

    label: str
    bursts: tuple[tuple[int, int, float], ...]  # (outgoing, incoming, think_ms)

    @property
    def total_cells(self) -> int:
        return sum(o + i for o, i, _ in self.bursts)


def page_model(seed: int, page_idx: int, cell_range: tuple[int, int]) -> PageModel:
    """Deterministic per-page burst structure; the page's fingerprint."""
    rng = _rng(seed, 0xA6E, page_idx)
    bursts = _burst_skeleton(rng, _ui(rng, *cell_range), (24, 140), (40.0, 900.0))
    return PageModel(label=f"site{page_idx:03d}.example", bursts=bursts)


def _page_models(config: ScenarioConfig, n_visits: int) -> list[PageModel]:
    """The models of the pages ``n_visits`` round-robin visits load, by page index."""
    return [
        page_model(config.seed, page, config.page_cell_range)
        for page in range(min(config.n_pages, n_visits))
    ]


def _burst_skeleton(
    rng: np.random.Generator,
    total: int,
    incoming: tuple[int, int] = (10, 120),
    think_ms: tuple[float, float] = (30.0, 1200.0),
) -> tuple[tuple[int, int, float], ...]:
    """``total`` cells as bursts of 1-6 outgoing cells, then up to ``incoming``
    cells and a think time in ``think_ms``; the defaults are unlabeled traffic's."""
    bursts = []
    remaining = total
    while remaining > 0:
        out = min(_ui(rng, 1, 6), remaining)
        remaining -= out
        inc = min(_ui(rng, *incoming), remaining)
        remaining -= inc
        bursts.append((out, inc, _uf(rng, *think_ms)))
    return tuple(bursts)


# --- lowest-RTT scheduling ------------------------------------------------------

#: the offsets of a run of one cell, sent at the run's base time
_ONE_CELL = (0,)


class LowRttScheduler:
    """One sender's leg choice: lowest estimated RTT among legs with window space.

    Every ``sendme_interval`` cells sent on a leg, an acknowledgment
    returns one true RTT later; it replenishes the window and feeds a new
    RTT sample into an exponential moving average (alpha = 0.5). Ties in
    the estimate go to the first leg. When every leg is blocked, sending
    stalls until the earliest pending acknowledgment.

    The choice can change only when an acknowledgment falls due, when the
    chosen leg's window runs out, or at a SENDME boundary, so ``send``
    sends every cell up to the next such event as one run on one leg.
    """

    def __init__(
        self,
        true_rtts_ms: Sequence[float],
        rtt_ms: Sequence[float],
        cwnd: Sequence[int],
        sendme_interval: int = 100,
        rtt_sampler: Callable[[int, int], float] | None = None,
    ):
        true_rtts = tuple(float(r) for r in true_rtts_ms)
        self.ack_ns = [int(r * MS) for r in true_rtts]
        self.rtt_ms = list(rtt_ms)  # per leg: the estimate
        self.cwnd = list(cwnd)  # per leg: cells it may still send
        self.since_sendme = [0] * len(self.cwnd)  # per leg: cells since its last SENDME boundary
        self.interval = sendme_interval
        self.sampler = rtt_sampler or (lambda leg, k: true_rtts[leg])
        self._sample_counts = [0] * len(self.cwnd)
        self._pending: list[tuple[int, int]] = []  # heap of (ack_ts, leg)
        self._last_leg: int | None = None
        self._cells = 0
        self.switches: list[int] = []  # index of each cell sent on another leg than the one before

    def _process_acks(self, now: int) -> None:
        pending = self._pending
        while pending and pending[0][0] <= now:
            _, leg = heapq.heappop(pending)
            self.cwnd[leg] += self.interval
            k = self._sample_counts[leg]
            self._sample_counts[leg] += 1
            self.rtt_ms[leg] = 0.5 * self.rtt_ms[leg] + 0.5 * self.sampler(leg, k)

    def _choose(self) -> int | None:
        best = None
        for leg, cwnd in enumerate(self.cwnd):
            if cwnd > 0 and (best is None or self.rtt_ms[leg] < self.rtt_ms[best]):
                best = leg
        return best

    def send(
        self,
        t: int,
        spacing: Sequence[int],
        legs: Sequence[list],
        cell: tuple[int, int],
        sendme_lag_ns: Sequence[int] | None = None,
    ) -> tuple[int, int | None]:
        """Send ``len(spacing)`` cells of one (direction, cell_type): the first
        at or after ``t``, each next one ``spacing[j]`` after cell ``j`` went out.

        Each run is appended to ``legs[leg]`` as ``(base, offsets, direction,
        cell_type)``: its cells went out at ``base + offset``. Where a run
        completes a SENDME interval and ``sendme_lag_ns`` gives a lag per
        leg, a one-cell SENDME run in the other direction follows it, that
        long after its last cell. Returns the time after the last spacing
        and the leg of the first cell.
        """
        direction, cell_type = cell
        offsets = list(accumulate(spacing, initial=0))
        base = t  # cell j goes out at base + offsets[j]; a stall moves base later
        pending = self._pending
        first_leg = None
        i, n = 0, len(spacing)
        while i < n:
            now = base + offsets[i]
            self._process_acks(now)
            leg = self._choose()
            while leg is None:
                if not pending:
                    raise RuntimeError("every leg is blocked and no acknowledgment pending")
                now = pending[0][0]
                base = now - offsets[i]
                self._process_acks(now)
                leg = self._choose()
            stop = min(n, i + self.cwnd[leg], i + self.interval - self.since_sendme[leg])
            if pending:  # a cell sent at or after the next acknowledgment sees it first
                stop = bisect_left(offsets, pending[0][0] - base, i + 1, stop)
            sent = stop - i
            self.cwnd[leg] -= sent
            self.since_sendme[leg] += sent
            if leg != self._last_leg:
                if self._last_leg is not None:
                    self.switches.append(self._cells)
                self._last_leg = leg
            if i == 0:
                first_leg = leg
            self._cells += sent
            legs[leg].append((base, offsets[i:stop], direction, cell_type))
            if self.since_sendme[leg] == self.interval:
                self.since_sendme[leg] = 0
                last = base + offsets[stop - 1]
                heapq.heappush(pending, (last + self.ack_ns[leg], leg))
                if sendme_lag_ns is not None:  # the SENDME travels the other way
                    sendme = (-direction, int(CellTypeCode.RELAY_SENDME))
                    legs[leg].append((last + sendme_lag_ns[leg], _ONE_CELL, *sendme))
            i = stop
        return base + offsets[n], first_leg


# --- single-leg circuits --------------------------------------------------------


@dataclass(frozen=True)
class TailPlan:
    qualifies: bool
    incoming_led: bool
    n_cells: int
    duration_ns: int
    gap_ns: int


def _plan_tail(rng: np.random.Generator, config: ScenarioConfig) -> TailPlan | None:
    """Decide whether and how a circuit ends in browser-shutdown traffic."""
    if rng.random() >= config.close_tail_fraction:
        return None
    gap = int(_uf(rng, 5.5, 9.5) * SEC)
    if rng.random() < config.close_tail_qualify_fraction:
        variant = _ui(rng, 0, 2)
        if variant == 0:  # short and quick
            n, duration = _ui(rng, 3, 40), int(_uf(rng, 0.05, 0.8) * SEC)
        elif variant == 1:  # many cells but quick
            n, duration = _ui(rng, 100, 150), int(_uf(rng, 0.4, 0.9) * SEC)
        else:  # few cells but slow
            n, duration = _ui(rng, 3, 60), int(_uf(rng, 1.5, 3.0) * SEC)
        return TailPlan(True, False, n, duration, gap)
    if rng.random() < 0.5:  # wrong lead direction
        n, duration = _ui(rng, 3, 40), int(_uf(rng, 0.05, 0.8) * SEC)
        return TailPlan(False, True, n, duration, gap)
    # too long in both cells and duration
    n, duration = _ui(rng, 110, 180), int(_uf(rng, 1.3, 2.8) * SEC)
    return TailPlan(False, False, n, duration, gap)


def _check_int64(t: int, span: int) -> None:
    """Numpy int64 sums wrap where Python ints grow: refuse times that could."""
    if abs(t) + span >= 2**63:
        raise OverflowError(f"times within {span} ns of {t} leave the int64 range")


def _emit_tail(rng: np.random.Generator, t: int, plan: TailPlan) -> tuple[np.ndarray, int]:
    n = plan.n_cells
    start = t + plan.gap_ns
    _check_int64(start, plan.duration_ns + n)
    step = max(plan.duration_ns // max(n - 1, 1), 1)
    cells = np.empty((n, 3), dtype=np.int64)
    cells[:, 0] = start + step * np.arange(n)
    cells[:1, 1] = INCOMING if plan.incoming_led else OUTGOING
    cells[1:, 1] = np.where(rng.random(max(n - 1, 0)) < 0.6, OUTGOING, INCOMING)
    cells[:, 2] = CellTypeCode.RELAY_DATA
    end = start + plan.duration_ns if n > 1 else start + n * step
    if n > 1:
        cells[-1, 0] = end  # pin the span so sub-second variants stay sub-second
    return cells, end


def _emit_bursts(
    rng: np.random.Generator,
    t: int,
    bursts: Sequence[tuple[int, int, float]],
    rtt_ms: float,
    sendme_interval: int,
) -> tuple[np.ndarray, int]:
    """Single-leg page payload: request bursts, responses, flow control.

    Each cell draws the gap after it, in emission order, all in one call:
    per-cell bounds give the same stream as one scalar draw per cell. A cell
    is sent at ``t`` plus every gap and wait before it, and a SENDME follows
    every ``sendme_interval``-th incoming cell 0.3 ms later. Returns the
    cells in emission order and the time after the last gap.
    """
    if not bursts:
        return np.empty((0, 3), dtype=np.int64), t
    # per burst: its outgoing cells, one wait, its incoming cells
    lengths = [n for out, inc, _ in bursts for n in (out, 1, inc)]
    kinds = np.repeat(np.tile([OUTGOING, 0, INCOMING], len(bursts)), lengths)
    sent = kinds != 0
    outgoing = kinds[sent] == OUTGOING
    steps = np.empty(len(kinds), dtype=np.int64)
    low, high = np.where(outgoing, 200_000, 300_000), np.where(outgoing, 1_200_001, 1_000_001)
    steps[sent] = rng.integers(low, high)
    waits = [int(rtt_ms * MS) + int(think_ms * MS) for _, _, think_ms in bursts]
    _check_int64(t, sum(map(abs, waits)) + 1_200_000 * len(kinds))
    steps[~sent] = waits
    clock = t + np.cumsum(steps)
    cells = np.empty((len(outgoing), 3), dtype=np.int64)
    cells[:, 0] = (clock - steps)[sent]
    cells[:, 1] = kinds[sent]
    cells[:, 2] = CellTypeCode.RELAY_DATA
    due = np.flatnonzero(~outgoing)[sendme_interval - 1 :: sendme_interval]
    sendmes = cells[due]
    sendmes[:, 0] += 300_000
    sendmes[:, 1:] = (OUTGOING, CellTypeCode.RELAY_SENDME)
    return np.insert(cells, due + 1, sendmes, axis=0), int(clock[-1])


SHAPE_PRE = "pre"  # create/created then payload
SHAPE_POST_PLAIN = "post_plain"  # create/created, idle, begin/connected, payload
SHAPE_POST_LEG = "post_leg"  # create/created/link/linked/link-ack, idle, payload


@dataclass
class EmittedCircuit:
    cells: np.ndarray  # int64 rows in time order: timestamp, direction[, cell_type]
    valid: bool
    payload_start: int
    payload_end: int


def _emit_plain_circuit(
    rng: np.random.Generator,
    config: ScenarioConfig,
    t0: int,
    bursts: Sequence[tuple[int, int, float]],
    idle_ns: int = 0,
    invalid_kind: int = 0,
    tail: TailPlan | None = None,
    shape: str = SHAPE_PRE,
) -> EmittedCircuit:
    """Emit a full circuit at the scenario's first leg RTT: opening, payload,
    optional tail, teardown.

    The circuit sits ``idle_ns`` (0: a drawn 0.5-3 ms) between its opening
    and first use. ``invalid_kind`` 1 swaps the opening's directions, and 2
    sends an incoming cell where an outgoing one is due, so ``valid`` states
    whether the guard-visible opening is protocol-conformant for the shape.
    """
    rtt_ms = config.leg_rtt_ms[0]
    rtt_ns = int(rtt_ms * MS)
    d1, d2 = (INCOMING, OUTGOING) if invalid_kind == 1 else (OUTGOING, INCOMING)
    opening: list[CellEv] = [(t0, d1, CELL_CREATE), (t0 + rtt_ns, d2, CELL_CREATED)]
    t = t0 + rtt_ns
    if shape == SHAPE_POST_LEG:
        # linked legs are built and linked in one go; idle comes after
        t += _ui(rng, 1_000_000, 2_200_000)
        opening.append((t, OUTGOING, int(CellTypeCode.CFX_LINK)))
        t += rtt_ns
        opening.append((t, INCOMING, int(CellTypeCode.CFX_LINKED)))
        t += _ui(rng, 1_000_000, 2_200_000)
        opening.append((t, INCOMING if invalid_kind == 2 else OUTGOING, int(CellTypeCode.CFX_LINKED_ACK)))
    t += idle_ns or _ui(rng, 500_000, 3_000_000)
    if shape == SHAPE_POST_PLAIN:
        # a plain circuit shows the same five-cell shape, but it sat idle
        # between construction and first use
        opening.append((t, OUTGOING, int(CellTypeCode.RELAY_BEGIN)))
        t += rtt_ns
        opening.append((t, INCOMING, int(CellTypeCode.RELAY_CONNECTED)))
        t += _ui(rng, 800_000, 2_200_000)
    if invalid_kind == 2 and shape != SHAPE_POST_LEG:
        opening.append((t, INCOMING, int(CellTypeCode.RELAY_DATA)))
        t += _ui(rng, 300_000, 1_000_000)
    payload_start = t
    payload, t = _emit_bursts(rng, t, bursts, rtt_ms, config.sendme_interval)
    parts = [np.array(opening, dtype=np.int64), payload]
    payload_end = int(payload[:, 0].max()) if len(payload) else t
    if tail is not None:
        tail_cells, t = _emit_tail(rng, t, tail)
        parts.append(tail_cells)
    t += _ui(rng, 100_000_000, 1_500_000_000)
    teardown = (t, OUTGOING, CELL_DESTROY), (t + _ui(rng, 1_000_000, 20_000_000), INCOMING, CELL_DESTROY)
    parts.append(np.array(teardown, dtype=np.int64))
    cells = np.concatenate(parts)
    cells = cells[np.argsort(cells[:, 0], kind="stable")]
    return EmittedCircuit(cells, invalid_kind == 0, payload_start, payload_end)


# --- linked two-leg visits -------------------------------------------------------


@dataclass(frozen=True)
class ConfluxVisitPlan:
    """Pre-drawn randomness for one linked visit.

    Every draw happens here, in a fixed order independent of scheduling
    outcomes, so the same plan replays under different RTT deltas with
    identical noise. Index 0 is the leg through the observed guard.
    """

    page: PageModel
    t0: int
    rtt_base_ms: tuple[float, float]
    idle_ns: int
    n_begins: int
    client_init_noise: tuple[float, float]
    exit_init_noise: tuple[float, float]
    client_noise: tuple[tuple[float, ...], tuple[float, ...]]
    exit_noise: tuple[tuple[float, ...], tuple[float, ...]]
    exit_switch_flags: tuple[bool, ...]
    out_spacing: tuple[int, ...]
    in_spacing: tuple[int, ...]
    turnaround_ns: tuple[int, ...]


def plan_conflux_visit(
    rng: np.random.Generator, config: ScenarioConfig, page: PageModel, t0: int
) -> ConfluxVisitPlan:
    total_out = sum(o for o, _, _ in page.bursts) + 3
    total_in = sum(i for _, i, _ in page.bursts)
    n_samples = (total_out + total_in) // config.sendme_interval + 4
    wander = _uf(rng, -8.0, 8.0)
    rtts = (
        max(config.leg_rtt_ms[0] + wander, 2.0),
        max(config.leg_rtt_ms[1] + wander + _uf(rng, -4.0, 4.0), 2.0),
    )
    noise = config.rtt_noise_ms

    def draw_pair(count):
        return (
            tuple(rng.normal(0.0, noise, count).tolist()),
            tuple(rng.normal(0.0, noise, count).tolist()),
        )

    client_noise = draw_pair(n_samples)
    exit_noise = draw_pair(n_samples)
    init_c = (float(rng.normal(0.0, noise)), float(rng.normal(0.0, noise)))
    init_x = (float(rng.normal(0.0, noise)), float(rng.normal(0.0, noise)))
    switch_flags = tuple(bool(rng.random() < config.exit_switch_prob) for _ in range(n_samples))
    out_spacing = tuple(rng.integers(200_000, 1_200_000, total_out).tolist())
    in_spacing = tuple(rng.integers(300_000, 1_000_000, total_in).tolist())
    turnarounds = tuple(rng.integers(1_000_000, 2_200_000, 8).tolist())
    return ConfluxVisitPlan(
        page=page,
        t0=t0,
        rtt_base_ms=rtts,
        idle_ns=int(_uf(rng, *config.monitored_idle_range_s) * SEC),
        n_begins=_ui(rng, 1, 3),
        client_init_noise=init_c,
        exit_init_noise=init_x,
        client_noise=client_noise,
        exit_noise=exit_noise,
        exit_switch_flags=switch_flags,
        out_spacing=out_spacing,
        in_spacing=in_spacing,
        turnaround_ns=turnarounds,
    )


def _leg_cells(runs: Sequence[tuple]) -> np.ndarray:
    """A leg's runs as int64 (n, 3) rows of timestamp, direction, cell_type,
    stably sorted by timestamp, so cells sent at one time keep send order.

    A visit's last run, its second DESTROY, holds the latest time as its
    base, so a time past the int64 range raises ``OverflowError`` here
    rather than wrapping.
    """
    bases, offsets, directions, cell_types = zip(*runs)
    sizes = [len(o) for o in offsets]
    cells = np.repeat(np.array((bases, directions, cell_types), dtype=np.int64), sizes, axis=1).T
    cells[:, 0] += np.fromiter(chain.from_iterable(offsets), np.int64, len(cells))
    return cells[np.argsort(cells[:, 0], kind="stable")]


@dataclass
class ConfluxVisitSim:
    """Simulated linked visit: per-leg typed cells plus scheduler truth."""

    leg_runs: tuple[list, list]  # per leg, (base, offsets, direction, cell_type) runs in send order
    client_primary: int  # leg index
    exit_primary: int
    fs: bool
    guard_cells: int  # data-phase cells on leg 0
    full_cells: int  # data-phase cells on both legs
    switches: int

    @cached_property
    def leg_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Per leg, the cells as ``_leg_cells`` rows; the sweep never builds them."""
        return _leg_cells(self.leg_runs[0]), _leg_cells(self.leg_runs[1])


def _array_sampler(arrays: tuple[tuple[float, ...], tuple[float, ...]], rtts, flags=None):
    def sample(leg: int, k: int) -> float:
        value = rtts[leg] + arrays[leg][k % len(arrays[leg])]
        if flags is not None and flags[k % len(flags)] and leg == 0:
            value += 200.0  # transient penalty: forces an occasional switch
        return value

    return sample


def simulate_conflux_visit(
    plan: ConfluxVisitPlan, config: ScenarioConfig, delta_ms: float | None = None
) -> ConfluxVisitSim:
    """Replay a visit plan under a given competitor RTT handicap.

    The client sends BEGIN and request cells, the exit CONNECTED and
    response cells, each through its own scheduler, in runs.
    """
    if delta_ms is None:
        delta_ms = config.competitor_rtt_delta_ms
    rtts = (plan.rtt_base_ms[0], plan.rtt_base_ms[1] + delta_ms)
    rtt_ns = (int(rtts[0] * MS), int(rtts[1] * MS))
    legs: tuple[list, list] = ([], [])

    # both legs are built and linked together, then sit until use
    link_done = plan.t0
    for leg in (0, 1):
        t = plan.t0 + plan.turnaround_ns[leg]
        legs[leg].append((t, _ONE_CELL, OUTGOING, CELL_CREATE))
        t += rtt_ns[leg]
        legs[leg].append((t, _ONE_CELL, INCOMING, CELL_CREATED))
        t += plan.turnaround_ns[2 + leg]
        legs[leg].append((t, _ONE_CELL, OUTGOING, int(CellTypeCode.CFX_LINK)))
        t += rtt_ns[leg]
        legs[leg].append((t, _ONE_CELL, INCOMING, int(CellTypeCode.CFX_LINKED)))
        t += plan.turnaround_ns[4 + leg]
        legs[leg].append((t, _ONE_CELL, OUTGOING, int(CellTypeCode.CFX_LINKED_ACK)))
        link_done = max(link_done, t)

    cwnd = (config.initial_cwnd, config.initial_cwnd)
    client = LowRttScheduler(
        rtts,
        (rtts[0] + plan.client_init_noise[0], rtts[1] + plan.client_init_noise[1]),
        cwnd,
        config.sendme_interval,
        _array_sampler(plan.client_noise, rtts),
    )
    exit_side = LowRttScheduler(
        rtts,
        (rtts[0] + plan.exit_init_noise[0], rtts[1] + plan.exit_init_noise[1]),
        cwnd,
        config.sendme_interval,
        _array_sampler(plan.exit_noise, rtts, plan.exit_switch_flags),
    )
    # the client's SENDMEs come back one RTT later; the exit's go out at once
    client_lag, exit_lag = rtt_ns, (300_000, 300_000)

    begins = plan.n_begins
    t, client_primary = client.send(
        link_done + plan.idle_ns, plan.out_spacing[:begins], legs,
        (OUTGOING, int(CellTypeCode.RELAY_BEGIN)), client_lag,
    )
    t, exit_primary = exit_side.send(
        t + rtt_ns[client_primary], plan.turnaround_ns[6:7], legs,
        (INCOMING, int(CellTypeCode.RELAY_CONNECTED)),
    )
    data = int(CellTypeCode.RELAY_DATA)
    oidx, iidx = begins, 0
    for out, inc, think_ms in plan.page.bursts:
        t, _ = client.send(t, plan.out_spacing[oidx : oidx + out], legs, (OUTGOING, data), client_lag)
        oidx += out
        t += rtt_ns[exit_primary] + int(think_ms * MS)
        t, _ = exit_side.send(t, plan.in_spacing[iidx : iidx + inc], legs, (INCOMING, data), exit_lag)
        iidx += inc

    guard_cells, other_cells = (sum(len(run[1]) for run in runs) - 5 for runs in legs)
    for runs in legs:
        # spacings are positive, so a run's last cell is its latest
        end = max(base + offsets[-1] for base, offsets, _, _ in runs) + plan.turnaround_ns[7]
        runs.append((end, _ONE_CELL, OUTGOING, CELL_DESTROY))
        runs.append((end + 2_000_000, _ONE_CELL, INCOMING, CELL_DESTROY))
    return ConfluxVisitSim(
        leg_runs=legs,
        client_primary=client_primary,
        exit_primary=exit_primary,
        fs=(client_primary == 0 and exit_primary == 0),
        guard_cells=guard_cells,
        full_cells=guard_cells + other_cells,
        switches=len(client.switches) + len(exit_side.switches),
    )


# --- channel generation ------------------------------------------------------


@dataclass(frozen=True)
class ChannelPlan:
    index: int
    kind: str
    visits: tuple[tuple[int, int], ...] = ()  # (page_idx, visit_serial)


@dataclass
class ChannelOutput:
    channel_id: int
    kind: str
    relay_auth: bool = False
    # per circuit: (circuit_id, (n, 2) int64 rows of timestamp, direction)
    guard_cells: list = field(default_factory=list)
    # per leg: (circuit_id, (n, 3) int64 rows of timestamp, direction, cell_type)
    client_cells: list = field(default_factory=list)
    # (first_party, request_ts, target, circuit_id, leg_a, leg_b)
    visit_rows: list = field(default_factory=list)
    circuits: list = field(default_factory=list)  # truth dicts
    visit_truth: list = field(default_factory=list)
    set_truth: list = field(default_factory=list)


def _make_plans(config: ScenarioConfig) -> list[ChannelPlan]:
    plans: list[ChannelPlan] = []
    index = 0
    for _ in range(config.relay_auth_channels):
        plans.append(ChannelPlan(index, KIND_RELAY))
        index += 1
    # round-robin page schedule, split over channels
    schedule = [
        (page, rnd)
        for rnd in range(config.n_visits_per_page)
        for page in range(config.n_pages)
    ]
    for start in range(0, len(schedule), config.visits_per_channel):
        plans.append(
            ChannelPlan(index, KIND_MONITORED, tuple(schedule[start : start + config.visits_per_channel]))
        )
        index += 1
    rng = _rng(config.seed, 0x91A)
    n_spam = int(round(config.spam_channel_fraction * config.n_nonmon_channels))
    spam_slots: set[int] = set()
    if n_spam:
        spam_slots = set(
            int(x) for x in rng.choice(config.n_nonmon_channels, size=n_spam, replace=False)
        )
    for k in range(config.n_nonmon_channels):
        plans.append(ChannelPlan(index, KIND_SPAM if k in spam_slots else KIND_NONMON))
        index += 1
    return plans


def _id_pool(rng: np.random.Generator, channel_index: int, count: int) -> list[int]:
    """Distinct circuit ids in this channel's private block of the id space."""
    block = channel_index << _CIRCUIT_BLOCK_BITS
    offsets = rng.choice(2**_CIRCUIT_BLOCK_BITS, size=count, replace=False)
    return [block + int(o) for o in offsets]


def _apply_noise(rng: np.random.Generator, cells: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Perturb the guard's view of one circuit: drops and adjacent swaps.

    One drop uniform per (timestamp, direction) row, then one swap uniform
    per adjacent pair left; swaps run in order, so a run carries a direction.
    """
    if config.drop_prob > 0:
        cells = cells[rng.random(len(cells)) >= config.drop_prob]
    if config.reorder_prob > 0 and len(cells) > 1:
        swaps = np.flatnonzero(rng.random(len(cells) - 1) < config.reorder_prob)
        cells = cells.copy()
        d = cells[:, 1]
        for i in swaps.tolist():
            d[i], d[i + 1] = d[i + 1], d[i]
    return cells


def _expected_stage(kind: str, valid: bool, conflux_leg: bool, cell_count: int, phase: str) -> str:
    if kind == KIND_RELAY:
        return Stage.RELAY
    if kind == KIND_SPAM:
        return Stage.SPAM
    if kind in ("partial", "altsvc", "redirect"):
        return Stage.UNSELECTED
    if not valid:
        return Stage.HANDSHAKE
    if phase == POST and not conflux_leg:
        return Stage.NON_CONFLUX
    if cell_count < 200:
        return Stage.SMALL
    return Stage.RETAINED


def _record_circuit(
    out: ChannelOutput,
    rng: np.random.Generator,
    config: ScenarioConfig,
    circuit_id: int,
    kind: str,
    emitted: EmittedCircuit,
    conflux_leg: bool,
    label: str | None,
    tail: TailPlan | None,
) -> None:
    out.guard_cells.append((circuit_id, _apply_noise(rng, emitted.cells[:, :2], config)))
    out.circuits.append(
        {
            "circuit_id": circuit_id,
            "channel_id": out.channel_id,
            "kind": kind,
            "label": label,
            "handshake_valid": emitted.valid,
            "conflux_leg": conflux_leg,
            "cell_count": len(emitted.cells),
            "tail_present": tail is not None,
            "tail_qualifies": bool(tail.qualifies) if tail else False,
            "tail_cells": tail.n_cells if tail else 0,
            "payload_start": emitted.payload_start,
            "payload_end": emitted.payload_end,
            "expected_stage": _expected_stage(
                kind, emitted.valid, conflux_leg, len(emitted.cells), config.phase
            ),
        }
    )


def _fill_relay(out: ChannelOutput, rng: np.random.Generator, config: ScenarioConfig, t0: int) -> None:
    out.relay_auth = True
    t = t0
    for circuit_id in _id_pool(rng, out.channel_id, _ui(rng, 3, 8)):
        t += int(_uf(rng, 0.5, 20.0) * SEC)
        emitted = _emit_plain_circuit(rng, config, t, _burst_skeleton(rng, _ui(rng, 50, 300)))
        _record_circuit(out, rng, config, circuit_id, KIND_RELAY, emitted, False, None, None)


def _fill_spam(out: ChannelOutput, rng: np.random.Generator, config: ScenarioConfig, t0: int) -> None:
    t = t0
    rtt_ns = int(config.leg_rtt_ms[0] * MS)
    for circuit_id in _id_pool(rng, out.channel_id, _ui(rng, *config.spam_circuit_range)):
        t += _ui(rng, 1_000_000, 80_000_000)
        m = _ui(rng, 2, 6)
        cells = [(t, OUTGOING), (t + rtt_ns, INCOMING)]
        ct = t + rtt_ns
        for _ in range(m - 2):
            ct += _ui(rng, 1_000_000, 30_000_000)
            cells.append((ct, OUTGOING if rng.random() < 0.5 else INCOMING))
        valid = m >= 3 and cells[2][1] == OUTGOING
        emitted = EmittedCircuit(np.array(cells, dtype=np.int64), valid, t, ct)
        _record_circuit(out, rng, config, circuit_id, KIND_SPAM, emitted, False, None, None)


def _fill_nonmon(out: ChannelOutput, rng: np.random.Generator, config: ScenarioConfig, t0: int) -> None:
    t = t0
    for circuit_id in _id_pool(rng, out.channel_id, _ui(rng, *config.nonmon_circuits_range)):
        t += int(_uf(rng, 0.2, 40.0) * SEC)
        small = rng.random() < config.nonmon_small_fraction
        invalid = _ui(rng, 1, 2) if rng.random() < config.invalid_handshake_fraction else 0
        conflux_leg = config.phase == POST and rng.random() < config.conflux_nonmon_fraction
        shape = SHAPE_POST_LEG if conflux_leg else SHAPE_POST_PLAIN if config.phase == POST else SHAPE_PRE
        total = _ui(rng, 8, 180) if small else _ui(rng, *config.nonmon_cell_range)
        tail = None if small else _plan_tail(rng, config)
        bursts = _burst_skeleton(rng, total)
        idle_ns = int(_uf(rng, *config.prebuilt_idle_range_s) * SEC)
        emitted = _emit_plain_circuit(rng, config, t, bursts, idle_ns, invalid, tail, shape)
        _record_circuit(out, rng, config, circuit_id, KIND_NONMON, emitted, conflux_leg, None, tail)


def _split_bursts(
    bursts: tuple[tuple[int, int, float], ...], frac: float
) -> tuple[tuple, tuple] | None:
    """Prefix/rest split where the rest strictly outweighs the prefix."""
    total = sum(o + i for o, i, _ in bursts)
    target = frac * total
    acc = 0
    k = 0
    for k, (o, i, _) in enumerate(bursts):
        if acc >= target:
            break
        acc += o + i
    k = max(1, min(k, len(bursts) - 1))
    while k > 1 and sum(o + i for o, i, _ in bursts[:k]) >= total / 2:
        k -= 1
    prefix, rest = bursts[:k], bursts[k:]
    if sum(o + i for o, i, _ in prefix) >= sum(o + i for o, i, _ in rest):
        return None
    return prefix, rest


def _record_visit(
    out: ChannelOutput,
    config: ScenarioConfig,
    page_idx: int,
    serial: int,
    label: str,
    main_id: int,
    circuit_ids: list[int],
    window: tuple[int, int],
) -> str:
    """Add one visit's ``truth.json`` record; returns the visit's id."""
    visit_id = f"v{out.channel_id:04d}-{serial:03d}-{page_idx:03d}"
    out.visit_truth.append(
        {
            "visit_id": visit_id,
            "label": label,
            "channel_id": out.channel_id,
            "main_circuit_id": main_id,
            "circuit_ids": circuit_ids,
            "window": list(window),
            "client_tag": config.client_tag,
        }
    )
    return visit_id


def _fill_monitored_pre(
    out: ChannelOutput,
    rng: np.random.Generator,
    config: ScenarioConfig,
    t0: int,
    plan: ChannelPlan,
    pages: Sequence[PageModel],
) -> None:
    ids = iter(_id_pool(rng, out.channel_id, 4 * len(plan.visits) + 4))

    def request(kind: str, label: str, at: int, bursts, first_party: str, target: str):
        """One visit row and its circuit's id and cells. A retried or main circuit
        was built ahead and sat idle until the request at ``at``; only the main
        one has a tail."""
        circuit_id = next(ids)
        creation = at
        if kind in ("partial", "main"):
            creation = max(at - int(_uf(rng, *config.monitored_idle_range_s) * SEC), 0)
        tail = _plan_tail(rng, config) if kind == "main" else None
        emitted = _emit_plain_circuit(rng, config, creation, bursts, at - creation, tail=tail)
        _record_circuit(out, rng, config, circuit_id, kind, emitted, False, label, tail)
        out.visit_rows.append((first_party, at, target, circuit_id, None, None))
        return circuit_id, emitted

    t = t0
    for page_idx, serial in plan.visits:
        page = pages[page_idx]
        label = page.label
        t += int(_uf(rng, 70.0, 130.0) * SEC)
        first_row = len(out.visit_rows)
        retried = rng.random() < config.retry_prob and page.total_cells >= 500
        split = _split_bursts(page.bursts, _uf(rng, 0.10, 0.30)) if retried else None
        main_bursts, main_request = page.bursts, t
        if split is not None:
            prefix, main_bursts = split
            request("partial", label, t, prefix, label, label)
            main_request = t + int(_uf(rng, 3.0, 10.0) * SEC)
        main_id, main = request("main", label, main_request, main_bursts, label, label)
        if rng.random() < config.altsvc_prob:
            at = main_request + int(_uf(rng, 1.0, 8.0) * SEC)
            bursts = _burst_skeleton(rng, _ui(rng, 40, 220))
            request("altsvc", label, at, bursts, label, f"alt-{page_idx:03d}.onion")
        if rng.random() < config.redirect_prob:
            at = main_request + int(_uf(rng, 2.0, 9.0) * SEC)
            bursts = _burst_skeleton(rng, _ui(rng, 80, 400))
            request("redirect", label, at, bursts, f"moved-{label}", f"moved-{label}")
        circuit_ids = [row[3] for row in out.visit_rows[first_row:]]
        window = (main.payload_start, main.payload_end)
        _record_visit(out, config, page_idx, serial, label, main_id, circuit_ids, window)


def _fill_monitored_post(
    out: ChannelOutput,
    rng: np.random.Generator,
    config: ScenarioConfig,
    t0: int,
    plan: ChannelPlan,
    pages: Sequence[PageModel],
) -> None:
    ids = iter(_id_pool(rng, out.channel_id, 2 * len(plan.visits) + 2))
    t = t0
    for page_idx, serial in plan.visits:
        page = pages[page_idx]
        t += int(_uf(rng, 100.0, 160.0) * SEC)
        vplan = plan_conflux_visit(rng, config, page, t)
        sim = simulate_conflux_visit(vplan, config)
        guard_id, other_id = next(ids), next(ids)
        leg_ids = (guard_id, other_id)

        legs = sim.leg_cells
        primary = legs[sim.client_primary]
        begin_ts = int(primary[primary[:, 2] == CellTypeCode.RELAY_BEGIN, 0].min())
        guard_end = int(legs[0][:, 0].max())
        guard = EmittedCircuit(legs[0], True, begin_ts, guard_end)
        _record_circuit(out, rng, config, guard_id, "leg", guard, True, page.label, None)
        out.client_cells.extend(zip(leg_ids, legs))
        out.visit_rows.append(
            (page.label, begin_ts, page.label, leg_ids[sim.client_primary], guard_id, other_id)
        )
        window = (begin_ts, guard_end)
        visit_id = _record_visit(out, config, page_idx, serial, page.label, guard_id, [guard_id], window)
        out.set_truth.append(
            {
                "set_id": visit_id,
                "label": page.label,
                "channel_id": out.channel_id,
                "leg_guard": guard_id,
                "leg_other": other_id,
                "client_primary": leg_ids[sim.client_primary],
                "exit_primary": leg_ids[sim.exit_primary],
                "fs": sim.fs,
                "guard_cells": sim.guard_cells,
                "full_cells": sim.full_cells,
                "coverage": sim.guard_cells / sim.full_cells,
            }
        )


def _build_channel(config: ScenarioConfig, plan: ChannelPlan, pages: Sequence[PageModel]) -> ChannelOutput:
    rng = _rng(config.seed, 0xC4A, plan.index)
    out = ChannelOutput(plan.index, plan.kind)
    t0 = int(_uf(rng, 0.0, 600.0) * SEC)
    if plan.kind == KIND_RELAY:
        _fill_relay(out, rng, config, t0)
    elif plan.kind == KIND_SPAM:
        _fill_spam(out, rng, config, t0)
    elif plan.kind == KIND_NONMON:
        _fill_nonmon(out, rng, config, t0)
    elif config.phase == POST:
        _fill_monitored_post(out, rng, config, t0, plan, pages)
    else:
        _fill_monitored_pre(out, rng, config, t0, plan, pages)
    return out


# --- dataset assembly ---------------------------------------------------------


@dataclass
class GeneratedDataset:
    out_dir: Path
    guard_csv: Path
    client_csv: Path
    visits_csv: Path
    truth_json: Path


def _merged_rows(outputs: Sequence[ChannelOutput], name: str, width: int) -> np.ndarray:
    """All channels' cells as int64 (channel_id, circuit_id, timestamp, ...) rows,
    stably sorted by (timestamp, channel_id, circuit_id): full ties keep channel order."""
    ids, counts, blocks = [], [], [np.empty((0, width), dtype=np.int64)]
    for out in outputs:
        for circuit_id, cells in getattr(out, name):
            ids.append((out.channel_id, circuit_id))
            counts.append(len(cells))
            blocks.append(cells)
    rows = np.empty((sum(counts), 2 + width), dtype=np.int64)
    rows[:, :2] = np.repeat(np.array(ids, dtype=np.int64).reshape(-1, 2), counts, axis=0)
    rows[:, 2:] = np.concatenate(blocks)
    return rows[np.lexsort((rows[:, 1], rows[:, 0], rows[:, 2]))]


def _write_rows(path: Path, header: list[str], rows: np.ndarray, block: int = 1 << 16) -> None:
    """Write header lines, then a line per row; ``block`` rows at a time bounds memory."""
    line = ",".join(["%d"] * rows.shape[1]) + "\n"
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(header) + "\n")
        for start in range(0, len(rows), block):
            part = rows[start : start + block]
            f.write(line * len(part) % tuple(part.ravel().tolist()))


def generate_dataset(config: ScenarioConfig, out_dir: str | Path) -> GeneratedDataset:
    """Write guard.csv, client.csv, visits.csv, and truth.json."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    plans = _make_plans(config)
    pages = _page_models(config, config.n_pages * config.n_visits_per_page)
    try:
        outputs = [_build_channel(config, plan, pages) for plan in plans]
    except OverflowError:
        raise ConfigError("the scenario's times do not fit 64-bit nanosecond timestamps") from None

    visit_rows: list[tuple] = []
    channels_truth = []
    circuits_truth = []
    visits_truth = []
    sets_truth = []
    auth_ids = []
    for out in outputs:
        visit_rows.extend(out.visit_rows)
        circuits_truth.extend(out.circuits)
        visits_truth.extend(out.visit_truth)
        sets_truth.extend(out.set_truth)
        if out.relay_auth:
            auth_ids.append(out.channel_id)
        channels_truth.append(
            {
                "channel_id": out.channel_id,
                "kind": out.kind,
                "spam": out.kind == KIND_SPAM,
                "relay_auth": out.relay_auth,
                "client_tag": config.client_tag if out.kind == KIND_MONITORED else None,
            }
        )

    visit_rows.sort(key=lambda r: (r[1], r[3]))

    guard_csv = out_path / "guard.csv"
    header = ["channel_id,circuit_id,timestamp_ns,direction", *(f"#AUTH,{c}" for c in sorted(auth_ids))]
    _write_rows(guard_csv, header, _merged_rows(outputs, "guard_cells", 2))

    client_csv = out_path / "client.csv"
    header = ["channel_id,circuit_id,timestamp_ns,direction,cell_type"]
    _write_rows(client_csv, header, _merged_rows(outputs, "client_cells", 3))

    visits_csv = out_path / "visits.csv"
    lines = ["first_party_domain,request_ts,target_domain,circuit_id"]
    for fp, ts, target, cid, leg_a, leg_b in visit_rows:
        if leg_a is None:
            lines.append(f"{fp},{ts},{target},{cid}")
        else:
            lines.append(f"{fp},{ts},{target},{cid},{leg_a},{leg_b}")
    visits_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    truth_json = out_path / "truth.json"
    truth = {
        "scenario": asdict(config),
        "channels": channels_truth,
        "circuits": circuits_truth,
        "visits": visits_truth,
        "sets": sets_truth,
        "summary": {
            "n_channels": len(channels_truth),
            "n_circuits": len(circuits_truth),
            "n_visits": len(visits_truth),
            "n_sets": len(sets_truth),
            "spam_channels": sorted(
                c["channel_id"] for c in channels_truth if c["spam"]
            ),
            "stage_counts": {
                stage: sum(1 for c in circuits_truth if c["expected_stage"] == stage)
                for stage in sorted({c["expected_stage"] for c in circuits_truth})
            },
        },
    }
    truth_json.write_text(
        json.dumps(truth, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
    )
    return GeneratedDataset(out_path, guard_csv, client_csv, visits_csv, truth_json)


def run_rtt_advantage_sweep(
    config: ScenarioConfig, deltas_ms: Sequence[float], n_visits: int | None = None
) -> list[dict]:
    """Coverage and first-segment statistics as the competitor leg slows.

    Visit plans are drawn once and replayed under every delta, so each
    visit sees identical noise across the sweep.
    """
    if any(d < 0 for d in deltas_ms):
        raise ConfigError("deltas must be non-negative")
    if n_visits is None:
        n_visits = config.n_pages * config.n_visits_per_page
    if n_visits < 1:
        raise ConfigError("the sweep needs at least one visit")
    pages = _page_models(config, n_visits)
    plans = [
        plan_conflux_visit(_rng(config.seed, 0x5EE, v), config, pages[v % config.n_pages], t0=0)
        for v in range(n_visits)
    ]
    rows = []
    for delta in deltas_ms:
        coverages = []
        fs_count = 0
        switch_total = 0
        for plan in plans:
            sim = simulate_conflux_visit(plan, config, delta)
            coverages.append(sim.guard_cells / sim.full_cells)
            fs_count += sim.fs
            switch_total += sim.switches
        cov = np.array(coverages)
        rows.append(
            {
                "delta_ms": float(delta),
                "n_visits": n_visits,
                "median_coverage": float(np.median(cov)),
                "mean_coverage": float(cov.mean()),
                "frac_coverage_ge_80": float((cov >= 0.8).mean()),
                "fs_fraction": fs_count / n_visits,
                "mean_switches": switch_total / n_visits,
            }
        )
    return rows
