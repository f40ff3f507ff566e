import heapq
import json
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MS, SEC, json_values

from guardsift.errors import ConfigError, GuardsiftError
from guardsift.ingest import parse_guard_log, parse_visit_log, filter_relay_channels
from guardsift.sanitize import SanitizeConfig, sanitize, validate_handshake_post, CONFLUX
from guardsift.simulate import (
    CELL_CREATE,
    CELL_CREATED,
    CELL_DESTROY,
    ChannelOutput,
    LowRttScheduler,
    ScenarioConfig,
    TailPlan,
    _apply_noise,
    _array_sampler,
    _emit_bursts,
    _emit_tail,
    _merged_rows,
    _write_rows,
    generate_dataset,
    page_model,
    plan_conflux_visit,
    run_rtt_advantage_sweep,
    simulate_conflux_visit,
)
from guardsift.conflux import CellTypeCode
from guardsift.trace import INCOMING, OUTGOING

RELAY_DATA, RELAY_SENDME = int(CellTypeCode.RELAY_DATA), int(CellTypeCode.RELAY_SENDME)


# --- per-cell oracles: the list implementations the array emitters replaced -----


def _ui(rng, lo, hi):
    return int(rng.integers(lo, hi + 1))


def oracle_emit_bursts(rng, t, bursts, rtt_ms, sendme_interval):
    """One scalar gap draw per cell; a SENDME after every interval-th incoming cell."""
    cells = []
    received = 0
    for out, inc, think_ms in bursts:
        for _ in range(out):
            cells.append((t, OUTGOING, RELAY_DATA))
            t += _ui(rng, 200_000, 1_200_000)
        t += int(rtt_ms * MS) + int(think_ms * MS)
        for _ in range(inc):
            cells.append((t, INCOMING, RELAY_DATA))
            received += 1
            if received % sendme_interval == 0:
                cells.append((t + 300_000, OUTGOING, RELAY_SENDME))
            t += _ui(rng, 300_000, 1_000_000)
    return cells, t


def oracle_emit_tail(rng, t, plan):
    cells = []
    t += plan.gap_ns
    start = t
    step = max(plan.duration_ns // max(plan.n_cells - 1, 1), 1)
    for i in range(plan.n_cells):
        if i == 0:
            direction = INCOMING if plan.incoming_led else OUTGOING
        else:
            direction = OUTGOING if rng.random() < 0.6 else INCOMING
        cells.append((t, direction, RELAY_DATA))
        t += step
    if plan.n_cells > 1:
        cells[-1] = (start + plan.duration_ns, cells[-1][1], cells[-1][2])
        t = cells[-1][0]
    return cells, t


def oracle_apply_noise(rng, cells, drop_prob, reorder_prob):
    """One drop uniform per cell, then one swap uniform per adjacent pair left."""
    if drop_prob > 0:
        cells = [c for c in cells if rng.random() >= drop_prob]
    if reorder_prob > 0 and len(cells) > 1:
        cells = list(cells)
        for i in range(len(cells) - 1):
            if rng.random() < reorder_prob:
                (t1, d1), (t2, d2) = cells[i][:2], cells[i + 1][:2]
                cells[i], cells[i + 1] = (t1, d2), (t2, d1)
    return cells


def oracle_log_lines(outputs, name):
    """Rows as tuples, merged by a stable (timestamp, channel, circuit) key sort."""
    rows = [
        (int(row[0]), out.channel_id, circuit_id, *map(int, row[1:]))
        for out in outputs
        for circuit_id, cells in getattr(out, name)
        for row in cells
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return "".join(",".join(map(str, (ch, cid, ts, *rest))) + "\n" for ts, ch, cid, *rest in rows)


def _same_rng_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


probs = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
seeds = st.integers(0, 2**32 - 1)
burst_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 150), st.floats(0.0, 1200.0)), max_size=6
)


class TestArrayEmittersMatchPerCellOracles:
    """Each array emitter returns the oracle's cells and leaves the rng where
    the oracle leaves it, so every later draw in the channel is unchanged."""

    @given(seeds, burst_lists, st.floats(0.0, 300.0), st.sampled_from([1, 10**4]) | st.integers(1, 400),
           st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_bursts(self, seed, bursts, rtt_ms, sendme_interval, warmup):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (a, b):  # leave half a 64-bit word buffered on odd warm-ups
            rng.integers(0, 10, size=warmup)
        cells, t = _emit_bursts(a, 10**12, bursts, rtt_ms, sendme_interval)
        expected, expected_t = oracle_emit_bursts(b, 10**12, bursts, rtt_ms, sendme_interval)
        assert [tuple(c) for c in cells.tolist()] == expected
        assert t == expected_t
        assert _same_rng_state(a, b)

    @given(seeds, st.integers(0, 200), st.integers(0, 3 * SEC), st.integers(0, 10 * SEC),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tail(self, seed, n_cells, duration_ns, gap_ns, incoming_led):
        plan = TailPlan(True, incoming_led, n_cells, duration_ns, gap_ns)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        cells, t = _emit_tail(a, 5 * SEC, plan)
        expected, expected_t = oracle_emit_tail(b, 5 * SEC, plan)
        assert [tuple(c) for c in cells.tolist()] == expected
        assert t == expected_t
        assert _same_rng_state(a, b)

    @given(seeds, st.lists(st.tuples(st.integers(0, 10**9), st.sampled_from([-1, 1])), max_size=60),
           probs, probs)
    @settings(max_examples=300, deadline=None)
    def test_noise(self, seed, cells, drop_prob, reorder_prob):
        config = ScenarioConfig(drop_prob=drop_prob, reorder_prob=reorder_prob)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = np.array(cells, dtype=np.int64).reshape(-1, 2)
        noisy = _apply_noise(a, rows, config)
        assert [tuple(c) for c in noisy.tolist()] == oracle_apply_noise(b, cells, drop_prob, reorder_prob)
        assert rows.tolist() == [list(c) for c in cells]  # the input is not modified
        assert _same_rng_state(a, b)

    def test_times_past_int64_raise_instead_of_wrapping(self):
        # the cells would fit, but numpy would wrap the times that follow them
        near_end = 2**63 - SEC
        with pytest.raises(OverflowError):
            _emit_bursts(np.random.default_rng(0), near_end, [(3, 3000, 500.0)], 60.0, 100)
        with pytest.raises(OverflowError):
            _emit_tail(np.random.default_rng(0), near_end, TailPlan(True, False, 40, 3 * SEC, 0))


# few distinct timestamps, channels and circuits, so many rows tie on all three
tied_cells = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([-1, 1]), st.integers(0, 30)),
                      max_size=8)


@given(st.lists(st.lists(st.tuples(st.integers(0, 2), tied_cells), max_size=4), max_size=4))
@settings(max_examples=200, deadline=None)
def test_merged_log_matches_stable_tuple_sort(tmp_path_factory, channels):
    outputs = []
    for channel_id, circuits in enumerate(channels):
        out = ChannelOutput(channel_id % 2, "nonmon")
        for circuit_id, cells in circuits:
            rows = np.array(cells, dtype=np.int64).reshape(-1, 3)
            out.guard_cells.append((circuit_id, rows[:, :2]))
            out.client_cells.append((circuit_id, rows))
        outputs.append(out)
    path = tmp_path_factory.mktemp("log") / "log.csv"
    for name, width in (("guard_cells", 2), ("client_cells", 3)):
        _write_rows(path, ["header", "#AUTH,1"], _merged_rows(outputs, name, width), block=3)
        assert path.read_text(encoding="utf-8") == "header\n#AUTH,1\n" + oracle_log_lines(outputs, name)


# --- per-cell oracle: the scheduler and visit replay that sent one cell a call --


@dataclass
class OracleLeg:
    """Sender-side view of one leg."""

    rtt_ms: float
    cwnd: int
    cells_since_sendme: int = 0


class OracleScheduler:
    """Per-cell leg choice: lowest estimated RTT with window space."""

    def __init__(self, true_rtts_ms, legs, sendme_interval=100, rtt_sampler=None):
        self.true_rtts = tuple(float(r) for r in true_rtts_ms)
        self.legs = list(legs)
        self.interval = sendme_interval
        self.sampler = rtt_sampler or (lambda leg, k: self.true_rtts[leg])
        self._sample_counts = [0] * len(self.legs)
        self._pending = []  # heap of (ack_ts, leg)
        self._last_leg = None
        self._cell_index = 0
        self.switches = []

    def _process_acks(self, now):
        while self._pending and self._pending[0][0] <= now:
            _, leg = heapq.heappop(self._pending)
            state = self.legs[leg]
            state.cwnd += self.interval
            k = self._sample_counts[leg]
            self._sample_counts[leg] += 1
            state.rtt_ms = 0.5 * state.rtt_ms + 0.5 * self.sampler(leg, k)

    def _choose(self):
        best = None
        for i, state in enumerate(self.legs):
            if state.cwnd > 0 and (best is None or state.rtt_ms < self.legs[best].rtt_ms):
                best = i
        return best

    def send_one(self, t_ns):
        """(actual send time, leg, whether the cell completes a SENDME interval)"""
        self._process_acks(t_ns)
        leg = self._choose()
        while leg is None:
            if not self._pending:
                raise RuntimeError("every leg is blocked and no acknowledgment pending")
            t_ns = self._pending[0][0]
            self._process_acks(t_ns)
            leg = self._choose()
        state = self.legs[leg]
        state.cwnd -= 1
        state.cells_since_sendme += 1
        sendme_due = False
        if state.cells_since_sendme >= self.interval:
            state.cells_since_sendme = 0
            heapq.heappush(self._pending, (t_ns + int(self.true_rtts[leg] * MS), leg))
            sendme_due = True
        if self._last_leg is not None and leg != self._last_leg:
            self.switches.append(self._cell_index)
        self._last_leg = leg
        self._cell_index += 1
        return t_ns, leg, sendme_due


def oracle_conflux_visit(plan, config, delta_ms):
    """Per leg, the (timestamp, direction, cell_type) cells in stable time
    order, then client_primary, exit_primary, fs, guard_cells, full_cells and
    switches."""
    rtts = (plan.rtt_base_ms[0], plan.rtt_base_ms[1] + delta_ms)
    legs = ([], [])
    link_done = plan.t0
    for leg in (0, 1):
        t = plan.t0 + plan.turnaround_ns[leg]
        rtt_ns = int(rtts[leg] * MS)
        legs[leg].append((t, OUTGOING, CELL_CREATE))
        t += rtt_ns
        legs[leg].append((t, INCOMING, CELL_CREATED))
        t += plan.turnaround_ns[2 + leg]
        legs[leg].append((t, OUTGOING, int(CellTypeCode.CFX_LINK)))
        t += rtt_ns
        legs[leg].append((t, INCOMING, int(CellTypeCode.CFX_LINKED)))
        t += plan.turnaround_ns[4 + leg]
        legs[leg].append((t, OUTGOING, int(CellTypeCode.CFX_LINKED_ACK)))
        link_done = max(link_done, t)

    def scheduler(init_noise, noise, flags=None):
        states = [OracleLeg(rtts[leg] + init_noise[leg], config.initial_cwnd) for leg in (0, 1)]
        return OracleScheduler(rtts, states, config.sendme_interval, _array_sampler(noise, rtts, flags))

    client = scheduler(plan.client_init_noise, plan.client_noise)
    exit_side = scheduler(plan.exit_init_noise, plan.exit_noise, plan.exit_switch_flags)
    begin, connected = int(CellTypeCode.RELAY_BEGIN), int(CellTypeCode.RELAY_CONNECTED)
    t = link_done + plan.idle_ns
    oidx = iidx = 0
    client_primary = None
    for _ in range(plan.n_begins):
        t, leg, sm = client.send_one(t)
        legs[leg].append((t, OUTGOING, begin))
        if client_primary is None:
            client_primary = leg
        if sm:
            legs[leg].append((t + int(rtts[leg] * MS), INCOMING, RELAY_SENDME))
        t += plan.out_spacing[oidx]
        oidx += 1
    t_conn, exit_primary, _ = exit_side.send_one(t + int(rtts[client_primary] * MS))
    legs[exit_primary].append((t_conn, INCOMING, connected))
    t = t_conn + plan.turnaround_ns[6]
    for out, inc, think_ms in plan.page.bursts:
        for _ in range(out):
            t, leg, sm = client.send_one(t)
            legs[leg].append((t, OUTGOING, RELAY_DATA))
            if sm:
                legs[leg].append((t + int(rtts[leg] * MS), INCOMING, RELAY_SENDME))
            t += plan.out_spacing[oidx % len(plan.out_spacing)]
            oidx += 1
        t += int(rtts[exit_primary] * MS) + int(think_ms * MS)
        for _ in range(inc):
            t, leg, sm = exit_side.send_one(t)
            legs[leg].append((t, INCOMING, RELAY_DATA))
            if sm:
                legs[leg].append((t + 300_000, OUTGOING, RELAY_SENDME))
            t += plan.in_spacing[iidx % len(plan.in_spacing)]
            iidx += 1
    guard_cells = len(legs[0]) - 5
    full_cells = guard_cells + len(legs[1]) - 5
    for leg in (0, 1):
        end = max(c[0] for c in legs[leg]) + plan.turnaround_ns[7]
        legs[leg].append((end, OUTGOING, CELL_DESTROY))
        legs[leg].append((end + 2_000_000, INCOMING, CELL_DESTROY))
        legs[leg].sort(key=lambda c: c[0])
    switches = len(client.switches) + len(exit_side.switches)
    fs = client_primary == 0 and exit_primary == 0
    return legs, client_primary, exit_primary, fs, guard_cells, full_cells, switches


def replay_result(sim):
    legs = tuple([tuple(c) for c in cells.tolist()] for cells in sim.leg_cells)
    return (legs, sim.client_primary, sim.exit_primary, sim.fs, sim.guard_cells, sim.full_cells,
            sim.switches)


sendme_intervals = st.sampled_from([1, 2, 3, 100]) | st.integers(1, 150)
half_ms = st.integers(0, 8).map(lambda k: k * MS // 2)


class TestRunReplayMatchesPerCellOracle:
    """The run replay sends every cell where the per-cell scheduler does."""

    @given(seeds, st.integers(0, 7), sendme_intervals, st.sampled_from([0]) | st.integers(0, 400),
           probs, st.floats(0.0, 100.0), st.floats(-50.0, 10_000.0),
           st.tuples(st.floats(2.0, 200.0), st.floats(2.0, 200.0)).map(sorted))
    @settings(max_examples=300, deadline=None)
    def test_visit(self, seed, page_idx, interval, extra_cwnd, switch_prob, noise_ms, delta_ms, rtts):
        # extra_cwnd 0 is a window of one interval: legs block and sending stalls
        config = ScenarioConfig(
            seed=seed, phase="post", page_cell_range=(30, 400), sendme_interval=interval,
            initial_cwnd=interval + extra_cwnd, exit_switch_prob=switch_prob, rtt_noise_ms=noise_ms,
            leg_rtt_ms=tuple(rtts),
        )
        page = page_model(seed, page_idx, config.page_cell_range)
        plan = plan_conflux_visit(np.random.default_rng(seed), config, page, t0=seed % 10**9)
        sim = simulate_conflux_visit(plan, config, delta_ms)
        assert replay_result(sim) == oracle_conflux_visit(plan, config, delta_ms)

    @given(st.tuples(half_ms, half_ms).map(lambda r: (r[0] / MS + 0.5, r[1] / MS + 0.5)),
           st.tuples(st.integers(1, 30), st.integers(1, 30)), st.integers(1, 10),
           st.lists(st.tuples(half_ms, st.lists(st.sampled_from([0, MS // 2, MS]), max_size=40)),
                    max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_scheduler(self, rtts, cwnd, interval, segments):
        # times and RTTs on a half-millisecond grid put many cells at the very
        # time an acknowledgment falls due; zero spacings send cells together
        cwnd = tuple(max(w, interval) for w in cwnd)
        sched = LowRttScheduler(rtts, rtts, cwnd, interval)
        oracle = OracleScheduler(rtts, [OracleLeg(r, w) for r, w in zip(rtts, cwnd)], interval)
        runs, expected = ([], []), ([], [])
        t = expected_t = 0
        for gap, spacing in segments:
            t, first = sched.send(t + gap, spacing, runs, (OUTGOING, RELAY_DATA), (7, 9))
            expected_t += gap
            expected_first = None
            for step in spacing:
                expected_t, leg, due = oracle.send_one(expected_t)
                expected[leg].append((expected_t, OUTGOING, RELAY_DATA))
                if due:
                    expected[leg].append((expected_t + (7, 9)[leg], INCOMING, RELAY_SENDME))
                expected_first = leg if expected_first is None else expected_first
                expected_t += step
            assert (t, first) == (expected_t, expected_first)
        for leg in (0, 1):
            cells = [(base + o, d, ct) for base, offsets, d, ct in runs[leg] for o in offsets]
            assert cells == expected[leg]
            assert sched.since_sendme[leg] == oracle.legs[leg].cells_since_sendme
            assert sched.cwnd[leg] == oracle.legs[leg].cwnd
        assert sched.switches == oracle.switches

    def test_every_leg_blocked_without_a_pending_acknowledgment_raises(self):
        for sched in (LowRttScheduler((50.0, 60.0), (50.0, 60.0), (0, 0), 10),
                      LowRttScheduler((50.0, 60.0), (50.0, 60.0), (1, 1), 10)):
            with pytest.raises(RuntimeError, match="every leg is blocked"):
                sched.send(0, [1000] * 3, ([], []), (OUTGOING, RELAY_DATA))


class TestScheduler:
    def legs(self, rtt_a=50.0, rtt_b=200.0, cwnd=10_000):
        """Per leg, the true and first estimated RTT, and the window."""
        return ((rtt_a, cwnd), (rtt_b, cwnd))

    def send(self, n_cells, legs, spacing_ns=500_000, sendme_interval=100):
        """The scheduler, and the leg and send time of each of ``n_cells``
        cells offered ``spacing_ns`` after the previous one was sent."""
        rtts, cwnd = zip(*legs)
        sched = LowRttScheduler(rtts, rtts, cwnd, sendme_interval)
        runs = ([], [])
        sched.send(0, [spacing_ns] * n_cells, runs, (OUTGOING, RELAY_DATA))
        # spacing is positive, so send times rise in send order
        sent = sorted((base + o, leg) for leg in (0, 1) for base, offsets, _, _ in runs[leg] for o in offsets)
        times, assignments = map(list, zip(*sent))
        return sched, assignments, times

    def test_all_cells_on_faster_leg(self):
        sched, assignments, _ = self.send(500, self.legs())
        assert assignments == [0] * 500
        assert sched.switches == []

    def test_equal_rtts_tie_to_first_leg(self):
        _, assignments, _ = self.send(50, self.legs(80.0, 80.0))
        assert set(assignments) == {0}

    def test_cwnd_exhaustion_overflows_to_other_leg(self):
        # window of 100 and a long burst: leg 0 fills, leg 1 takes the rest
        legs = ((50.0, 100), (200.0, 10_000))
        _, assignments, _ = self.send(150, legs, spacing_ns=1000)
        assert assignments[:100] == [0] * 100
        assert 1 in assignments[100:]
        assert len(assignments) == 150  # conservation

    def test_blocked_legs_wait_for_replenish(self):
        legs = ((50.0, 100), (60.0, 100))
        _, assignments, times = self.send(300, legs, spacing_ns=1000)
        assert len(assignments) == 300
        # replenish happened: more cells than the combined initial windows
        assert times[-1] > times[0]

    def test_cells_since_sendme_stays_below_interval(self):
        sched, _, _ = self.send(1234, self.legs(), sendme_interval=100)
        for count in sched.since_sendme:
            assert 0 <= count < 100


class TestPageModels:
    def test_deterministic_per_page(self):
        a = page_model(3, 0, (300, 1500))
        b = page_model(3, 0, (300, 1500))
        assert a == b
        assert a != page_model(3, 1, (300, 1500))

    def test_total_in_range_and_bursts_positive(self):
        for idx in range(20):
            model = page_model(1, idx, (300, 900))
            assert 300 <= model.total_cells <= 900
            assert all(o >= 1 for o, _, _ in model.bursts)


class TestConfluxVisits:
    def test_fs_requires_both_endpoints(self):
        cfg = ScenarioConfig(seed=2, phase="post", rtt_noise_ms=25.0)
        rng = np.random.default_rng(0)
        plan = plan_conflux_visit(rng, cfg, page_model(2, 0, (240, 400)), 0)
        sim = simulate_conflux_visit(plan, cfg, delta_ms=0.0)
        assert sim.fs == (sim.client_primary == 0 and sim.exit_primary == 0)
        assert sim.full_cells >= sim.guard_cells > 0

    def test_huge_delta_pins_everything_to_guard_leg(self):
        cfg = ScenarioConfig(seed=2, phase="post")
        rng = np.random.default_rng(1)
        plan = plan_conflux_visit(rng, cfg, page_model(2, 1, (240, 400)), 0)
        sim = simulate_conflux_visit(plan, cfg, delta_ms=10_000.0)
        assert sim.fs
        assert sim.guard_cells == sim.full_cells

    def test_legs_pass_link_heuristic(self):
        from oracles import circuit_from_cells

        cfg = ScenarioConfig(seed=5, phase="post")
        rng = np.random.default_rng(3)
        plan = plan_conflux_visit(rng, cfg, page_model(5, 0, (240, 400)), 0)
        sim = simulate_conflux_visit(plan, cfg, delta_ms=0.0)
        for leg_cells in sim.leg_cells:
            cells = [(ts, d) for ts, d, _ in leg_cells]
            assert validate_handshake_post(circuit_from_cells(1, cells)) == CONFLUX


class TestSweep:
    def test_rows_shape_and_pairing(self):
        cfg = ScenarioConfig(seed=9, phase="post", n_pages=2, n_visits_per_page=10,
                             page_cell_range=(240, 400))
        rows = run_rtt_advantage_sweep(cfg, [0, 10_000])
        assert [r["delta_ms"] for r in rows] == [0.0, 10_000.0]
        assert rows[1]["fs_fraction"] == 1.0
        assert rows[1]["median_coverage"] == 1.0
        assert rows[0]["median_coverage"] <= rows[1]["median_coverage"]

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError):
            run_rtt_advantage_sweep(ScenarioConfig(), [-1])

    @pytest.mark.parametrize(
        "config, n_visits",
        [(ScenarioConfig(n_visits_per_page=0), None), (ScenarioConfig(), 0)],
        ids=["no-visits-in-config", "zero-sweep-visits"],
    )
    def test_a_sweep_without_visits_is_rejected(self, config, n_visits):
        with pytest.raises(ConfigError, match="at least one visit"):
            run_rtt_advantage_sweep(config, [0], n_visits)


class TestGenerateDataset:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(spam_channel_fraction=1.5)
        with pytest.raises(ConfigError):
            ScenarioConfig(phase="mid")
        with pytest.raises(ConfigError):
            ScenarioConfig(initial_cwnd=10, sendme_interval=100)

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = ScenarioConfig(seed=4, n_pages=2, n_visits_per_page=2, n_nonmon_channels=3)
        a = generate_dataset(cfg, tmp_path / "a")
        b = generate_dataset(cfg, tmp_path / "b")
        for fa, fb in [(a.guard_csv, b.guard_csv), (a.client_csv, b.client_csv),
                       (a.visits_csv, b.visits_csv), (a.truth_json, b.truth_json)]:
            assert fa.read_bytes() == fb.read_bytes()

    def test_spam_fraction_flags_match_sidecar(self, tmp_path):
        cfg = ScenarioConfig(seed=6, n_pages=1, n_visits_per_page=1, n_nonmon_channels=10,
                             spam_channel_fraction=0.2, spam_circuit_range=(10_001, 10_005))
        paths = generate_dataset(cfg, tmp_path / "d")
        truth = json.loads(paths.truth_json.read_text())
        spam_ids = set(truth["summary"]["spam_channels"])
        assert len(spam_ids) == 2
        parsed = parse_guard_log(paths.guard_csv)
        from guardsift.sanitize import detect_spam_channels

        assert detect_spam_channels(parsed.channels, 10_000) == spam_ids

    def test_pre_circuits_open_with_expected_pattern(self, tmp_path):
        cfg = ScenarioConfig(seed=8, n_pages=2, n_visits_per_page=2, n_nonmon_channels=4,
                             nonmon_small_fraction=0.0)
        paths = generate_dataset(cfg, tmp_path / "d")
        parsed = parse_guard_log(paths.guard_csv)
        for channel in parsed.channels:
            for circuit in channel.circuits.values():
                assert circuit.directions[:3].tolist() == [1, -1, 1]

    def test_noise_free_output_has_zero_handshake_drops(self, tmp_path):
        cfg = ScenarioConfig(seed=10, n_pages=2, n_visits_per_page=3, n_nonmon_channels=5,
                             nonmon_small_fraction=0.3)
        paths = generate_dataset(cfg, tmp_path / "d")
        parsed = parse_guard_log(paths.guard_csv)
        kept, _ = filter_relay_channels(parsed.channels)
        visits = parse_visit_log(paths.visits_csv)
        result = sanitize(kept, SanitizeConfig(), "pre", visits)
        assert result.report.handshake_dropped == 0

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_noisy_guard_view_is_deterministic_and_never_adds_cells(self, tmp_path, phase):
        cfg = ScenarioConfig(seed=14, phase=phase, n_pages=2, n_visits_per_page=3, n_nonmon_channels=4,
                             spam_channel_fraction=0.25, spam_circuit_range=(10_001, 10_020),
                             relay_auth_channels=1, drop_prob=0.1, reorder_prob=0.2,
                             exit_switch_prob=0.1)
        runs = [generate_dataset(cfg, tmp_path / "a"), generate_dataset(cfg, tmp_path / "b")]
        for name in ("guard.csv", "client.csv", "visits.csv", "truth.json"):
            assert len({(run.out_dir / name).read_bytes() for run in runs}) == 1, name
        truth = json.loads(runs[0].truth_json.read_text())
        lines = runs[0].guard_csv.read_text().splitlines()[1:]
        rows = np.array([line.split(",") for line in lines if not line.startswith("#")], dtype=np.int64)
        ids, counts = np.unique(rows[:, 1], return_counts=True)
        seen = dict(zip(ids.tolist(), counts.tolist()))
        assert all(seen.get(c["circuit_id"], 0) <= c["cell_count"] for c in truth["circuits"])
        assert set(seen) <= {c["circuit_id"] for c in truth["circuits"]}
        # the noise acts: some circuit lost cells
        assert sum(seen.values()) < sum(c["cell_count"] for c in truth["circuits"])

    def test_times_past_int64_are_a_config_error(self, tmp_path):
        cfg = ScenarioConfig(n_pages=1, n_visits_per_page=0, n_nonmon_channels=2,
                             prebuilt_idle_range_s=(1e10, 1e10))
        with pytest.raises(ConfigError, match="64-bit"):
            generate_dataset(cfg, tmp_path / "d")

    def test_recovered_labels_match_sidecar(self, tmp_path):
        cfg = ScenarioConfig(seed=12, n_pages=3, n_visits_per_page=3, n_nonmon_channels=2)
        paths = generate_dataset(cfg, tmp_path / "d")
        truth = json.loads(paths.truth_json.read_text())
        parsed = parse_guard_log(paths.guard_csv)
        kept, _ = filter_relay_channels(parsed.channels)
        visits = parse_visit_log(paths.visits_csv)
        result = sanitize(kept, SanitizeConfig(), "pre", visits)
        expected = {(v["channel_id"], v["main_circuit_id"]): v["label"] for v in truth["visits"]}
        assert result.labels == {
            key: label for key, label in expected.items() if key in result.labels
        }
        assert len(result.labels) == len(expected)


# the decoded JSON types each field annotation admits; bool is not an int here
ANNOTATED_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "int | None": (int, type(None))}


def holds_annotated_type(value, annotation: str) -> bool:
    if annotation.startswith("tuple["):
        items = annotation[len("tuple["):-1].split(", ")
        return type(value) is tuple and len(value) == len(items) and all(
            map(holds_annotated_type, value, items)
        )
    return type(value) in ANNOTATED_TYPES[annotation]


config_fields = st.sampled_from(
    sorted({f.name for f in fields(ScenarioConfig)} | {f.name for f in fields(SanitizeConfig)})
)


@pytest.mark.parametrize("config_cls", [ScenarioConfig, SanitizeConfig])
@given(
    st.dictionaries(
        config_fields,
        json_values | st.lists(st.integers(-1, 10**6) | st.floats(), max_size=3),
        max_size=2,
    ).map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=30)
)
@settings(max_examples=300, deadline=None)
def test_config_from_json_fuzz_lets_only_guardsift_errors_escape(tmp_path_factory, config_cls, text):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(text, encoding="utf-8")
    try:
        config = config_cls.from_json(path)
    except GuardsiftError:
        return
    assert isinstance(config, config_cls)
    for f in fields(config_cls):
        assert holds_annotated_type(getattr(config, f.name), f.type), (f.name, f.type)
