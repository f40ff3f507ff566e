import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values

from guardsift.errors import ConfigError, GuardsiftError
from guardsift.ingest import parse_guard_log, parse_visit_log, filter_relay_channels
from guardsift.sanitize import SanitizeConfig, sanitize, validate_handshake_post, CONFLUX
from guardsift.simulate import (
    LegState,
    ScenarioConfig,
    generate_dataset,
    page_model,
    plan_conflux_visit,
    run_rtt_advantage_sweep,
    schedule_lowrtt,
    simulate_conflux_visit,
)


class TestScheduler:
    def legs(self, rtt_a=50.0, rtt_b=200.0, cwnd=10_000):
        return (LegState(rtt_a, cwnd), LegState(rtt_b, cwnd))

    def test_all_cells_on_faster_leg(self):
        result = schedule_lowrtt(500, self.legs())
        assert result.assignments == [0] * 500
        assert result.switch_events == []

    def test_equal_rtts_tie_to_first_leg(self):
        result = schedule_lowrtt(50, self.legs(80.0, 80.0))
        assert set(result.assignments) == {0}

    def test_cwnd_exhaustion_overflows_to_other_leg(self):
        # window of 100 and a long burst: leg 0 fills, leg 1 takes the rest
        legs = (LegState(50.0, 100), LegState(200.0, 10_000))
        result = schedule_lowrtt(150, legs, cell_spacing_ns=1000)
        assert result.assignments[:100] == [0] * 100
        assert 1 in result.assignments[100:]
        assert len(result.assignments) == 150  # conservation

    def test_blocked_legs_wait_for_replenish(self):
        legs = (LegState(50.0, 100), LegState(60.0, 100))
        result = schedule_lowrtt(300, legs, cell_spacing_ns=1000)
        assert len(result.assignments) == 300
        # replenish happened: more cells than the combined initial windows
        assert result.times[-1] > result.times[0]

    def test_cells_since_sendme_stays_below_interval(self):
        legs = self.legs()
        schedule_lowrtt(1234, legs, sendme_interval=100)
        for leg in legs:
            assert 0 <= leg.cells_since_sendme < 100


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
        from guardsift.trace import CellRecord, Circuit

        cfg = ScenarioConfig(seed=5, phase="post")
        rng = np.random.default_rng(3)
        plan = plan_conflux_visit(rng, cfg, page_model(5, 0, (240, 400)), 0)
        sim = simulate_conflux_visit(plan, cfg, delta_ms=0.0)
        for leg_cells in sim.leg_cells:
            cells = [CellRecord(1, 1, ts, d) for ts, d, _ in leg_cells]
            assert validate_handshake_post(Circuit.from_records(1, cells), 3.0) == CONFLUX


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

        assert detect_spam_channels(parsed.channels) == spam_ids

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

    def test_recovered_labels_match_sidecar(self, tmp_path):
        cfg = ScenarioConfig(seed=12, n_pages=3, n_visits_per_page=3, n_nonmon_channels=2)
        paths = generate_dataset(cfg, tmp_path / "d")
        truth = json.loads(paths.truth_json.read_text())
        parsed = parse_guard_log(paths.guard_csv)
        kept, _ = filter_relay_channels(parsed.channels)
        visits = parse_visit_log(paths.visits_csv)
        result = sanitize(kept, SanitizeConfig(), "pre", visits)
        expected = {v["main_circuit_id"]: v["label"] for v in truth["visits"]}
        assert result.labels == {
            cid: label for cid, label in expected.items() if cid in result.labels
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
