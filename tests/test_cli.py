import dataclasses
import json
import math
import os
import shutil
import threading
from unittest import mock

import numpy as np
import pytest

from conftest import run_fresh
from oracles import write_scenario
from guardsift import ingest, metrics
from guardsift.cli import main
from guardsift.sanitize import SanitizeConfig
from guardsift.simulate import ScenarioConfig, generate_dataset
from guardsift.trace import read_dataset


@pytest.fixture()
def dataset_dir(tmp_path):
    config = ScenarioConfig(
        seed=21, n_pages=2, n_visits_per_page=2, n_nonmon_channels=3,
        relay_auth_channels=1, nonmon_small_fraction=0.3,
    )
    cfg_path = tmp_path / "scenario.json"
    write_scenario(config, cfg_path)
    out = tmp_path / "data"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_generate_emits_expected_files(dataset_dir):
    for name in ("guard.csv", "client.csv", "visits.csv", "truth.json"):
        assert (dataset_dir / name).exists()


def test_ingest_summary(dataset_dir, tmp_path, capsys):
    report = tmp_path / "ingest.json"
    assert main(["ingest", "--in", str(dataset_dir), "--report", str(report)]) == 0
    summary = json.loads(report.read_text())
    assert summary["relay_channels_dropped"] == 1
    assert summary["circuits"] > 0


def test_ingest_counts_client_circuits_per_channel(tmp_path, capsys):
    # channels 1 and 2 both carry a circuit 5: two circuits on each side
    cells = "1,5,0,1,0\n1,5,10,-1,0\n2,5,20,1,0\n2,5,30,-1,0\n"
    (tmp_path / "guard.csv").write_text(cells)
    (tmp_path / "client.csv").write_text(cells)
    (tmp_path / "visits.csv").write_text("a.com,0,a.com,5\n")
    assert main(["ingest", "--in", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["circuits"] == summary["client_circuits"] == 2


def test_sanitize_writes_traces_and_report(dataset_dir, tmp_path):
    out = tmp_path / "clean"
    report = tmp_path / "report.json"
    code = main([
        "sanitize", "--in", str(dataset_dir), "--phase", "pre",
        "--out", str(out), "--report", str(report), "--seed", "5",
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    dropped = (
        payload["spam_circuits_dropped"] + payload["visit_extra_dropped"]
        + payload["handshake_dropped"] + payload["conflux_heuristic_dropped"]
        + payload["small_dropped"] + payload["trim_dropped"]
    )
    assert payload["retained"] + dropped == payload["input_circuits"]
    traces = read_dataset(out / "traces.ndjson")
    assert len(traces) == payload["retained"]
    assert any(t.label for t in traces)


def test_segment_path(dataset_dir, tmp_path):
    out = tmp_path / "seg"
    assert main([
        "sanitize", "--in", str(dataset_dir), "--phase", "pre", "--segmentation", "time",
        "--out", str(out),
    ]) == 0
    traces = read_dataset(out / "traces.ndjson")
    assert traces
    assert all(t.cells[0][1] == 1 for t in traces)
    report = json.loads((out / "report.json").read_text())
    assert report["segmentation"] == "time" and report["relay_channels_dropped"] == 1
    assert report["traces_written"] == len(traces)
    assert report["duplicates_dropped"] == 0


def test_time_path_drops_spam_channels(tmp_path):
    # the spam channel's 60-80 circuits are above the threshold: the time path
    # must write what it writes for the same logs without that channel's rows
    scenario = ScenarioConfig(
        seed=4, n_pages=2, n_visits_per_page=2, n_nonmon_channels=4,
        spam_channel_fraction=0.25, spam_circuit_range=(60, 80), relay_auth_channels=1,
    )
    write_scenario(scenario, tmp_path / "scenario.json")
    data = tmp_path / "data"
    assert main(["generate", "--config", str(tmp_path / "scenario.json"), "--out", str(data)]) == 0
    spam = json.loads((data / "truth.json").read_text())["summary"]["spam_channels"]
    assert spam
    without = tmp_path / "without-spam"
    without.mkdir()
    (without / "visits.csv").write_bytes((data / "visits.csv").read_bytes())
    lines = (data / "guard.csv").read_text().splitlines(keepends=True)
    (without / "guard.csv").write_text(
        "".join(line for line in lines if not line[:1].isdigit() or int(line.split(",")[0]) not in spam)
    )
    config = tmp_path / "sanitize.json"
    config.write_text(json.dumps({"spam_circuit_threshold": 50}))
    for name in ("data", "without-spam"):
        assert main([
            "sanitize", "--in", str(tmp_path / name), "--phase", "pre", "--segmentation", "time",
            "--config", str(config), "--out", str(tmp_path / "out" / name),
        ]) == 0
    out = tmp_path / "out"
    assert (out / "data" / "traces.ndjson").read_bytes() == (out / "without-spam" / "traces.ndjson").read_bytes()
    report = json.loads((out / "data" / "report.json").read_text())
    assert report["spam_channels"] == len(spam)
    assert report["spam_circuits_dropped"] > len(spam) * 50
    assert json.loads((out / "without-spam" / "report.json").read_text())["spam_channels"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "--in", "data", "--out", "seg"],
        ["featurize", "--in", "t", "--out", "f", "--jobs", "2"],
        ["ingest", "--in", "data", "--tag", "x"],
        ["sanitize", "--in", "data", "--phase", "pre", "--out", "o", "--tag", "x"],
        ["conflux", "--in", "data", "--out", "c.csv", "--tag", "x"],
        ["generate", "--out", "o", "--jobs", "2"],
    ],
    ids=["segment-subcommand", "featurize-jobs", "ingest-tag", "sanitize-tag", "conflux-tag", "generate-jobs"],
)
def test_removed_cli_surface_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_transform_and_featurize(dataset_dir, tmp_path):
    clean = tmp_path / "clean"
    main(["sanitize", "--in", str(dataset_dir), "--phase", "pre", "--out", str(clean)])
    jittered = tmp_path / "jittered.ndjson"
    assert main([
        "transform", "--in", str(clean / "traces.ndjson"), "--out", str(jittered),
        "--jitter-ms", "10", "--seed", "3",
    ]) == 0
    assert read_dataset(jittered)
    feats = tmp_path / "feats"
    assert main([
        "featurize", "--in", str(jittered), "--out", str(feats), "--kind", "tam",
        "--t-max-s", "45", "--n-slots", "300", "--csv",
    ]) == 0
    header = json.loads((feats / "features.bin.json").read_text())
    assert header["shape"][1:] == [2, 300]
    assert (feats / "features.csv").exists()
    assert (feats / "labels.csv").exists()


def test_conflux_subcommand(tmp_path):
    config = ScenarioConfig(seed=31, phase="post", n_pages=2, n_visits_per_page=3,
                            n_nonmon_channels=2)
    cfg_path = tmp_path / "scenario.json"
    write_scenario(config, cfg_path)
    data = tmp_path / "data"
    main(["generate", "--config", str(cfg_path), "--out", str(data)])
    out_csv = tmp_path / "analysis.csv"
    report = tmp_path / "cfx.json"
    assert main([
        "conflux", "--in", str(data), "--out", str(out_csv), "--report", str(report),
    ]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "set_id,client_primary,exit_primary,fs_detected,fs_truth,coverage"
    assert len(lines) == 1 + 6
    summary = json.loads(report.read_text())
    assert summary["sets"] == 6


def test_conflux_takes_no_guard_leg_from_a_relay_channel(tmp_path):
    config = ScenarioConfig(seed=4, phase="post", n_pages=2, n_visits_per_page=2,
                            n_nonmon_channels=2)
    data = tmp_path / "data"
    generate_dataset(config, data)
    argv = ["conflux", "--in", str(data), "--out"]
    assert main([*argv, str(tmp_path / "clean.csv")]) == 0
    # a relay channel that carries the guard leg's circuit id of set 0
    leg_guard = (data / "visits.csv").read_text().splitlines()[1].split(",")[4]
    relay = [f"999999,{leg_guard},{i * 1_000_000},{1 if i % 2 else -1}" for i in range(40)]
    with open(data / "guard.csv", "a") as handle:
        handle.write("#AUTH,999999\n" + "\n".join(relay) + "\n")
    assert main([*argv, str(tmp_path / "relay.csv")]) == 0
    assert (tmp_path / "relay.csv").read_text() == (tmp_path / "clean.csv").read_text()


def post_dataset(path):
    generate_dataset(
        ScenarioConfig(seed=4, phase="post", n_pages=2, n_visits_per_page=2, n_nonmon_channels=2), path
    )
    return path


def test_post_phase_time_path_writes_post_traces(tmp_path):
    data, out = post_dataset(tmp_path / "data"), tmp_path / "out"
    argv = ["sanitize", "--in", str(data), "--phase", "post", "--segmentation", "time"]
    assert main([*argv, "--out", str(out)]) == 0
    lines = (out / "traces.ndjson").read_text().splitlines()
    assert lines and all('"phase":"post"' in line for line in lines)
    assert json.loads((out / "report.json").read_text())["duplicates_dropped"] == 0


# counts the calls of circuit_index, wrapped on its module before the command
# runs, as a tracing harness wraps it from outside
WRAPPED_INDEX = """
import sys
import guardsift.sanitize
from guardsift.cli import main

real, calls = guardsift.sanitize.circuit_index, []
def counting(channels):
    calls.append(channels)
    return real(channels)
guardsift.sanitize.circuit_index = counting
assert main(sys.argv[1:]) == 0
print(len(calls))
"""


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["sanitize", "--phase", "post", "--out", "o"], 1),
        (["sanitize", "--phase", "post", "--segmentation", "time", "--out", "o"], 1),
        (["conflux", "--out", "o.csv"], 2),  # the guard's legs, then the client's
    ],
    ids=["sanitize-circuit", "sanitize-time", "conflux"],
)
def test_circuit_ids_resolve_through_circuit_index(tmp_path, argv, calls):
    post_dataset(tmp_path / "data")
    proc = run_fresh(["-c", WRAPPED_INDEX, *argv, "--in", "data"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) == calls


@pytest.mark.parametrize("curve", [True, False], ids=["curve", "no-curve"])
@pytest.mark.parametrize(
    "mode", [["--max-f1"], ["--target-fpr", "0.5"], ["--threshold", "0.5"]],
    ids=["max-f1", "target-fpr", "threshold"],
)
def test_eval_sweeps_at_most_once(tmp_path, mode, curve):
    # the curve and the F1 maximum read one sweep; the other modes need none
    scores = tmp_path / "scores.csv"
    scores.write_text("m,1,1,0.9\nw,2,1,0.6\nn,-1,1,0.1\nk,-1,-1,0.4\n")
    argv = ["eval", "--scores", str(scores), *mode]
    argv += ["--curve", str(tmp_path / "curve.csv")] if curve else []
    with mock.patch.object(metrics, "sweep", wraps=metrics.sweep) as sweep:
        assert main(argv) == 0
    assert sweep.call_count == (1 if curve or mode == ["--max-f1"] else 0)


def test_eval_max_f1_of_no_rows_needs_a_record(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("trace_id,true_label,predicted_label,score\n")
    assert main(["eval", "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == "guardsift eval: error: need at least one record\n"


def test_eval_max_f1(tmp_path):
    scores = tmp_path / "scores.csv"
    rows = [f"m{i},1,1,0.9" for i in range(9)] + ["miss,1,-1,0.9"]
    rows += [f"n{i},-1,1,0.1" for i in range(50)]
    scores.write_text("\n".join(rows) + "\n")
    report = tmp_path / "eval.json"
    # the default Wilson bound kicks in below 10 false positives,
    # reporting a conservative lower bound on precision
    assert main([
        "eval", "--scores", str(scores), "--r", "10", "--max-f1", "--report", str(report),
    ]) == 0
    corrected = json.loads(report.read_text())
    assert corrected["recall"] == 0.9
    assert corrected["pi_10"] < 1.0
    assert main([
        "eval", "--scores", str(scores), "--r", "10", "--max-f1",
        "--wilson-z", "0", "--report", str(report),
    ]) == 0
    plain = json.loads(report.read_text())
    assert plain["pi_10"] == 1.0
    assert plain["f1"] == pytest.approx(2 * 0.9 / 1.9)
    assert corrected["pi_10"] < plain["pi_10"]


def test_eval_target_fpr(tmp_path):
    scores = tmp_path / "scores.csv"
    rows = [f"m{i},1,1,0.8" for i in range(8)] + [f"n{i},-1,1,0.2" for i in range(400)]
    scores.write_text("\n".join(rows) + "\n")
    report = tmp_path / "eval.json"
    assert main([
        "eval", "--scores", str(scores), "--target-fpr", "0.005", "--report", str(report),
    ]) == 0
    assert json.loads(report.read_text())["recall"] == 1.0


def test_generate_rtt_sweep(tmp_path):
    config = ScenarioConfig(seed=41, phase="post", n_pages=2, n_visits_per_page=5,
                            page_cell_range=(240, 400))
    cfg_path = tmp_path / "scenario.json"
    write_scenario(config, cfg_path)
    out = tmp_path / "sweep"
    assert main([
        "generate", "--config", str(cfg_path), "--out", str(out),
        "--rtt-sweep", "0,64", "--sweep-visits", "10",
    ]) == 0
    lines = (out / "rtt_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("delta_ms,")
    assert len(lines) == 3


def test_stage_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,100,0\n")
    assert main(["ingest", "--guard", str(bad)]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["sanitize", "--unknown-flag"])
    assert err.value.code == 2


ONE_CELL_TRACE = '{"phase":"pre","label":null,"cells":[[0,1]]}\n'


@pytest.mark.parametrize(
    "ndjson, extra, message",
    [
        (ONE_CELL_TRACE + "{not json\n", [], "line 2"),
        (ONE_CELL_TRACE + '{"phase":"pre","label":null}\n', [], "line 2: missing key 'cells'"),
        ('{"phase":"pre","label":null,"cells":[[5,1],[0,-1]]}\n', [], "line 1"),
        (None, [], "No such file"),
        (ONE_CELL_TRACE, ["--kind", "tam"], "pass --t-max-s"),
        (ONE_CELL_TRACE, ["--kind", "tam", "--t-max-s", "1e10", "--n-slots", "1800"], "overflows"),
        # t_max_s * 1e9 is inf, which no integer holds
        (ONE_CELL_TRACE, ["--kind", "tam", "--t-max-s", "1e300"],
         "t_max 1e+300 s with 1800 slots overflows int64 slot arithmetic"),
    ],
    ids=["malformed-json", "missing-cells", "unsorted-cells", "missing-file", "zero-duration-tam",
         "slot-overflow", "infinite-horizon"],
)
def test_featurize_stage_errors(tmp_path, capsys, ndjson, extra, message):
    traces = tmp_path / "traces.ndjson"
    if ndjson is not None:
        traces.write_text(ndjson)
    assert main(["featurize", "--in", str(traces), "--out", str(tmp_path / "f"), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("guardsift featurize: ")
    assert message in err


@pytest.mark.parametrize(
    "kind, allocator", [("direction", "zeros"), ("timing", "zeros"), ("tam", "bincount")]
)
@pytest.mark.parametrize(
    "error, message",
    [
        (MemoryError("Unable to allocate 93.1 GiB for an array with shape (1, 100000000000)"),
         "Unable to allocate 93.1 GiB for an array with shape (1, 100000000000)"),
        (MemoryError(), "out of memory"),
    ],
    ids=["numpy-message", "bare"],
)
def test_featurize_out_of_memory_is_a_stage_error(
    tmp_path, capsys, kind, allocator, error, message
):
    # stands in for a --length or --n-slots too large for memory: a row that
    # does fit would stream a file of that size to disk
    traces = tmp_path / "traces.ndjson"
    traces.write_text(ONE_CELL_TRACE)
    with mock.patch.object(np, allocator, side_effect=error):
        status = main([
            "featurize", "--in", str(traces), "--out", str(tmp_path / "f"), "--kind", kind,
            "--t-max-s", "45",
        ])
    assert status == 1
    assert capsys.readouterr().err == f"guardsift featurize: error: {message}\n"


@pytest.mark.parametrize(
    "ndjson, flags, message",
    [
        ('{"phase":"pre","label":null,"cells":[[0,1],[1.5,1]]}\n', [], "line 1"),
        # jitter would push the second cell past int64
        ('{"phase":"pre","label":null,"cells":[[9223372036854775800,1],[9223372036854775807,1]]}\n',
         ["--jitter-ms", "20"], "sorted"),
    ],
    ids=["float-cell", "int64-overflow"],
)
def test_transform_stage_errors(tmp_path, capsys, ndjson, flags, message):
    traces = tmp_path / "traces.ndjson"
    traces.write_text(ndjson)
    assert main(["transform", "--in", str(traces), "--out", str(tmp_path / "t"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("guardsift transform: ")
    assert message in err


@pytest.mark.parametrize(
    "flags", [["--length", "0"], ["--n-slots", "0"], ["--t-max-s", "-1"], ["--t-max-s", "inf"]]
)
def test_featurize_usage_errors(tmp_path, flags):
    with pytest.raises(SystemExit) as err:
        main(["featurize", "--in", str(tmp_path / "t"), "--out", str(tmp_path / "f"), *flags])
    assert err.value.code == 2


def test_sanitize_config_typo_is_stage_error(dataset_dir, tmp_path, capsys):
    config = tmp_path / "sanitize.json"
    config.write_text(json.dumps({"min_cell": 3}))
    assert main([
        "sanitize", "--in", str(dataset_dir), "--phase", "pre", "--out", str(tmp_path / "clean"),
        "--config", str(config),
    ]) == 1
    assert "bad sanitizer config" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["--phase", "pre"], ["--phase", "post"]])
def test_time_path_names_a_circuit_that_ends_before_it_starts(tmp_path, capsys, command):
    guard = tmp_path / "guard.csv"
    guard.write_text("1,5,3000,1\n1,5,1000,-1\n")
    argv = ["sanitize", "--guard", str(guard), "--out", str(tmp_path / "out"), *command]
    assert main([*argv, "--segmentation", "time"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("guardsift sanitize: error: channel 1: circuit 5 ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("sanitize", '{"min_cells": 3', "bad sanitizer config"),
        ("sanitize", "[]", "expected a JSON object, got list"),
        ("sanitize", "3", "expected a JSON object, got int"),
        ("sanitize", "", "not JSON"),
        ("generate", '{"n_pages": 2', "bad scenario config"),
        ("generate", "[]", "expected a JSON object, got list"),
        ("generate", "null", "expected a JSON object, got NoneType"),
        ("generate", '{"n_pages": 2}\n{"seed": 1}', "not JSON"),
    ],
    ids=["sanitize-truncated", "sanitize-list", "sanitize-number", "sanitize-empty",
         "generate-truncated", "generate-list", "generate-null", "generate-two-objects"],
)
def test_bad_config_file_is_stage_error(request, tmp_path, capsys, command, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "sanitize":
        argv += ["--in", str(request.getfixturevalue("dataset_dir")), "--phase", "pre"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"guardsift {command}: error: ")
    assert message in err
    assert "Traceback" not in err


# config values of the wrong JSON type for their field, not JSON at all, or
# needing more circuit ids than a generated channel's id block holds; each
# must be rejected when the file is read, with the key or value named
WRONG_TYPE_CONFIGS = {
    "string-for-int": ("sanitize", [], {"tail_gap_ns": "x"}, "tail_gap_ns must be int,"),
    "list-for-int": ("sanitize", ["--segmentation", "time"], {"visit_span_ns": [1]}, "visit_span_ns"),
    "string-for-optional-int": ("sanitize", [], {"duration_cap_ns": "5"}, "duration_cap_ns"),
    "bool-for-int": ("sanitize", [], {"max_len": True}, "max_len must be int, got true"),
    "string-for-float": ("generate", [], {"rtt_noise_ms": "25"}, "rtt_noise_ms must be float,"),
    "strings-for-range": ("generate", [], {"page_cell_range": ["a", "b"]}, "page_cell_range"),
    "short-range": ("generate", [], {"leg_rtt_ms": [60.0]}, "leg_rtt_ms must be tuple"),
    "bool-for-int-scenario": ("generate", [], {"n_pages": True}, "n_pages"),
    "nan-for-number": ("generate", [], {"phase": "post", "competitor_rtt_delta_ms": math.nan}, "NaN"),
    "int-past-int64": ("generate", [], {"page_cell_range": [300, 10**20]}, "page_cell_range"),
    "int-past-int64-sanitize": ("sanitize", [], {"max_len": 2**63}, "max_len must be int, got 9223"),
    "removed-head-trim": ("sanitize", [], {"head_trim_pre": -1}, "unknown key 'head_trim_pre'"),
    "removed-gap-floor": ("sanitize", [], {"gap_floor_ns": 0}, "unknown key 'gap_floor_ns'"),
    "negative-seed": ("generate", [], {"seed": -5}, "seed must be >= 0, got -5"),
    "nonmon-ids-over-block": (
        "generate", [],
        {"nonmon_circuits_range": [140000, 140000], "n_nonmon_channels": 1, "n_pages": 1,
         "n_visits_per_page": 0},
        "nonmon_circuits_range",
    ),
    "visit-ids-over-block": (
        "generate", [],
        {"visits_per_channel": 40000, "n_pages": 1, "n_visits_per_page": 40000,
         "n_nonmon_channels": 0},
        "visits_per_channel",
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_CONFIGS))
def test_wrong_type_config_value_is_a_stage_error_in_a_fresh_process(request, tmp_path, case):
    command, extra, values, message = WRONG_TYPE_CONFIGS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out"), *extra]
    if command == "sanitize":
        argv += ["--in", str(request.getfixturevalue("dataset_dir")), "--phase", "pre"]
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"guardsift {command}: error: bad ")
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_extreme_sanitize_config_ints_exit_0_or_1(dataset_dir, tmp_path):
    # every integer key of the sanitizer config at the ends of int64 and around
    # 0, on both segmentation paths and phases: each run succeeds or is a
    # stage error, and none raises
    keys = [f.name for f in dataclasses.fields(SanitizeConfig)]
    assert len(keys) == 8
    config = tmp_path / "sanitize.json"
    for key in keys:
        for value in (0, -1, 2**63 - 1, -(2**63)):
            config.write_text(json.dumps({key: value}))
            for phase in ("pre", "post"):
                for path in ("circuit", "time"):
                    code = main([
                        "sanitize", "--in", str(dataset_dir), "--phase", phase,
                        "--segmentation", path, "--config", str(config), "--out", str(tmp_path / "out"),
                    ])
                    assert code in (0, 1), (key, value, phase, path)


@pytest.mark.parametrize(
    "modes",
    [
        ["--threshold", "0.5", "--target-fpr", "0.1"],
        ["--threshold", "0.5", "--max-f1"],
        ["--target-fpr", "0.1", "--max-f1"],
    ],
)
def test_eval_modes_are_mutually_exclusive(tmp_path, capsys, modes):
    scores = tmp_path / "scores.csv"
    scores.write_text("m,1,1,0.9\nn,-1,1,0.1\n")
    with pytest.raises(SystemExit) as err:
        main(["eval", "--scores", str(scores), *modes])
    assert err.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_time_path_finds_a_visit_by_its_conflux_legs(tmp_path):
    # the visit row names circuit 11, the leg the guard never sees; the guard
    # carries the other leg, 10, so the window must still be cut from channel 4
    guard = tmp_path / "guard.csv"
    cells = [f"4,10,{1000 + i * 1_000_000},{1 if i % 3 == 0 else -1}" for i in range(30)]
    guard.write_text("\n".join(cells) + "\n")
    visits = tmp_path / "visits.csv"
    visits.write_text("a.com,500,a.com,11,10,11\n")
    report = tmp_path / "report.json"
    assert main([
        "sanitize", "--guard", str(guard), "--visits", str(visits), "--phase", "post",
        "--segmentation", "time", "--out", str(tmp_path / "out"), "--report", str(report),
    ]) == 0
    assert json.loads(report.read_text())["monitored_windows"] == 1
    (trace,) = read_dataset(tmp_path / "out" / "traces.ndjson")
    assert trace.label == "a.com" and len(trace.cells) == 30 - 2


@pytest.mark.parametrize("segmentation", ["circuit", "time"])
def test_conflux_visit_with_legs_on_two_channels_is_one_trace(tmp_path, segmentation):
    # the visit's legs ride channels 1 and 2; both channels are the controlled
    # client's, so the second leg must not come out as an unlabeled trace
    guard = tmp_path / "guard.csv"
    cells = [f"1,10,{1000 + i * 1_000_000},{1 if i % 2 == 0 else -1}" for i in range(300)]
    cells += [f"2,11,{2000 + i * 1_000_000},{1 if i % 2 == 0 else -1}" for i in range(260)]
    guard.write_text("\n".join(cells) + "\n")
    visits = tmp_path / "visits.csv"
    visits.write_text("a.com,500,a.com,10,10,11\n")
    assert main([
        "sanitize", "--guard", str(guard), "--visits", str(visits), "--phase", "pre",
        "--segmentation", segmentation, "--out", str(tmp_path / "out"),
    ]) == 0
    traces = read_dataset(tmp_path / "out" / "traces.ndjson")
    assert [t.label for t in traces] == ["a.com"]


@pytest.mark.parametrize(
    "row, message",
    [
        ("a.com,-5,a.com,2", "line 1: request_ts must be non-negative"),
        ("a.com,1,a.com,2,3,3", "line 1: linked legs must have distinct circuit ids"),
    ],
    ids=["negative-request-ts", "equal-leg-ids"],
)
def test_bad_visit_row_is_stage_error(tmp_path, capsys, row, message):
    guard = tmp_path / "guard.csv"
    guard.write_text("1,2,0,1\n")
    visits = tmp_path / "visits.csv"
    visits.write_text(row + "\n")
    assert main([
        "sanitize", "--guard", str(guard), "--visits", str(visits), "--phase", "pre",
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == f"guardsift sanitize: parse error: {message}\n"


def test_circuit_path_names_a_circuit_with_cells_out_of_order(tmp_path, capsys):
    directions = [1, -1, 1] + [-1 if i % 2 else 1 for i in range(257)]
    rows = [f"1,7,{1000 + i * 1_000_000},{d}" for i, d in enumerate(directions)]
    rows[100], rows[101] = rows[101], rows[100]
    guard = tmp_path / "guard.csv"
    guard.write_text("\n".join(rows) + "\n")
    argv = ["sanitize", "--guard", str(guard), "--phase", "pre", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("guardsift sanitize: error: channel 1: circuit 7 has cells out of")
    assert "Traceback" not in err


# a line of too few fields is malformed in every input format; note that
# "abc" alone would be a header line, and a guard log of headers is empty
GARBAGE = {"binary": b"\xff\xfe\x00\x81garbage\n", "short-row": b"1,2,x\n"}
# (argv, the flags whose input file gets the garbage); {guard} is a good guard log
GARBAGE_COMMANDS = {
    "generate": (["generate", "--out", "{out}"], ["--config"]),
    "ingest": (["ingest"], ["--guard"]),
    "sanitize": (["sanitize", "--phase", "pre", "--out", "{out}"], ["--guard", "--visits"]),
    "sanitize-time": (
        ["sanitize", "--phase", "pre", "--segmentation", "time", "--out", "{out}"],
        ["--guard", "--visits"],
    ),
    "sanitize-config": (
        ["sanitize", "--phase", "pre", "--out", "{out}", "--guard", "{guard}"], ["--config"]
    ),
    "conflux": (["conflux", "--out", "{out}"], ["--guard", "--client", "--visits"]),
    "transform": (["transform", "--out", "{out}"], ["--in"]),
    "featurize": (["featurize", "--out", "{out}"], ["--in"]),
    "eval": (["eval"], ["--scores"]),
}


@pytest.mark.parametrize("garbage", sorted(GARBAGE))
@pytest.mark.parametrize("case", sorted(GARBAGE_COMMANDS))
def test_garbage_input_is_a_stage_error_in_a_fresh_process(tmp_path, case, garbage):
    argv, file_flags = GARBAGE_COMMANDS[case]
    junk, guard = tmp_path / "junk", tmp_path / "guard.csv"
    junk.write_bytes(GARBAGE[garbage])
    guard.write_text("1,2,0,1\n")
    argv = [a.format(out=tmp_path / "out", guard=guard) for a in argv]
    for flag in file_flags:
        argv += [flag, str(junk)]
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"guardsift {argv[0]}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "text",
    ["trace_id,true_label,predicted_label,score\n", "# no rows\n"],
    ids=["header-only", "comment-only"],
)
def test_eval_curve_of_no_rows_is_a_stage_error_in_a_fresh_process(tmp_path, text):
    (tmp_path / "scores.csv").write_text(text)
    argv = ["eval", "--scores", "scores.csv", "--curve", "curve.csv"]
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "guardsift eval: error: need at least one record\n"


# inputs that a stage refuses in its own words: (file name, its text, argv, stderr)
STAGE_FAILURES = {
    "transform-late-start": (
        "t.ndjson", '{"phase":"pre","label":null,"cells":[[5,1],[7,-1]]}\n',
        ["transform", "--in", "t.ndjson", "--out", "o"],
        "guardsift transform: error: trace fe22ec7eaec6057f starts at 5 ns, expected 0\n",
    ),
    "transform-no-cells": (
        "t.ndjson", '{"phase":"pre","label":null,"cells":[]}\n',
        ["transform", "--in", "t.ndjson", "--out", "o"],
        "guardsift transform: error: cannot export an empty trace\n",
    ),
    "max-f1-no-monitored": (
        "scores.csv", "n1,-1,-1,0.1\nn2,-1,1,0.4\n", ["eval", "--scores", "scores.csv", "--max-f1"],
        "guardsift eval: error: no monitored records; F1 is undefined\n",
    ),
    "target-fpr-infeasible": (
        "scores.csv", "n1,-1,1,0.9\nm1,1,1,0.1\n", ["eval", "--scores", "scores.csv", "--target-fpr", "0.5"],
        "guardsift eval: error: no threshold achieves FPR <= 0.5\n",
    ),
    "threshold-no-nonmonitored": (
        "scores.csv", "m1,1,1,0.9\nm2,2,2,0.4\n", ["eval", "--scores", "scores.csv", "--threshold", "0.5"],
        "guardsift eval: error: need monitored and non-monitored records, got n_p=2 n_n=0\n",
    ),
    "threshold-zero-denominator": (
        "scores.csv", "m1,1,1,0.2\nn1,-1,1,0.1\n",
        ["eval", "--scores", "scores.csv", "--threshold", "0.5", "--wilson-z", "0"],
        "guardsift eval: error: r-precision denominator is zero\n",
    ),
}


@pytest.mark.parametrize("case", sorted(STAGE_FAILURES))
def test_stage_failures_print_their_message_in_a_fresh_process(tmp_path, case):
    name, text, argv, stderr = STAGE_FAILURES[case]
    (tmp_path / name).write_text(text)
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == stderr
    assert "Traceback" not in proc.stderr


TIME_PATH =["sanitize", "--guard", "guard.csv", "--phase", "pre", "--out", "o", "--segmentation", "time"]
SWEEP = ["generate", "--out", "o", "--rtt-sweep"]
EVAL = ["eval", "--scores", "scores.csv"]
TRANSFORM = ["transform", "--in", "t", "--out", "o"]
# an unknown flag on every command, and numeric flag values a command cannot run with
USAGE_ERRORS = {
    **{argv[0]: [argv[0], "--no-such-flag"] for argv, _ in GARBAGE_COMMANDS.values()},
    "sanitize-client": [*TIME_PATH[:-2], "--client", "x"],
    "window-s-zero": [*TIME_PATH, "--window-s", "0"],
    "window-s-negative": [*TIME_PATH, "--window-s=-1"],
    "window-s-nan": [*TIME_PATH, "--window-s", "nan"],
    "window-s-inf": [*TIME_PATH, "--window-s", "inf"],
    "window-s-below-1-ns": [*TIME_PATH, "--window-s", "1e-12"],
    "window-s-overflow": [*TIME_PATH, "--window-s", "1e300"],
    "rtt-sweep-word": [*SWEEP, "abc"],
    "rtt-sweep-nan": [*SWEEP, "0,nan"],
    "rtt-sweep-inf": [*SWEEP, "inf"],
    "rtt-sweep-negative": [*SWEEP, "0,-32"],
    "rtt-sweep-empty": ["generate", "--out", "o", "--rtt-sweep="],
    "rtt-sweep-overflow": [*SWEEP, "0,1e308"],
    "rtt-sweep-2-63-ns": [*SWEEP, "9223372036854.775808"],
    "sweep-visits-zero": [*SWEEP, "0,32", "--sweep-visits", "0"],
    "sweep-visits-negative": [*SWEEP, "0,32", "--sweep-visits=-3"],
    "generate-seed-negative": ["generate", "--out", "o", "--seed=-1"],
    "sanitize-seed-negative": [*TIME_PATH, "--seed=-1"],
    "transform-seed-negative": ["transform", "--in", "t", "--out", "o", "--jitter-ms", "5", "--seed=-1"],
    "max-duration-s-nan": ["transform", "--in", "t", "--out", "o", "--max-duration-s", "nan"],
    "load-percent-150": [*TRANSFORM, "--load-percent", "150"],
    "load-percent-zero": [*TRANSFORM, "--load-percent", "0"],
    "load-percent-nan": [*TRANSFORM, "--load-percent", "nan"],
    "max-len-zero": [*TRANSFORM, "--max-len", "0"],
    "max-len-negative": [*TRANSFORM, "--max-len=-3"],
    "jitter-ms-negative": [*TRANSFORM, "--jitter-ms=-1"],
    "jitter-ms-nan": [*TRANSFORM, "--jitter-ms", "nan"],
    "jitter-ms-inf": [*TRANSFORM, "--jitter-ms", "inf"],
    "max-duration-s-below-1-ns": ["transform", "--in", "t", "--out", "o", "--max-duration-s", "1e-10"],
    "max-duration-s-overflow": ["transform", "--in", "t", "--out", "o", "--max-duration-s", "1e300"],
    "r-nan": [*EVAL, "--r", "nan"],
    "r-negative": [*EVAL, "--r=-1"],
    "r-inf": [*EVAL, "--r", "inf"],
    "wilson-z-nan": [*EVAL, "--wilson-z", "nan"],
    "wilson-z-negative": [*EVAL, "--wilson-z=-1"],
    "target-fpr-nan": [*EVAL, "--target-fpr", "nan"],
    "target-fpr-zero": [*EVAL, "--target-fpr", "0"],
    "target-fpr-one": [*EVAL, "--target-fpr", "1"],
    "target-fpr-two": [*EVAL, "--target-fpr", "2"],
    "threshold-nan": [*EVAL, "--threshold", "nan"],
    "threshold-inf": [*EVAL, "--threshold=-inf"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2_in_a_fresh_process(tmp_path, case):
    (tmp_path / "guard.csv").write_text("1,2,0,1\n")
    proc = run_fresh(["-m", "guardsift.cli", *USAGE_ERRORS[case]], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "usage: guardsift" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_each_command_keeps_the_stores_of_the_logs_it_decodes(dataset_dir, tmp_path):
    assert not list(dataset_dir.glob("*.store"))  # generate writes none
    sanitize = ["sanitize", "--in", str(dataset_dir), "--phase", "pre", "--out"]
    conflux = ["conflux", "--in", str(dataset_dir), "--out"]
    assert main(sanitize + [str(tmp_path / "csv")]) == 0
    assert [p.name for p in dataset_dir.glob("*.store")] == ["guard.store"]
    assert main(conflux + [str(tmp_path / "csv" / "conflux.csv")]) == 0
    assert sorted(p.name for p in dataset_dir.glob("*.store")) == ["client.store", "guard.store"]
    with mock.patch.object(ingest, "_read_table", side_effect=AssertionError("decoded a log")):
        assert main(sanitize + [str(tmp_path / "store")]) == 0
        assert main(conflux + [str(tmp_path / "store" / "conflux.csv")]) == 0
    for name in ("traces.ndjson", "report.json", "conflux.csv"):
        assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "store" / name).read_bytes()


def test_ingest_reads_a_log_from_a_pipe(dataset_dir, tmp_path, capsys):
    assert main(["ingest", "--guard", str(dataset_dir / "guard.csv")]) == 0
    want = capsys.readouterr().out
    shutil.rmtree(dataset_dir / "guard.store")
    pipe = tmp_path / "guard-pipe.csv"
    os.mkfifo(pipe)
    data = (dataset_dir / "guard.csv").read_bytes()
    writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
    writer.start()
    assert main(["ingest", "--guard", str(pipe)]) == 0
    writer.join(timeout=10)
    assert capsys.readouterr().out == want
    assert not list(tmp_path.glob("*.store"))  # a pipe's bytes are gone once read


# commands that read the cell logs, and ways to damage a store that still
# matches its log's digest; each is a stage error naming the damaged file
STORE_COMMANDS = {
    "ingest": ["ingest", "--in", "{data}"],
    "sanitize": ["sanitize", "--in", "{data}", "--phase", "pre", "--out", "{out}"],
    "sanitize-time": [
        "sanitize", "--in", "{data}", "--phase", "pre", "--segmentation", "time", "--out", "{out}"
    ],
    "conflux": ["conflux", "--in", "{data}", "--out", "{out}"],
}


def _meta_version(store):
    meta = json.loads((store / "meta.json").read_text())
    (store / "meta.json").write_text(json.dumps({**meta, "version": 99}))


STORE_DAMAGE = {
    "wrong-version": ("guard", "meta.json", _meta_version),
    "meta-not-json": ("client", "meta.json", lambda s: (s / "meta.json").write_text("{'a'")),
    "truncated-npy": (
        "guard", "timestamps.npy",
        lambda s: (s / "timestamps.npy").write_bytes((s / "timestamps.npy").read_bytes()[:200]),
    ),
    "lengths-differ": (
        "guard", "directions.npy",
        lambda s: np.save(s / "directions.npy", np.load(s / "directions.npy")[1:]),
    ),
    "object-array": (
        "client", "cell_types.npy",
        lambda s: np.save(s / "cell_types.npy", np.array([None] * 3), allow_pickle=True),
    ),
}


@pytest.fixture()
def stored_dir(dataset_dir):
    """The generated logs, with the stores ``ingest`` writes beside them."""
    assert main(["ingest", "--in", str(dataset_dir)]) == 0
    return dataset_dir


@pytest.mark.parametrize(
    "case, damage",
    [
        (case, damage)
        for case in sorted(STORE_COMMANDS)
        for damage in sorted(STORE_DAMAGE)
        if not (case.startswith("sanitize") and STORE_DAMAGE[damage][0] == "client")
    ],
)
def test_a_malformed_store_is_a_stage_error(stored_dir, tmp_path, capsys, case, damage):
    log, name, spoil = STORE_DAMAGE[damage]
    spoil(stored_dir / f"{log}.store")
    argv = [a.format(data=stored_dir, out=tmp_path / "out") for a in STORE_COMMANDS[case]]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    damaged = stored_dir / f"{log}.store" / name
    assert err.startswith(f"guardsift {argv[0]}: error: bad cell-log store {damaged}: ")
    assert err.endswith("; delete the store to read the log\n")


@pytest.mark.parametrize("case", sorted(STORE_COMMANDS))
def test_a_malformed_store_is_a_stage_error_in_a_fresh_process(stored_dir, tmp_path, case):
    STORE_DAMAGE["truncated-npy"][2](stored_dir / "guard.store")
    argv = [a.format(data=stored_dir, out=tmp_path / "out") for a in STORE_COMMANDS[case]]
    proc = run_fresh(["-m", "guardsift.cli", *argv], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"guardsift {argv[0]}: error: bad cell-log store ")
    assert "timestamps.npy" in proc.stderr and "Traceback" not in proc.stderr


def test_a_store_that_cannot_be_written_is_only_a_warning(dataset_dir, tmp_path, capsys, caplog):
    # as on a read-only dataset: each command still does its job, exit 0
    assert main(["ingest", "--guard", str(dataset_dir / "guard.csv")]) == 0
    want = capsys.readouterr().out
    shutil.rmtree(dataset_dir / "guard.store")
    (dataset_dir / "guard.store").write_text("not a directory")
    assert main(["ingest", "--guard", str(dataset_dir / "guard.csv")]) == 0
    assert capsys.readouterr().out == want
    assert f"cannot write the store of {dataset_dir / 'guard.csv'}" in caplog.text
    argv = ["sanitize", "--in", str(dataset_dir), "--phase", "pre", "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # a path that holds no store directory is no store
    assert (dataset_dir / "guard.store").read_text() == "not a directory"
