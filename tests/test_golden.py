"""Golden bytes: the artifacts of fixed-seed scenarios never change.

The digests of the noisy post-phase scenario were taken before the log
parser decoded bytes in chunks and grouped cells by a packed key, and
before the time path trimmed every window of a channel at once. Those of
the pre-phase visit scenario were taken before visit rows were resolved
once and each circuit's stage was keyed by (channel, circuit). Those of
the generated post-phase logs and of the RTT sweep were taken while the
Conflux scheduler still sent one cell per call; those of the generated
pre-phase logs, before the single-leg generator stated each traffic rule
once. Those of the artifacts downstream of the trace writer (transform,
featurize and eval) were taken while the trimmers still returned one
``Trace`` per trace and the writer took a list of them; their ``labels.csv``
and ``eval.json`` digests were re-taken when trace ids began to hash each
trace's direction and gap arrays as raw bytes. The time path's
digests were taken when its traces began to carry the phase of the logs
and its ``report.json`` the count of duplicate rows dropped. A change to
any of these files is a format change and must be made on purpose.

Every artifact is built twice: once from the cell-log stores that
``ingest`` writes beside the generated logs (and the trace stores that
the first reader of each trace file writes), and once with no store ever
written, so every command decodes the logs and trace files from their
bytes. Both must give the golden bytes.
"""

import dataclasses
import hashlib
import json
import shutil
from unittest import mock

import pytest

from guardsift import ingest, store
from guardsift.cli import main
from guardsift.simulate import ScenarioConfig
from oracles import write_scenario

# post phase with dropped and reordered cells and a small spam channel, so
# both segmentation paths, the time path's windows and Conflux legs all run
SCENARIO = ScenarioConfig(
    seed=0, phase="post", n_pages=3, n_visits_per_page=3, n_nonmon_channels=5,
    spam_channel_fraction=0.2, spam_circuit_range=(60, 80), relay_auth_channels=1,
    drop_prob=0.05, reorder_prob=0.05, exit_switch_prob=0.1,
)
SANITIZE_CONFIG = '{"spam_circuit_threshold": 100}'  # keeps the spam channel
GOLDEN = {
    ("clean", "circuit", "traces.ndjson"): "c1e2e9fc463eeace3bc3adf3221e8bda2b05f3ec538ce048e51931162fae7f0c",
    ("clean", "circuit", "report.json"): "73366aa5e09fd824ef43f39572a42c0cd8c6999bbca8e417eafb1bfd9498e067",
    ("clean", "time", "traces.ndjson"): "0688c48977135597d833cc32e9e7ac50633bafdc2de8f53b13a26b712fbe5a45",
    ("clean", "time", "report.json"): "f82c72f6d1ca96cce69fd23b7d28bc1774ee75b381986ca8af9dac6f67588736",
    ("repeated", "circuit", "traces.ndjson"): "c1e2e9fc463eeace3bc3adf3221e8bda2b05f3ec538ce048e51931162fae7f0c",
    ("repeated", "circuit", "report.json"): "ddd549d7065bbea70f51ae42b4d4e4420ac37af38095a57daab7b1a0bf032426",
    ("repeated", "time", "traces.ndjson"): "0688c48977135597d833cc32e9e7ac50633bafdc2de8f53b13a26b712fbe5a45",
    ("repeated", "time", "report.json"): "d66c3e502f67c355b5a0611bb42aac5e2927b37578b327abb70b54c7f88b2eb3",
    ("clean", "conflux.csv"): "12b8e19e2ca1d9fb5c8420ae16c36de2d645d61fbb94cf2cb4bfc82847faae74",
}

# pre phase with retried, alternative-service and redirected visit rows, bad
# handshakes, a relay channel and a kept spam channel, so main-circuit
# selection sees ties and ignored candidates, and monitored channels drop
# their other circuits as unselected
PRE_SCENARIO = ScenarioConfig(
    seed=0, phase="pre", n_pages=3, n_visits_per_page=3, n_nonmon_channels=5,
    retry_prob=0.5, altsvc_prob=0.5, redirect_prob=0.5, invalid_handshake_fraction=0.1,
    spam_channel_fraction=0.2, spam_circuit_range=(60, 80), relay_auth_channels=1,
)
PRE_GOLDEN = {
    ("circuit", "traces.ndjson"): "59a9ad2de77fd02580787ea1596462d94c5355edf33867821ad4623a9de9606e",
    ("circuit", "report.json"): "1404537fe921e6ca4ee35e7f53dfd3eed7c4aeb9b730b9aa2045b8503d976966",
    ("time", "traces.ndjson"): "33e27309e6a2d9c2a6d0a5e63f2d745d356117a411ac72155bb93301734d732e",
    ("time", "report.json"): "5b0052e42c5271e8fa1d030714f0c4d87877bd06cdeab71de441ed66d6d8bd71",
}


def repeat_rows(text: str) -> str:
    """Every 7th data row again, 3 lines further on, so copies of a row sit
    apart from it and out of time order."""
    lines = text.split("\n")
    out = list(lines)
    for i in reversed(range(len(lines))):
        if lines[i][:1].isdigit() and i % 7 == 0:
            out.insert(min(i + 4, len(out)), lines[i])
    return "\n".join(out)


def added_rows(text: str) -> int:
    """How many rows ``repeat_rows`` adds to ``text``."""
    return repeat_rows(text).count("\n") - text.count("\n")


def generate(scenario: ScenarioConfig, tmp_path, name: str, stores: bool = True):
    """``guardsift generate`` of ``scenario`` at seed 3 into ``tmp_path / name``;
    with ``stores``, ``guardsift ingest`` then writes the cell-log stores."""
    config = tmp_path / f"{name}-scenario.json"
    write_scenario(scenario, config)
    out = tmp_path / name
    assert main(["generate", "--config", str(config), "--out", str(out), "--seed", "3"]) == 0
    if stores:
        assert main(["ingest", "--in", str(out)]) == 0
        assert sorted(p.name for p in out.glob("*.store")) == ["client.store", "guard.store"]
    return out


def in_each_mode(digests_of, tmp_path) -> dict:
    """``{mode: digests_of(tmp_path / mode, stores)}`` for the logs read from
    the stores ingest writes ("store"), and decoded from their bytes by
    commands that write no store ("csv")."""
    found = {"store": digests_of(tmp_path / "store", True)}
    with mock.patch.object(store, "_keep"):
        found["csv"] = digests_of(tmp_path / "csv", False)
    assert not list((tmp_path / "csv").rglob("*.store"))
    return found


def check(found: dict, artifact, golden: str) -> None:
    """Both modes' digest of ``artifact`` is ``golden``."""
    assert {mode: digests[artifact] for mode, digests in found.items()} == dict.fromkeys(found, golden)


def sanitize_digests(data, out, phase: str, path: str, config) -> dict:
    """sha256 of ``traces.ndjson`` and ``report.json`` of one sanitize run."""
    argv = ["sanitize", "--in", str(data), "--phase", phase, "--out", str(out)]
    assert main(argv + ["--segmentation", path, "--config", str(config), "--seed", "5"]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("traces.ndjson", "report.json")
    }


def artifact_digests(tmp_path, stores: bool) -> dict:
    """sha256 of every artifact in ``GOLDEN``, from fresh runs in ``tmp_path``.
    The repeated rows go into a copy of the clean logs, so with ``stores``
    that copy's guard store is stale: the first sanitize must decode the
    log and replace the store, which the second then reads."""
    tmp_path.mkdir()
    clean = generate(SCENARIO, tmp_path, "clean", stores)
    repeated = tmp_path / "repeated"
    shutil.copytree(clean, repeated)
    text = (clean / "guard.csv").read_text()
    (repeated / "guard.csv").write_text(repeat_rows(text))
    config = tmp_path / "sanitize.json"
    config.write_text(SANITIZE_CONFIG)
    digests = {}
    for data in ("clean", "repeated"):
        for path in ("circuit", "time"):
            out = tmp_path / "out" / data / path
            found = sanitize_digests(tmp_path / data, out, "post", path, config)
            digests.update(((data, path, name), digest) for name, digest in found.items())
            dropped = json.loads((out / "report.json").read_text())["duplicates_dropped"]
            assert dropped == (added_rows(text) if data == "repeated" else 0)
    conflux = tmp_path / "conflux.csv"
    assert main(["conflux", "--in", str(clean), "--out", str(conflux)]) == 0
    digests["clean", "conflux.csv"] = hashlib.sha256(conflux.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module", params=[ingest._CHUNK_BYTES, 4096], ids=["1MiB", "4KiB"])
def digests(request, tmp_path_factory):
    # small chunks put chunk boundaries all through the logs
    with mock.patch.object(ingest, "_CHUNK_BYTES", request.param):
        return in_each_mode(artifact_digests, tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("artifact", list(GOLDEN), ids=["-".join(key) for key in GOLDEN])
def test_artifact_bytes_are_unchanged(digests, artifact):
    check(digests, artifact, GOLDEN[artifact])


def pre_artifact_digests(tmp_path, stores: bool) -> dict:
    """sha256 of every artifact in ``PRE_GOLDEN``, from fresh runs in ``tmp_path``."""
    tmp_path.mkdir()
    data = generate(PRE_SCENARIO, tmp_path, "data", stores)
    config = tmp_path / "sanitize.json"
    config.write_text(SANITIZE_CONFIG)
    digests = {}
    for path in ("circuit", "time"):
        found = sanitize_digests(data, tmp_path / "out" / path, "pre", path, config)
        digests.update(((path, name), digest) for name, digest in found.items())
    return digests


@pytest.fixture(scope="module")
def pre_digests(tmp_path_factory):
    return in_each_mode(pre_artifact_digests, tmp_path_factory.mktemp("golden-pre"))


@pytest.mark.parametrize("artifact", list(PRE_GOLDEN), ids=["-".join(key) for key in PRE_GOLDEN])
def test_pre_phase_artifact_bytes_are_unchanged(pre_digests, artifact):
    check(pre_digests, artifact, PRE_GOLDEN[artifact])


# the artifacts downstream of the trace writer, from the traces of SCENARIO:
# transform of the circuit path's, featurize of the time path's, and eval of
# scores derived from the direction run's labels.csv
DOWNSTREAM_GOLDEN = {
    ("transform", "jittered.ndjson"): "eedde4e77e96f0031a951577a2abf5fb44219d9270ed6d7b2336ae9bd064c14f",
    ("direction", "features.bin"): "62881bfa6b390704fe64911601d6ae706231351a3840087bfa24a4de08056e4d",
    ("direction", "labels.csv"): "f765944b6e12a82d21b7b651cf9dbd9ff32fa46aec79412686f5d9bc9c6b5681",
    ("timing", "features.bin"): "6fda92d4c612699641ec584ee0415bc08430428734387ad13e6c361136b75ad5",
    ("timing", "labels.csv"): "f765944b6e12a82d21b7b651cf9dbd9ff32fa46aec79412686f5d9bc9c6b5681",
    ("tam", "features.bin"): "ba96b45796237aa7c1c91e676b4097a48b993d7783741da3d7c977266ded5a77",
    ("tam", "labels.csv"): "f765944b6e12a82d21b7b651cf9dbd9ff32fa46aec79412686f5d9bc9c6b5681",
    ("eval", "eval.json"): "81e2f744bdb6155ac6755269063f59cd9553420e89dbb03d82063eaa5153a4e9",
}


def scores_from_labels(labels_csv, scores_csv) -> None:
    """A score file with one row per ``labels.csv`` row: the page's index
    as the true label, and a prediction and a score drawn from the trace id."""
    rows = [line.split(",") for line in labels_csv.read_text().splitlines()[1:]]
    index = {label: i for i, label in enumerate(sorted({label for _, label in rows if label}))}
    lines = ["trace_id,true_label,predicted_label,score"]
    for trace_id, label in rows:
        true = index.get(label, -1)
        predicted = true if int(trace_id[:2], 16) % 4 else (true + 1) % len(index)
        lines.append(f"{trace_id},{true},{predicted},{int(trace_id[2:6], 16) / 65536}")
    scores_csv.write_text("\n".join(lines) + "\n")


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def downstream_artifact_digests(tmp_path, stores: bool) -> dict:
    """sha256 of every artifact in ``DOWNSTREAM_GOLDEN``, from fresh runs in ``tmp_path``."""
    tmp_path.mkdir()
    data = generate(SCENARIO, tmp_path, "data", stores)
    config = tmp_path / "sanitize.json"
    config.write_text(SANITIZE_CONFIG)
    for path in ("circuit", "time"):
        sanitize_digests(data, tmp_path / path, "post", path, config)
    jittered = tmp_path / "jittered.ndjson"
    traces = str(tmp_path / "circuit" / "traces.ndjson")
    argv = ["transform", "--in", traces, "--out", str(jittered), "--jitter-ms", "20", "--seed", "1"]
    assert main(argv) == 0
    digests = {("transform", "jittered.ndjson"): digest(jittered)}
    for kind in ("direction", "timing", "tam"):
        out = tmp_path / kind
        traces = str(tmp_path / "time" / "traces.ndjson")
        assert main(["featurize", "--in", traces, "--out", str(out), "--kind", kind]) == 0
        digests.update(((kind, name), digest(out / name)) for name in ("features.bin", "labels.csv"))
    scores = tmp_path / "scores.csv"
    scores_from_labels(tmp_path / "direction" / "labels.csv", scores)
    assert main(["eval", "--scores", str(scores), "--report", str(tmp_path / "eval.json")]) == 0
    digests["eval", "eval.json"] = digest(tmp_path / "eval.json")
    return digests


@pytest.fixture(scope="module")
def downstream_digests(tmp_path_factory):
    return in_each_mode(downstream_artifact_digests, tmp_path_factory.mktemp("golden-downstream"))


@pytest.mark.parametrize(
    "artifact", list(DOWNSTREAM_GOLDEN), ids=["-".join(key) for key in DOWNSTREAM_GOLDEN]
)
def test_downstream_artifact_bytes_are_unchanged(downstream_digests, artifact):
    check(downstream_digests, artifact, DOWNSTREAM_GOLDEN[artifact])


def test_repeated_rows_are_dropped_as_duplicates(tmp_path, capsys):
    # the edit leaves ingest's guard store stale: sanitize decodes the log
    # and replaces the store, and each later run reads the count from it
    data = generate(SCENARIO, tmp_path, "data")
    text = (data / "guard.csv").read_text()
    added = added_rows(text)
    (data / "guard.csv").write_text(repeat_rows(text))
    sanitize = ["sanitize", "--in", str(data), "--phase", "post", "--out"]
    for run in ("stale", "fresh"):
        assert main(sanitize + [str(tmp_path / run)]) == 0
        assert json.loads((tmp_path / run / "report.json").read_text())["duplicates_dropped"] == added
        capsys.readouterr()
        assert main(["ingest", "--in", str(data)]) == 0
        assert f'"duplicates_dropped": {added}' in capsys.readouterr().out
    meta = json.loads((data / "guard.store" / "meta.json").read_text())
    assert meta["duplicate_count"] == added


# post phase at the default size, and under flow-control stress: a window of
# one 3-cell SENDME interval, frequent exit-side penalties and wide RTT noise,
# so the Conflux scheduler stalls on both legs and switches often; and the
# pre-phase visit scenario with dropped and swapped cells, so retried,
# alternative-service and redirected visits, relay and spam channels and bad
# openings all come from the single-leg generator
GENERATE_SCENARIOS = {
    "post-default": ScenarioConfig(phase="post"),
    "post-stress": ScenarioConfig(
        phase="post", sendme_interval=3, initial_cwnd=3, exit_switch_prob=0.3, rtt_noise_ms=80.0
    ),
    "pre-noisy": dataclasses.replace(PRE_SCENARIO, drop_prob=0.05, reorder_prob=0.05),
}
GENERATE_GOLDEN = {
    ("post-default", "guard.csv"): "a21e56f23ea5ab2eee82533e122223b80f825e73d76ae348649b31bff8ffad98",
    ("post-default", "client.csv"): "5262dedaa91d2575d35850d3723d533b10df8f8eba25b1034cbca3552db999b8",
    ("post-default", "visits.csv"): "7cb0330a6fa9cb93d5407425b5ae17c07a249762c9bd30e800fd3839be308f30",
    ("post-default", "truth.json"): "a9b46694c71db8130f14c7a5d9eeb3c3974be00632f7377eea02ef0d1e59169e",
    ("post-stress", "guard.csv"): "4dd414e0961445917ba792b72b788c06cb567003e0ca496b015019ceb329a23a",
    ("post-stress", "client.csv"): "c425841b116cabf66290760d8f99e72e6b85124a43d0bd2a2fbf7f4a781c9f38",
    ("post-stress", "visits.csv"): "dd7818606ff6e4aff07e57be16d834f7fdfafe55ee77a2510305551440e26cce",
    ("post-stress", "truth.json"): "449573f386736cadab318ed3fe4854f81a69c387c5b0d07d4ba4cf564a686d51",
    ("pre-noisy", "guard.csv"): "dde196104f4e3eec84048a285bb963d3de187b78aea044e275e355f8112aa2b0",
    ("pre-noisy", "client.csv"): "406a58d689a3588a9a2e237285be846480e341fde4cb2767ff748728f85f7dcd",
    ("pre-noisy", "visits.csv"): "3c969a628e1d2169d771d361c956960be406b44d95b6d4d879448a702150206b",
    ("pre-noisy", "truth.json"): "3521d48350c6c3aa59997bf6c4536b06057c6b89ded597900215bde204407a95",
}
SWEEP_GOLDEN = "cee92feac176c9ca4465292031077eda185f3f696d6b41cc668ccd94c961ff93"


@pytest.mark.parametrize("scenario", list(GENERATE_SCENARIOS))
def test_generated_bytes_are_unchanged(tmp_path, scenario):
    data = generate(GENERATE_SCENARIOS[scenario], tmp_path, scenario)
    for name in ("guard.csv", "client.csv", "visits.csv", "truth.json"):
        digest = hashlib.sha256((data / name).read_bytes()).hexdigest()
        assert digest == GENERATE_GOLDEN[scenario, name], name


def test_rtt_sweep_bytes_are_unchanged(tmp_path):
    assert main(["generate", "--out", str(tmp_path), "--rtt-sweep", "0,16,64,512"]) == 0
    assert hashlib.sha256((tmp_path / "rtt_sweep.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN



def tied_scores() -> str:
    """240 rows on nine score values, of every kind: right, wrong and false
    positives, and rows that predict the non-monitored class."""
    lines = ["trace_id,true_label,predicted_label,score"]
    for i in range(240):
        true = -1 if i % 3 == 0 else i % 5
        predicted = -1 if i % 11 == 0 else (true if i % 4 else (i + 1) % 5)
        lines.append(f"t{i},{true},{predicted},{i * 7 % 9 / 8}")
    return "\n".join(lines) + "\n"


# eval of hand-built score files, taken before the scores were read into
# columns: many tied scores; a -0.0 row before 0.0 rows (the first of equal
# scores in file order names the threshold, so -0.0 is printed); and one
# class only, where every mode is a stage error but the curve is written
EVAL_SCORES = {
    "ties": tied_scores(),
    "negative-zero": "a,1,1,-0.0\nb,2,2,0.0\nc,1,1,0.0\nd,-1,-1,0.75\ne,-1,2,0.25\nf,2,1,0.5\n",
    "all-monitored": "a,1,1,0.5\nb,2,1,0.25\nc,1,-1,0.75\n",
    "all-unmonitored": "a,-1,1,0.5\nb,-1,-1,0.25\nc,-1,2,0.75\n",
}
EVAL_MODES = {
    "max-f1": ["--max-f1"], "target-fpr": ["--target-fpr", "0.005"], "threshold": ["--threshold", "0.5"],
}
EVAL_WILSON = {"default": [], "z0": ["--wilson-z", "0"]}
# (scores, mode, wilson) -> sha256 of eval.json, or the error of a run that fails
EVAL_GOLDEN = {
    ("ties", "max-f1", "default"): "1cbae108832e620019da7a99aae4eacd081b6f508e65b104919d16c0bcd043a2",
    ("ties", "max-f1", "z0"): "124f4d8f1e44bade856307cd44ffa3187310d2628974de087e4f9ff43d3f173f",
    ("ties", "target-fpr", "default"): "ff6f472fa0a3ef5e2d3ae9a149aa2672867d0279edb945d4fb34b94b1eccf36b",
    ("ties", "target-fpr", "z0"): "ff6f472fa0a3ef5e2d3ae9a149aa2672867d0279edb945d4fb34b94b1eccf36b",
    ("ties", "threshold", "default"): "ede377deb551b77f23bc8913211b6b766129b74e173023978e2a878334cd1550",
    ("ties", "threshold", "z0"): "124f4d8f1e44bade856307cd44ffa3187310d2628974de087e4f9ff43d3f173f",
    ("negative-zero", "max-f1", "default"): "9b525694c2e257e18728cac5924955145946c8614b9646956b7c7364ca27dc12",
    ("negative-zero", "max-f1", "z0"): "6f03dab1e0b389e86000b1effbb6da26fa6028058f6f22a4e298eeb901c80e77",
    ("negative-zero", "target-fpr", "default"): "7efd2733d527576db670dd40845d3198181dde543e56cf1379aa6a51adeae2ea",
    ("negative-zero", "target-fpr", "z0"): "7efd2733d527576db670dd40845d3198181dde543e56cf1379aa6a51adeae2ea",
    ("negative-zero", "threshold", "default"): "b6377e4ba9b5bc93c2d5c76b00357c18c3515b33dc8ee4976fe4f7f0c7ff3e20",
    ("negative-zero", "threshold", "z0"): "b6377e4ba9b5bc93c2d5c76b00357c18c3515b33dc8ee4976fe4f7f0c7ff3e20",
    ("all-monitored", "max-f1", "default"): "no threshold yields defined rates",
    ("all-monitored", "max-f1", "z0"): "no threshold yields defined rates",
    ("all-monitored", "target-fpr", "default"): "need monitored and non-monitored records",
    ("all-monitored", "target-fpr", "z0"): "need monitored and non-monitored records",
    ("all-monitored", "threshold", "default"): "need monitored and non-monitored records, got n_p=3 n_n=0",
    ("all-monitored", "threshold", "z0"): "need monitored and non-monitored records, got n_p=3 n_n=0",
    ("all-unmonitored", "max-f1", "default"): "no monitored records; F1 is undefined",
    ("all-unmonitored", "max-f1", "z0"): "no monitored records; F1 is undefined",
    ("all-unmonitored", "target-fpr", "default"): "need monitored and non-monitored records",
    ("all-unmonitored", "target-fpr", "z0"): "need monitored and non-monitored records",
    ("all-unmonitored", "threshold", "default"): "need monitored and non-monitored records, got n_p=0 n_n=3",
    ("all-unmonitored", "threshold", "z0"): "need monitored and non-monitored records, got n_p=0 n_n=3",
}
# (scores, wilson) -> sha256 of curve.csv, the same in every mode
CURVE_GOLDEN = {
    ("ties", "default"): "a97adf064690dfc18d8bcd3117e435442b392e76f4ee7b30056ae2265abf849f",
    ("ties", "z0"): "5b697c795d9cfe784955ec53484caeb71eb7d0945c5584a81bbf760d628c2d9b",
    ("negative-zero", "default"): "6001a1849635adaf9d296edd680ed391b6173e7aeb2550447ba0498004f7ec8e",
    ("negative-zero", "z0"): "4e0a9e5b830298a3c89d8676ca1a073f4baa56cf78ff2a54cb7600cc62fd63cc",
    ("all-monitored", "default"): "34d8fb3acd8060a773c3d97eccebc3caf9e32ee448959b66f96d7a190770df8d",
    ("all-monitored", "z0"): "34d8fb3acd8060a773c3d97eccebc3caf9e32ee448959b66f96d7a190770df8d",
    ("all-unmonitored", "default"): "3526d6155c67033fb793be68e7d30acc0b040171321fea804d93b4c8a0177139",
    ("all-unmonitored", "z0"): "3526d6155c67033fb793be68e7d30acc0b040171321fea804d93b4c8a0177139",
}


@pytest.mark.parametrize("wilson", list(EVAL_WILSON))
@pytest.mark.parametrize("mode", list(EVAL_MODES))
@pytest.mark.parametrize("scores", list(EVAL_SCORES))
def test_eval_bytes_are_unchanged(tmp_path, capsys, scores, mode, wilson):
    path, report, curve = tmp_path / "scores.csv", tmp_path / "eval.json", tmp_path / "curve.csv"
    path.write_text(EVAL_SCORES[scores])
    argv = ["eval", "--scores", str(path), "--report", str(report), "--curve", str(curve)]
    code = main(argv + EVAL_MODES[mode] + EVAL_WILSON[wilson])
    out, err = capsys.readouterr()
    expected = EVAL_GOLDEN[scores, mode, wilson]
    if scores.startswith("all-"):
        assert (code, out, err) == (1, "", f"guardsift eval: error: {expected}\n")
        assert not report.exists()
    else:
        assert (code, err) == (0, "")
        assert digest(report) == expected
        assert out == report.read_text()
    assert digest(curve) == CURVE_GOLDEN[scores, wilson]
