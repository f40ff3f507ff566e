"""Import budgets: each subcommand imports only the stages it runs.

Every check runs in a fresh interpreter, so modules that other tests
already imported cannot hide an import a command should not make.
"""

import importlib
import json
from pathlib import Path

import pytest

from conftest import run_fresh
from guardsift.simulate import ScenarioConfig
from guardsift.trace import TraceColumns, write_dataset
from oracles import trace_from_cells, write_scenario

STAGES = {
    "conflux", "features", "ingest", "metrics", "sanitize", "segment", "simulate", "transforms"
}


def _fresh(code: str, cwd: Path) -> str:
    proc = run_fresh(["-c", code], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(argv: list[str], cwd: Path) -> set[str]:
    """Module names loaded once ``guardsift.cli.main(argv)`` has run and succeeded."""
    code = (
        "import json, sys\n"
        "from guardsift.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(_fresh(code, cwd).splitlines()[-1]))


def _stages(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("guardsift.")} & STAGES


@pytest.fixture()
def traces_path(tmp_path):
    path = tmp_path / "traces.ndjson"
    cells = [(0, 1), (1_000_000, -1), (3_000_000, 1)]
    traces = [trace_from_cells(cells, label="a.com"), trace_from_cells(cells)]
    write_dataset(TraceColumns.from_traces(traces), 0, path)
    return path


def test_eval_loads_no_numpy(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("trace_id,true_label,predicted_label,score\nm,1,1,0.9\nn,-1,1,0.1\n")
    modules = _modules_after(["eval", "--scores", str(scores), "--wilson-z", "0"], tmp_path)
    assert "numpy" not in modules
    assert _stages(modules) == {"metrics"}


@pytest.mark.parametrize(
    "argv, stages",
    [
        (
            ["featurize", "--in", "{traces}", "--out", "{out}", "--kind", "tam", "--t-max-s", "1"],
            {"features"},
        ),
        (["transform", "--in", "{traces}", "--out", "{out}", "--jitter-ms", "5"], {"transforms"}),
    ],
    ids=["featurize", "transform"],
)
def test_trace_commands_load_only_their_stage(tmp_path, traces_path, argv, stages):
    argv = [a.format(traces=traces_path, out=tmp_path / "out") for a in argv]
    assert _stages(_modules_after(argv, tmp_path)) == stages


def test_generate_loads_no_process_pool(tmp_path):
    scenario = tmp_path / "scenario.json"
    write_scenario(ScenarioConfig(n_pages=1, n_visits_per_page=1, n_nonmon_channels=1), scenario)
    modules = _modules_after(["generate", "--config", str(scenario), "--out", str(tmp_path / "o")], tmp_path)
    assert not modules & {"concurrent.futures", "multiprocessing"}


@pytest.mark.parametrize("extra", [[], ["--segmentation", "time"]], ids=["circuit", "time"])
def test_sanitize_loads_no_generator_metrics_features_or_conflux(tmp_path, extra):
    guard = tmp_path / "guard.csv"
    guard.write_text("1,2,0,1\n")
    argv = ["sanitize", "--guard", str(guard), "--phase", "pre", "--out", str(tmp_path / "o")]
    argv += extra
    loaded = _stages(_modules_after(argv, tmp_path))
    assert not loaded & {"simulate", "metrics", "features", "conflux"}


@pytest.fixture()
def logs(tmp_path):
    scenario = tmp_path / "scenario.json"
    write_scenario(ScenarioConfig(phase="post", n_pages=1, n_visits_per_page=2, n_nonmon_channels=1), scenario)
    code = f"from guardsift.cli import main\nmain(['generate', '--config', {str(scenario)!r}, '--out', 'logs'])"
    _fresh(code, tmp_path)
    return tmp_path / "logs"


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--in", "{logs}"],
        ["conflux", "--in", "{logs}", "--out", "{out}"],
        ["sanitize", "--in", "{logs}", "--phase", "post", "--out", "{out}"],
        ["sanitize", "--in", "{logs}", "--phase", "post", "--segmentation", "time", "--out", "{out}"],
    ],
    ids=["ingest", "conflux", "sanitize-circuit", "sanitize-time"],
)
def test_log_commands_load_no_numpy_ma(tmp_path, logs, argv):
    # numpy.ma costs about 12 ms to import; set operations such as np.union1d load it
    argv = [a.format(logs=logs, out=tmp_path / "out") for a in argv]
    assert "numpy.ma" not in _modules_after(argv, tmp_path)


def test_sanitize_stages_load_no_hashlib(tmp_path):
    # sanitize and transform still load it through numpy.random (secrets, hmac)
    code = (
        "import json, sys\n"
        "import guardsift.cli as cli\n"
        "cli._bind(('columns', 'ingest', 'sanitize', 'segment', 'trace'))\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "hashlib" not in set(json.loads(_fresh(code, tmp_path)))


def test_import_guardsift_loads_no_stage(tmp_path):
    code = "import json, sys, guardsift\nprint(json.dumps(sorted(sys.modules)))\n"
    modules = set(json.loads(_fresh(code, tmp_path)))
    assert "numpy" not in modules and not _stages(modules)


def test_import_submodule_as_binds_the_module(tmp_path):
    # the sanitize module defines a sanitize() function of the same name
    code = (
        "import types\n"
        "import guardsift.sanitize as m\n"
        "import guardsift\n"
        "print(isinstance(m, types.ModuleType), guardsift.sanitize is m)\n"
    )
    assert _fresh(code, tmp_path).strip() == "True True"


def test_cli_stage_names_resolve_as_module_attributes():
    import guardsift.cli as cli
    import guardsift.ingest as ingest

    assert cli.parse_guard_log is ingest.parse_guard_log


@pytest.mark.parametrize("module", ["guardsift", "guardsift.cli"])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(module), "no_such_name")
