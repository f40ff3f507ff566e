"""The names and fields that the bench tracer reads from guardsift.

``bench/tracing.py`` wraps guardsift functions by name and counts fields of
their arguments and results. The file is only read here, never edited, so a
name or field that the package drops fails tier-1, not only a traced
benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

import guardsift.cli as cli
from guardsift.conflux import SetAnalysis
from guardsift.ingest import parse_client_log, parse_guard_log
from guardsift.sanitize import SanitizeConfig, sanitize
from guardsift.simulate import GeneratedDataset
from guardsift.trace import TraceColumns, read_dataset, write_dataset
from oracles import trace_from_cells

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the file only defines names at import
    return module


TRACER = _tracing()


@pytest.mark.parametrize("name", TRACER.CLI_BINDINGS)
def test_each_cli_binding_resolves_on_the_cli(name):
    assert callable(getattr(cli, name))


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in TRACER.MODULE_ATTRS.items() for name in names]
)
def test_each_module_attr_resolves_on_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"guardsift.{module}"), name))


def test_the_fields_the_tracer_counts_exist(tmp_path):
    guard = parse_guard_log(io.StringIO("1,7,0,1\n1,7,5,-1\n1,7,5,-1\n"))
    assert (guard.cell_count, guard.duplicate_count) == (2, 1)
    assert guard.channels[0].circuit_count == 1
    client = parse_client_log(io.StringIO("1,7,0,1,0\n"), io.StringIO(""))
    assert (client.stats.cell_count, client.stats.duplicate_count) == (1, 0)
    report = sanitize(guard.channels, SanitizeConfig(min_cells=1), "pre").report
    assert (report.input_circuits, report.retained) == (1, 0)
    # inject_jitter's first argument is a row that transform reads
    path = tmp_path / "traces.ndjson"
    write_dataset(TraceColumns.from_traces([trace_from_cells(((0, 1), (5, -1)))]), 0, path)
    (trace,) = read_dataset(path)
    assert trace.cells == ((0, 1), (5, -1))
    assert {"fs_detected", "fs_truth"} <= {f.name for f in dataclasses.fields(SetAnalysis)}
    assert {"guard_csv", "client_csv"} <= {f.name for f in dataclasses.fields(GeneratedDataset)}
