"""Guard-side Tor cell-trace toolkit.

Synthetic traffic generation with ground truth, circuit sanitization,
time-based segmentation, linked-leg (Conflux) analysis, featurization,
and open-world evaluation metrics.

Importing the package imports none of its modules: each public name below
is imported from its module on first access (PEP 562), so a process pays
only for the stages it uses.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "conflux": (
            "CellTypeCode", "PrimaryLegVerdict", "detect_first_segment", "fs_ground_truth",
            "identify_primary_legs", "leg_coverage", "merge_legs", "strip_conflux_handshake",
        ),
        "ingest": (
            "PageVisitRecord", "filter_relay_channels", "parse_client_log", "parse_guard_log",
        ),
        "metrics": (
            "NONMON", "ConfusionCounts", "Rates", "ScoreRecord", "WilsonParams", "f1",
            "operating_point_at_fpr", "r_precision", "rates", "select_threshold_max_f1", "sweep",
            "tally", "wilson_upper",
        ),
        "sanitize": (
            "SanitizationReport", "SanitizeConfig", "compute_duration_cap", "detect_spam_channels",
            "filter_small_circuits", "sanitize", "select_main_circuit", "trim_head", "trim_tail",
            "validate_handshake_post", "validate_handshake_pre",
        ),
        "segment": ("extract_monitored_window", "segment_nonmonitored"),
        "simulate": (
            "LegState", "ScenarioConfig", "generate_dataset", "run_rtt_advantage_sweep",
            "schedule_lowrtt",
        ),
        "trace": (
            "INCOMING", "OUTGOING", "CellRecord", "Channel", "Circuit", "ConfluxSet", "Trace",
            "normalize", "read_dataset", "serialize_dataset", "write_dataset",
        ),
        "transforms": ("inject_jitter", "truncate_length", "truncate_percent"),
        "features": ("TAM", "build_tam", "direction_sequence", "directional_timing", "slot_sweep"),
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it on its package: the ``sanitize``
        # module must not replace the exported ``sanitize`` function
        if name in _EXPORTS and isinstance(value, ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
