"""The public surface: every exported name and every traced stage resolves."""

import importlib
import importlib.util
from pathlib import Path

import nusamp

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_export_resolves():
    assert [name for name in nusamp.__all__ if not hasattr(nusamp, name)] == []
    assert len(set(nusamp.__all__)) == len(nusamp.__all__)


def test_every_traced_stage_resolves():
    # The benchmark tracer wraps these (module, function) pairs by name; a
    # renamed or removed function would leave its stage silently empty.
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{function}"
        for module, function in tracing.STAGES
        if not callable(getattr(importlib.import_module(f"nusamp.{module}"), function, None))
    ]
    assert missing == []
