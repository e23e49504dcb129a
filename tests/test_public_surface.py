"""The public surface: every exported name and every traced stage resolves,
and the README's examples run."""

import importlib
import importlib.util
import re
from pathlib import Path

import nusamp

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


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


def test_readme_examples_run():
    # The blocks run in order in one namespace, as a reader would paste them.
    blocks = PYTHON_BLOCK.findall((ROOT / "README.md").read_text())
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
