"""The public surface: every exported name and every traced stage resolves,
the schedule search loads only when used, and the README's examples run."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import nusamp
from nusamp import numerics, scheduler

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACING = ROOT / "benchmarks" / "tracing.py"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_every_export_resolves():
    assert [name for name in nusamp.__all__ if not hasattr(nusamp, name)] == []
    assert len(set(nusamp.__all__)) == len(nusamp.__all__)


def test_dir_and_star_import_cover_every_export():
    assert set(nusamp.__all__) <= set(dir(nusamp))
    namespace = {}
    exec("from nusamp import *", namespace)
    assert set(nusamp.__all__) <= set(namespace)


def test_schedule_search_exports_are_read_from_their_module(monkeypatch):
    # Never copied into the package, so a function rebound in
    # nusamp.scheduler (as the benchmark tracer does) is what nusamp returns.
    assert nusamp.suggest_schedule is scheduler.suggest_schedule
    assert "suggest_schedule" not in vars(nusamp)
    monkeypatch.setattr(scheduler, "suggest_schedule", len)
    assert nusamp.suggest_schedule is len
    monkeypatch.undo()
    assert nusamp.suggest_schedule is scheduler.suggest_schedule


def test_search_limits_have_one_definition():
    for name in ("DEFAULT_UNIFORM_HORIZON", "MAX_SCHEDULE_INSTANTS", "MAX_UNIFORM_HORIZON"):
        assert getattr(scheduler, name) is getattr(numerics, name), name


def test_analyze_loads_no_schedule_search():
    # A fresh interpreter: importing the CLI and running analyze leave
    # nusamp.scheduler unloaded, and the first suggest run loads it.
    code = """
import io, sys
import nusamp.cli as cli
loaded = ["nusamp.scheduler" in sys.modules]
codes = [cli.main(["analyze", "tests/corpus/order8.json", "--format", "json"], out=io.StringIO())]
loaded.append("nusamp.scheduler" in sys.modules)
codes.append(cli.main(["suggest", "tests/corpus/rotation.json", "--window", "0,2", "--count", "2",
                       "--min-spacing", "0.1"], out=io.StringIO()))
loaded.append("nusamp.scheduler" in sys.modules)
print(codes, loaded)
"""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[0, 0] [False, False, True]", done.stdout


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
