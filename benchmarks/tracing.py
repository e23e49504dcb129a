"""Span tracer that measures nusamp's stages from outside the package.

``Tracer.installed()`` replaces each public stage function with a wrapper in
every nusamp module that binds it (``numerics.expm`` as well as the
``joint_verdict`` that ``oracle`` imported by name), so internal calls are
traced too.  All wrappers share one span stack: a span's self time is its
duration minus the time covered by its direct children, and a stage's call
count counts only entries that are not nested inside the same stage.
Spans are recorded only between ``begin_op`` and ``end_op``, so input
generation and output checks never show up as program time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module, function) -> stage.  Helpers that are not listed fold into the
# self time of the stage that called them.
STAGES = {
    ("numerics", "expm"): "numerics.expm",
    ("numerics", "eig_clustered"): "numerics.eig_cluster",
    ("numerics", "column_normalized_sigma_ratio"): "criterion.mode_matrix",
    ("system_model", "check_minimal"): "system_model.minimality",
    ("system_model", "modal_decompose"): "system_model.modal_decompose",
    ("criterion", "mode_matrix"): "criterion.mode_matrix",
    ("criterion", "schedule_conditioning"): "criterion.mode_matrix",
    ("criterion", "factor_n1"): "criterion.factorization",
    ("criterion", "factor_n2"): "criterion.factorization",
    ("criterion", "full_determinant"): "criterion.factorization",
    ("criterion", "joint_verdict"): "criterion.joint_verdict",
    ("oracle", "cross_validate"): "oracle.oracle",
    ("oracle", "reachability_matrix"): "oracle.oracle",
    ("oracle", "controllable_direct"): "oracle.oracle",
    ("experiments", "deadbeat_inputs"): "experiments.deadbeat",
    ("experiments", "reconstruct_state"): "experiments.reconstruct",
    ("experiments", "simulate_impulse"): "experiments.simulate",
    ("experiments", "simulate_zoh"): "experiments.simulate",
    ("experiments", "classify_case"): "experiments.classify",
    ("scheduler", "suggest_schedule"): "scheduler.schedule_search",
    ("scheduler", "validate_uniform"): "scheduler.uniform",
    ("scheduler", "forbidden_instants_order2"): "scheduler.forbidden",
    ("cli", "build_analysis"): "cli.analysis",
    ("cli", "main"): "cli.main",
}
MODULES = ("numerics", "system_model", "criterion", "oracle", "experiments", "scheduler", "cli")
SEARCH_STAGE = "scheduler.schedule_search"
CANDIDATE = "criterion.schedule_conditioning"
SPAN_CAP = 100_000


class Tracer:
    """Shared span stack plus per-stage aggregates for one process."""

    def __init__(self):
        self.op = None
        self.stack = []  # frames: [stage, name, start_ns, child_ns, span_index]
        self.depth = Counter()
        self.calls = Counter()
        self.self_ns = Counter()
        self.candidates = 0
        self.search_ns = 0
        self.ops = 0
        self.spans = []  # (op, name, stage, start_ns, end_ns, parent_index)
        self.dropped = 0

    def begin_op(self, op: int) -> None:
        self.op = op
        self._enter("op", "op")

    def end_op(self) -> None:
        self._exit()
        self.ops += 1
        self.op = None

    def _enter(self, name: str, stage: str) -> None:
        if self.depth[stage] == 0:
            self.calls[stage] += 1
        self.depth[stage] += 1
        if name == CANDIDATE and self.depth[SEARCH_STAGE]:
            self.candidates += 1
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        self.stack.append([stage, name, time.perf_counter_ns(), 0, index])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        stage, name, start, child_ns, index = self.stack.pop()
        duration = end - start
        self.self_ns[stage] += duration - child_ns
        self.depth[stage] -= 1
        if stage == SEARCH_STAGE and self.depth[stage] == 0:
            self.search_ns += duration
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if index >= 0:
            self.spans[index] = (self.op, name, stage, start, end, parent[4] if parent else -1)

    def wrap(self, fn, name: str, stage: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._enter(name, stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Bind the traced wrappers everywhere nusamp binds the originals."""
        modules = [importlib.import_module("nusamp")] + [
            importlib.import_module(f"nusamp.{name}") for name in MODULES
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        wrappers = {}
        for (module, function), stage in STAGES.items():
            original = getattr(by_name[module], function)
            wrappers[id(original)] = (original, self.wrap(original, f"{module}.{function}", stage))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def aggregate(self) -> dict:
        """Plain-data totals, mergeable across processes with ``merge``."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "candidates": self.candidates,
            "search_ns": self.search_ns,
            "ops": self.ops,
            "dropped": self.dropped,
        }

    def merge(self, totals: dict, spans: list) -> None:
        """Fold a child process's ``aggregate()`` and spans into the current op.

        The child's own op frame is dropped: the op is the whole child
        process, timed here, so its time is already in this tracer's op span.
        """
        self.calls.update({k: v for k, v in totals["calls"].items() if k != "op"})
        self.self_ns.update({k: v for k, v in totals["self_ns"].items() if k != "op"})
        self.candidates += totals["candidates"]
        self.search_ns += totals["search_ns"]
        self.dropped += totals["dropped"]
        base = len(self.spans)
        inner = [span for span in spans if span[2] != "op"]
        kept = inner[: max(0, SPAN_CAP - base)]
        self.dropped += len(inner) - len(kept)
        for _, name, stage, start, end, parent in kept:
            # Child parents pointed at the dropped op frame (index 0) or at
            # spans shifted by one; re-anchor them to this op's frame.
            anchored = self.stack[-1][4] if parent <= 0 else base + parent - 1
            self.spans.append((self.op, name, stage, start, end, anchored))
