#!/usr/bin/env python3
"""nusamp benchmark: one closed-loop workload per run.

    python3 benchmarks/run.py --workload verdict_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
tree this file sits in, never from an installed copy.  BLAS is pinned to one
thread in this process and in every child (matrices here are at most 13x13,
and threaded BLAS only adds jitter).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` (and at
least the workload's fixed ops).  Their timings are corrected for the host's
drifting speed with a reference kernel timed between ops and inside long
ones (see ``hostspeed.py``); the uncorrected values are printed in the notes.
``--trace 1`` runs each fixed op twice, untraced and with the span tracer
installed, and reports the per-layer metrics plus the tracing overhead;
spans are written to ``.bench_out/``.
Every metric is printed by name with its unit, followed by notes (tail
percentile and sample count, failed ratio, output digest, ...).  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_IMPORTS = 7
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import nusamp.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_imports(count: int, importtime: bool, host=None) -> tuple:
    """Seconds to import nusamp.cli in ``count`` fresh interpreters, and the
    perf_counter (start, end) of each child.

    With ``importtime`` the figure is the cumulative ``-X importtime`` entry
    of nusamp.cli instead of the wall clock around the import.  A ``host``
    samples the reference kernel before each import and after the last.
    """
    flags = ["-X", "importtime"] if importtime else []
    values, spans = [], []
    for _ in range(count):
        if host is not None:
            host.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", IMPORT_CODE],
            capture_output=True, text=True, env=child_env(), timeout=60, check=True,
        )
        if importtime:
            line = next(l for l in proc.stderr.splitlines() if l.rstrip().endswith("| nusamp.cli"))
            values.append(int(line.split("|")[1]) / 1e6)
        else:
            values.append(float(proc.stdout.strip().splitlines()[-1]))
        spans.append((start, time.perf_counter()))
    if host is not None:
        host.sample()
    return values, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nusamp" / "__init__.py").is_file():
        print(f"error: no nusamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    # Compile the package once so every timed import reads bytecode.
    fresh_imports(1, importtime=False)
    from hostspeed import HostSpeed

    setup_host, host = (None, None) if args.trace else (HostSpeed(), HostSpeed())
    imports, import_spans = fresh_imports(SETUP_IMPORTS, importtime=bool(args.trace), host=setup_host)

    import nusamp.cli  # noqa: F401  (the in-process import the workloads use)

    if Path(nusamp.cli.__file__).resolve().parent != SRC / "nusamp":
        print(f"error: imported nusamp from {nusamp.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from measure import digest, end_to_end, per_layer, run_loop
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, OUT, child_env(), HERE / "cli_child.py")
    for op in workload.warmup():
        op.run()

    tracer = Tracer() if args.trace else None
    loop = run_loop(workload, args.seconds, tracer, host)
    if tracer is not None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics, notes = per_layer(loop, tracer, imports, declared)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps({"aggregate": tracer.aggregate(), "spans": tracer.spans}))
        notes["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, notes = end_to_end(workload, loop, imports, import_spans, setup_host, host)
        for name, (value, unit) in workload.summary(loop["times"], loop["outcomes"]).items():
            notes[name] = f"{value!r} {unit}"
    failures = loop["failures"]
    notes["digest"] = digest(loop["outcomes"])
    notes["blas_threads"] = BLAS_THREADS

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for name, text in notes.items():
        print(f"  {name:48s} {text}")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(loop["times"]) + len(loop["traced_times"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
