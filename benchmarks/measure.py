"""Timing loop and metric reduction for the benchmark runner."""

import contextlib
import hashlib
import json
import math
import resource
import statistics
import time

from hostspeed import HostSpeed
from workloads import AMBIGUITY_BAND, Outcome

HARD_LIMIT_S = 150.0


def tail(times_ns: list, preferred: float) -> tuple:
    """(percentile, value_ns, beyond) at ``preferred``, lowered if needed.

    Nearest-rank percentile; the tail is the highest percentile up to the
    workload's preferred one that has at least ten samples beyond it.
    """
    ordered = sorted(times_ns)
    n = len(ordered)
    for p in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if p <= preferred and n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def _call(run, host=None) -> tuple:
    """(ns, output, error) of one timed call.

    With a ``host``, a long call is sampled from inside, and the time those
    samples took is taken out of the call's.
    """
    with host.inside() if host is not None else contextlib.nullcontext():
        before = host.inside_ns if host is not None else 0
        t0 = time.perf_counter_ns()
        try:
            out, error = run(), None
        except Exception as exc:  # an op failure is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - t0
        if host is not None:
            ns -= host.inside_ns - before
    return ns, out, error


def _timed(op, i: int, tracer, host) -> tuple:
    """``_call`` of op i, inside a traced op span when a tracer is given."""
    if tracer is None:
        return _call(op.run, host)
    with tracer.installed():
        tracer.begin_op(i)
        result = _call(op.traced_run or op.run)
        if op.child_spans is not None and op.child_spans.exists():
            dump = json.loads(op.child_spans.read_text())
            tracer.merge(dump["aggregate"], dump["spans"])
            op.child_spans.unlink()
        tracer.end_op()
    return result


def _checked(op, out, error) -> Outcome:
    if error is None:
        try:
            return op.check(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return Outcome(error, None)


def run_loop(workload, seconds: float, tracer=None, host=None) -> dict:
    """Closed loop over ops 0, 1, 2, ...; only the call into nusamp is timed.

    Without a tracer the loop runs for ``seconds`` and at least the fixed
    ops, ending on a pass boundary.  With one it runs exactly the fixed ops,
    each once untraced and once traced, alternating which goes first, so the
    two rates see the same inputs and the same machine drift.  A ``host``
    samples the reference kernel between ops, inside long in-process ops and
    once after the last; each untraced op's (start, end) is kept to pick the
    samples that go with it.
    """
    times, spans, traced_times, outcomes, failures = [], [], [], [], []
    inside = host if workload.in_process else None
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= workload.fixed_ops and (
            tracer is not None or (elapsed >= seconds and i % workload.pass_len == 0)
        ):
            break
        if elapsed > HARD_LIMIT_S:
            failures.append(f"op {i}: stopped at the {HARD_LIMIT_S:.0f} s limit")
            break
        if host is not None:
            host.maybe_sample()
        op = workload.prepare(i)
        variants = [None] if tracer is None else [None, tracer][:: 1 if i % 2 == 0 else -1]
        for variant in variants:
            begin = time.perf_counter()
            ns, out, error = _timed(op, i, variant, inside)
            end = time.perf_counter()
            outcome = _checked(op, out, error)
            if variant is None:
                times.append(ns)
                spans.append((begin, end))
                if i < workload.fixed_ops:
                    outcomes.append(outcome)
            else:
                traced_times.append(ns)
            if outcome.failure is not None:
                failures.append(f"op {i}{' (traced)' if variant else ''}: {outcome.failure}")
        i += 1
    if host is not None:
        host.sample()
    return {"times": times, "spans": spans, "traced_times": traced_times,
            "outcomes": outcomes, "failures": failures}


def digest(outcomes: list) -> str:
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(json.dumps(outcome.canonical, sort_keys=True, default=repr).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def agreement(outcomes: list) -> tuple:
    judged = [o.agreement for o in outcomes if o.agreement is not None]
    return (sum(judged) / len(judged) if judged else float("nan")), sum(judged), len(judged)


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(
    workload, loop: dict, setup: list, setup_spans: list, setup_host: HostSpeed, host: HostSpeed
) -> tuple:
    """Gated metrics; every timing scaled to the nominal host speed."""

    def reduce(times_ns: list, setup_s: list) -> dict:
        _, tail_ns, _ = tail(times_ns, workload.tail_percentile)
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(times_ns) / (sum(times_ns) / 1e9),
            "op_p50_ms": statistics.median(times_ns) / 1e6,
            "op_tail_ms": tail_ns / 1e6,
        }

    times = loop["times"]
    raw = reduce(times, setup)
    scaled = reduce(
        [ns * host.factor(*span) for ns, span in zip(times, loop["spans"])],
        [s * setup_host.factor(*span) for s, span in zip(setup, setup_spans)],
    )
    pct, _, beyond = tail(times, workload.tail_percentile)
    share, agreed, judged = agreement(loop["outcomes"])
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(workload.name), "MB")
    metrics["oracle_agreement"] = (share, "ratio")
    notes = {
        "host_reference": f"ops: {host.describe()}; setup: {setup_host.describe()}",
        "uncorrected": ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        "op_tail": f"p{pct:g} of {len(times)} ops, {beyond} beyond",
        "oracle_agreement": f"{agreed} of {judged} judged verdicts outside {list(AMBIGUITY_BAND)}",
        "factorization_outliers": f"{sum(o.outlier for o in loop['outcomes'])} above the bound "
        "at orders above 4 (counted, not failed)",
        "failed_ratio": f"{len(loop['failures']) / len(times):.6g} ({len(loop['failures'])} of {len(times)})",
        "setup_s": f"median of {len(setup)} fresh-interpreter imports of nusamp.cli",
    }
    return metrics, notes


def per_layer(loop: dict, tracer, imports: list, declared: list) -> tuple:
    """Values of the declared per-layer metrics from one traced run.

    ``<stage>.calls`` and ``<stage>.self_ms`` are per traced op, and
    ``<stage>.share`` is the stage's self time as a share of op time.
    """
    ops = len(loop["traced_times"])
    op_ns = sum(loop["traced_times"])
    untraced_rate = len(loop["times"]) / (sum(loop["times"]) / 1e9)
    traced_rate = ops / (op_ns / 1e9)
    special = {
        # Candidates summed over all traced ops (two passes of the specs).
        "scheduler.schedule_search.candidates": tracer.candidates,
        "scheduler.schedule_search.us_per_candidate": (
            tracer.search_ns / tracer.candidates / 1e3 if tracer.candidates else 0.0
        ),
        "cli.import_ms": statistics.median(imports) * 1e3,
        "trace.overhead": 100.0 * (1.0 - traced_rate / untraced_rate),
    }
    metrics = {}
    for entry in declared:
        name = entry["name"]
        stage, _, quantity = name.rpartition(".")
        if name in special:
            value = special[name]
        elif quantity == "calls":
            value = tracer.calls[stage] / ops
        elif quantity == "self_ms":
            value = tracer.self_ns[stage] / ops / 1e6
        elif quantity == "share":
            value = 100.0 * tracer.self_ns[stage] / op_ns
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
        metrics[name] = (value, entry["unit"])
    notes = {
        "trace": f"{ops} traced ops, {len(tracer.spans)} spans kept, {tracer.dropped} dropped",
        "ops_per_s": f"untraced {untraced_rate:.6g}, traced {traced_rate:.6g}",
    }
    return metrics, notes
