"""Command-line interface and the JSON system-definition format.

A system document is a JSON object with the fields

    order       system order n (an integer in 1..12)
    A           row-major list of n*n reals
    b, c        lists of n reals
    schedule    optional strictly increasing list of instants
    x0          optional list of n reals
    tolerances  optional record: singularity, cluster, rank

Stderr: a ``warning:`` line comes after every input has validated and before the analysis.
Exit codes, from one table: 0 positive, 1 usage, parse or tolerance error,
2 negative or not applicable, 3 non-minimal input system.
The forbidden, suggest and uniform commands import ``nusamp.scheduler`` when
they run, so that analyze never loads it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import numerics
from .criterion import CriterionReport, SamplingSchedule
from .errors import (
    AnalysisError,
    DimensionError,
    MinimalityError,
    NotApplicableError,
    SingularScheduleError,
    SystemDocumentError,
    ToleranceError,
)
from .experiments import (
    classify_case,
    deadbeat_inputs,
    default_final_time,
    reconstruct_state,
    simulate_impulse,
)
from .numerics import Tolerances
from .oracle import controllable_direct, cross_validate
from .system_model import Realization

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_NOT_MINIMAL = 3
_TOLERANCE_FIELDS = tuple(field.name for field in fields(Tolerances))
# Each Tolerances field's flag, metavar and help; the field is the flag's dest.
_TOLERANCE_FLAGS = {
    "singularity": ("--tol", "TOL", "singularity tolerance"),
    "cluster": ("--cluster-tol", "CLUSTER_TOL", "eigenvalue clustering tolerance"),
    "rank": ("--rank-tol", "RANK_TOL", "rank-test tolerance"),
}


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """Parsed system-definition file; equality is identity."""

    order: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    schedule: tuple | None = None
    x0: tuple | None = None
    tolerances: Tolerances = Tolerances()


def _field_floats(raw, name: str, expected: int) -> list:
    if not isinstance(raw, (list, tuple)):
        raise SystemDocumentError(f"field {name}: expected a list of numbers")
    if len(raw) != expected:
        raise SystemDocumentError(
            f"field {name}: expected {expected} entries, found {len(raw)}"
        )
    values = [
        numerics.as_float(item, lambda: SystemDocumentError(f"field {name}: entry {k} is not a number"))
        for k, item in enumerate(raw)
    ]
    if not all(np.isfinite(values)):
        raise SystemDocumentError(f"field {name}: entries must be finite")
    return values


def parse_system_document(text: str) -> SystemDocument:
    """Parse and validate a system document; errors name the bad field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemDocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SystemDocumentError("document root must be a JSON object")

    known = {"order", "A", "b", "c", "schedule", "x0", "tolerances"}
    for key in raw:
        if key not in known:
            raise SystemDocumentError(f"field {key}: unknown field")
    for key in ("order", "A", "b", "c"):
        if key not in raw:
            raise SystemDocumentError(f"field {key}: missing")

    order = raw["order"]
    if isinstance(order, bool) or not isinstance(order, int) or not 1 <= order <= numerics.MAX_ORDER:
        raise SystemDocumentError(f"field order: must be an integer in 1..{numerics.MAX_ORDER}")

    a_values = _field_floats(raw["A"], "A", order * order)
    b_values = _field_floats(raw["b"], "b", order)
    c_values = _field_floats(raw["c"], "c", order)

    schedule = None
    if raw.get("schedule") is not None:
        entries = raw["schedule"]
        if not isinstance(entries, (list, tuple)) or len(entries) < 1:
            raise SystemDocumentError("field schedule: expected a non-empty list")
        values = _field_floats(entries, "schedule", len(entries))
        try:
            schedule = SamplingSchedule(values).instants
        except DimensionError as exc:
            raise SystemDocumentError(f"field schedule: {exc}") from exc

    x0 = None
    if raw.get("x0") is not None:
        x0 = tuple(_field_floats(raw["x0"], "x0", order))

    tolerances = Tolerances()
    if raw.get("tolerances") is not None:
        record = raw["tolerances"]
        if not isinstance(record, dict):
            raise SystemDocumentError("field tolerances: expected an object")
        for key in _TOLERANCE_FIELDS:
            if key in record:
                try:
                    tolerances = replace(tolerances, **{key: record[key]})
                except ToleranceError as exc:
                    raise SystemDocumentError(
                        f"field tolerances.{key}: must be a positive number"
                    ) from exc
        unknown = set(record) - set(_TOLERANCE_FIELDS)
        if unknown:
            raise SystemDocumentError(f"field tolerances.{sorted(unknown)[0]}: unknown field")

    return SystemDocument(
        order=order,
        A=np.array(a_values).reshape(order, order),
        b=np.array(b_values),
        c=np.array(c_values),
        schedule=schedule,
        x0=x0,
        tolerances=tolerances,
    )


def document_to_json(document: SystemDocument) -> str:
    """Serialize a system document; every field round-trips through parsing."""
    payload = {
        "order": document.order,
        "A": [float(x) for x in document.A.reshape(-1)],
        "b": [float(x) for x in document.b],
        "c": [float(x) for x in document.c],
    }
    if document.schedule is not None:
        payload["schedule"] = list(document.schedule)
    if document.x0 is not None:
        payload["x0"] = list(document.x0)
    payload["tolerances"] = asdict(document.tolerances)
    return json.dumps(payload, indent=2)


def load_system_document(path: str) -> SystemDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SystemDocumentError(f"cannot read {path}: {exc}") from exc
    return parse_system_document(text)


def _complex_entry(value: complex) -> dict:
    return {"re": value.real, "im": value.imag, "abs": abs(value)}


def _criterion_entry(report: CriterionReport) -> dict:
    entry = {
        "reachable": report.reachable,
        "observable": report.observable,
        "sigma_ratio": report.sigma_ratio,
        "mode_determinant": _complex_entry(report.mode_det),
        "n1": report.n1,
        "n2": _complex_entry(report.n2),
        "full_determinant": _complex_entry(report.full_det),
        "factorization_residual": report.factorization_residual,
        "shifted_intervals": list(report.alphas.alpha),
    }
    if report.alphas.alpha_n is not None:
        entry["alpha_n"] = report.alphas.alpha_n
    if report.controllable is not None:
        entry["controllable"] = report.controllable
        entry["constructible"] = report.constructible
        entry["membership_residual"] = report.membership_residual
    return entry


# The number of systems whose keys or realizations _remembered holds.
_MEMO_SYSTEMS = 16
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


def _remembered(realization: Realization) -> Realization:
    """An equal realization that was analysed before, else ``realization``.

    Systems are keyed by content: the bytes of A, b and c and the
    tolerances.  A system's first analysis records only its key, so a
    stream of distinct systems keeps no realization.  Its second keeps the
    realization, and every later analysis of the system reuses it with the
    facts it has computed.  Past _MEMO_SYSTEMS systems, the least recently
    analysed is dropped.
    """
    A = realization.A
    key = (A.shape, A.tobytes(), realization.b.tobytes(), realization.c.tobytes(),
           realization.tolerances)
    with _memo_lock:
        if key not in _memo:
            _memo[key] = None
            if len(_memo) > _MEMO_SYSTEMS:
                _memo.popitem(last=False)
            return realization
        _memo.move_to_end(key)
        if _memo[key] is None:
            _memo[key] = realization
        return _memo[key]


def build_analysis(document: SystemDocument, schedule: SamplingSchedule, tolerances: Tolerances) -> dict:
    """Full pipeline: minimality, modes, criterion, oracle cross-check.

    A system analysed again reuses the facts of its earlier analyses (see
    ``_remembered``).  Returns a JSON-serializable dict; the text rendering
    is derived from the same dict so the two forms cannot diverge.
    """
    realization = _remembered(Realization(document.A, document.b, document.c, tolerances))
    minimality = realization.minimality
    result = {
        "system": {"order": realization.n},
        "schedule": list(schedule.instants),
        "tolerances": {name: getattr(tolerances, name) for name in _TOLERANCE_FIELDS},
        "minimality": {
            "controllable_ct": minimality.controllable_ct,
            "observable_ct": minimality.observable_ct,
            "minimal": minimality.minimal,
            "controllability_sigma_ratio": minimality.controllability_rank.sigma_ratio,
            "observability_sigma_ratio": minimality.observability_rank.sigma_ratio,
        },
        "warnings": [],
    }
    if not minimality.minimal:
        result["warnings"].append(
            "realization is not minimal; the joint criterion does not apply"
        )
        return result

    result["modes"] = [
        {"eigenvalue": {"re": lam.real, "im": lam.imag}, "multiplicity": m}
        for lam, m in realization.modes.roots
    ]

    oracle = cross_validate(realization, schedule)
    result["criterion"] = _criterion_entry(oracle.criterion)
    result["oracle"] = {
        "reachable": oracle.reachable,
        "observable": oracle.observable,
        "agrees_with_criterion": oracle.agrees_with_criterion,
        "reachability_sigma_ratio": oracle.reachability_sigma_ratio,
        "observability_sigma_ratio": oracle.observability_sigma_ratio,
    }
    if not oracle.agrees_with_criterion:
        result["warnings"].append(
            "criterion and direct rank test disagree: "
            f"mode-matrix sigma ratio {oracle.criterion.sigma_ratio:.6g}, "
            f"direct reachability sigma ratio {oracle.reachability_sigma_ratio:.6g}, "
            f"direct observability sigma ratio {oracle.observability_sigma_ratio:.6g}, "
            f"singularity tolerance {tolerances.singularity:.6g}"
        )

    if document.x0 is not None and oracle.criterion.controllable is not None:
        result["oracle"]["controllable_x0"] = controllable_direct(
            realization, schedule, document.x0
        )

    label = classify_case(oracle.criterion)
    if label is not None:
        result["case"] = {"label": label}
    return result


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_text(result: dict) -> str:
    """Human-readable form of an analysis dict (6 significant digits)."""
    lines = [f"order {result['system']['order']} system"]
    lines.append("schedule: " + ", ".join(_fmt(t) for t in result["schedule"]))
    lines.append(
        "tolerances: "
        + ", ".join(f"{name} {_fmt(value)}" for name, value in result["tolerances"].items())
    )
    minimality = result["minimality"]
    lines.append(
        f"minimal: {_fmt(minimality['minimal'])} "
        f"(controllable {_fmt(minimality['controllable_ct'])}, "
        f"observable {_fmt(minimality['observable_ct'])})"
    )
    if "modes" in result:
        parts = []
        for entry in result["modes"]:
            lam = entry["eigenvalue"]
            parts.append(
                f"{_fmt(lam['re'])}{lam['im']:+.6g}j (m={entry['multiplicity']})"
            )
        lines.append("eigenvalues: " + "; ".join(parts))
    if "criterion" in result:
        crit = result["criterion"]
        lines.append(
            f"jointly reachable and observable: {_fmt(crit['reachable'])} "
            f"(mode-matrix sigma ratio {_fmt(crit['sigma_ratio'])})"
        )
        lines.append(
            f"  |mode det| {_fmt(crit['mode_determinant']['abs'])}, "
            f"N1 {_fmt(crit['n1'])}, |N2| {_fmt(crit['n2']['abs'])}, "
            f"|full det| {_fmt(crit['full_determinant']['abs'])}, "
            f"factorization residual {_fmt(crit['factorization_residual'])}"
        )
        if "controllable" in crit:
            lines.append(
                f"controllable/constructible: {_fmt(crit['controllable'])} "
                f"(membership residual {_fmt(crit['membership_residual'])})"
            )
    if "oracle" in result:
        oracle = result["oracle"]
        lines.append(
            f"direct rank test: reachable {_fmt(oracle['reachable'])}, "
            f"observable {_fmt(oracle['observable'])}, "
            f"agreement {_fmt(oracle['agrees_with_criterion'])}"
        )
        if "controllable_x0" in oracle:
            lines.append(
                f"x0-specific controllability: {_fmt(oracle['controllable_x0'])}"
            )
    if "case" in result:
        lines.append(f"three-instant case: {result['case']['label']}")
    for warning in result["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _tolerances_from_args(document: SystemDocument, args) -> Tolerances:
    """The document's tolerances with every tolerance flag that was set."""
    flags = {name: getattr(args, name) for name in args.tolerance_fields}
    return replace(document.tolerances, **{k: v for k, v in flags.items() if v is not None})


def _parse_floats(text: str, label: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise SystemDocumentError(f"{label}: {exc}") from exc


def _window(args) -> tuple:
    window = _parse_floats(args.window, "--window")
    if len(window) != 2:
        raise SystemDocumentError("--window: expected 'lo,hi'")
    return window


def _schedule(document: SystemDocument, args, err) -> tuple:
    """The run's schedule, from --schedule or else the file, and its warnings.

    A command-line schedule that replaces the file's writes its warning
    here, so call this after every other input of the run has validated.
    """
    if args.schedule is None:
        if document.schedule is None:
            raise SystemDocumentError(
                "no schedule: provide --schedule or a schedule field in the file"
            )
        return SamplingSchedule(document.schedule), []
    schedule = SamplingSchedule(_parse_floats(args.schedule, "--schedule"))
    if document.schedule is None:
        return schedule, []
    warning = "schedule: command-line value overrides the one in the file"
    err.write(f"warning: {warning}\n")
    return schedule, [warning]


def _subcommand(sub, name: str, run, summary: str, tolerances=_TOLERANCE_FIELDS):
    """Add a subcommand with a flag for each Tolerances field in ``tolerances``
    (every field unless given) and return its parser.

    ``run(args, document, system, err)`` parses the subcommand's own flags,
    then resolves the schedule if it needs one, and returns
    ``(result, render, exit_code)``.
    """
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(run=run, tolerance_fields=tolerances)
    parser.add_argument("system", help="system-definition JSON file")
    for field in tolerances:
        flag, metavar, help_text = _TOLERANCE_FLAGS[field]
        parser.add_argument(flag, dest=field, metavar=metavar, type=float, help=help_text)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nusamp",
        description="Reachability/observability analysis of SISO systems under nonuniform sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "analyze", _cmd_analyze, "joint criterion with oracle cross-check")
    p.add_argument("--schedule", help="comma-separated instants (overrides the file)")

    p = _subcommand(sub, "forbidden", _cmd_forbidden,
                    "forbidden second instants of an order-2 oscillatory system",
                    tolerances=("singularity", "cluster"))
    p.add_argument("--t0", type=float, default=0.0, help="first sampling instant")
    p.add_argument("--window", required=True, help="query window as 'lo,hi'")

    p = _subcommand(sub, "suggest", _cmd_suggest, "search a window for a well-conditioned schedule")
    p.add_argument("--window", required=True, help="search window as 'lo,hi'")
    p.add_argument("--count", type=int, required=True,
                   help=f"number of instants (at most {numerics.MAX_SCHEDULE_INSTANTS})")
    p.add_argument("--min-spacing", type=float, required=True, help="minimum spacing")

    p = _subcommand(sub, "deadbeat", _cmd_deadbeat, "n-step input sequence reaching a target state")
    p.add_argument("--schedule", help="comma-separated input instants")
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--target", required=True, help="target state, comma-separated")
    p.add_argument("--final-time", type=float, default=None, help="evaluation instant after the inputs")

    p = _subcommand(sub, "reconstruct", _cmd_reconstruct,
                    "recover the initial state from free-response outputs")
    p.add_argument("--schedule", help="comma-separated output instants")
    p.add_argument("--outputs", required=True, help="measured outputs, comma-separated")

    p = _subcommand(sub, "uniform", _cmd_uniform, "validate a uniform sampling interval")
    p.add_argument("--interval", type=float, required=True, help="sampling interval T")
    p.add_argument("--horizon", type=int, default=numerics.DEFAULT_UNIFORM_HORIZON,
                   help=f"largest multiple of T to scan (default {numerics.DEFAULT_UNIFORM_HORIZON}, "
                   f"at most {numerics.MAX_UNIFORM_HORIZON})")

    return parser


def _cmd_analyze(args, document, system, err):
    schedule, warnings = _schedule(document, args, err)
    result = build_analysis(document, schedule, system.tolerances)
    result["warnings"] = warnings + result["warnings"]
    if not result["minimality"]["minimal"]:
        return result, render_text, EXIT_NOT_MINIMAL
    return result, render_text, EXIT_OK if result["criterion"]["reachable"] else EXIT_NEGATIVE


def _forbidden_text(result: dict) -> str:
    listing = ", ".join(_fmt(t) for t in result["forbidden"]) or "none in window"
    return (
        f"forbidden separation period: {_fmt(result['period'])}\n"
        f"forbidden instants in window: {listing}\n"
        f"empirical guard band: {_fmt(result['guard_band'])}\n"
    )


def _cmd_forbidden(args, document, system, err):
    from .scheduler import forbidden_instants_order2

    window = _window(args)
    forbidden = forbidden_instants_order2(system, args.t0, window)
    return {**asdict(forbidden), "window": list(window)}, _forbidden_text, EXIT_OK


def _suggest_text(result: dict) -> str:
    return (
        "schedule: " + ", ".join(_fmt(t) for t in result["schedule"]) + "\n"
        f"sigma ratio: {_fmt(result['sigma_ratio'])}\n"
    )


def _cmd_suggest(args, document, system, err):
    from .scheduler import ScheduleSearchSpec, suggest_schedule

    spec = ScheduleSearchSpec(window=_window(args), count=args.count, min_spacing=args.min_spacing)
    schedule, objective = suggest_schedule(system, spec)
    result = {"schedule": list(schedule.instants), "sigma_ratio": objective}
    return result, _suggest_text, EXIT_OK


def _relative_residual(actual, expected, terms=lambda: ()) -> float:
    """Re-simulation residual |actual - expected| / max(1, |expected|, sum of |t| over
    terms()), the summands of the re-simulated value (none by default)."""
    norm = numerics.vector_norm
    parts = lambda: (norm(actual - np.asarray(expected)), sum(map(norm, terms())))
    error, scale = numerics.finite(parts, "re-simulation overflowed")
    return error / max(1.0, norm(expected), scale)


def _deadbeat_text(result: dict) -> str:
    return (
        "inputs: " + ", ".join(_fmt(u) for u in result["inputs"]) + "\n"
        f"final time: {_fmt(result['final_time'])}\n"
        f"re-simulation residual: {_fmt(result['resimulation_residual'])}\n"
    )


def _cmd_deadbeat(args, document, system, err):
    x0 = _parse_floats(args.x0, "--x0")
    target = _parse_floats(args.target, "--target")
    schedule, _ = _schedule(document, args, err)
    t_final = args.final_time if args.final_time is not None else default_final_time(schedule)
    inputs = deadbeat_inputs(system, schedule, x0, target, t_final=t_final)
    check = simulate_impulse(system, SamplingSchedule(schedule.instants + (t_final,)), inputs, x0)
    steps = numerics.expm(system.A, [t_final - t for t in schedule.instants])
    terms = lambda: (steps[0] @ x0, *(inputs[:, None] * (steps @ system.b)))
    result = {
        "inputs": [float(u) for u in inputs],
        "final_time": t_final,
        "resimulation_residual": _relative_residual(check.states[-1], target, terms),
    }
    return result, _deadbeat_text, EXIT_OK


def _reconstruct_text(result: dict) -> str:
    return (
        "x0: " + ", ".join(_fmt(v) for v in result["x0"]) + "\n"
        f"re-simulation residual: {_fmt(result['resimulation_residual'])}\n"
    )


def _cmd_reconstruct(args, document, system, err):
    outputs = _parse_floats(args.outputs, "--outputs")
    schedule, _ = _schedule(document, args, err)
    x0 = reconstruct_state(system, schedule, outputs)
    stack = numerics.expm(system.A, schedule.instants)
    resim = numerics.finite(lambda: system.c @ stack @ x0, "reconstruction re-simulation overflowed")
    result = {
        "x0": [float(v) for v in x0],
        "resimulation_residual": _relative_residual(resim, outputs),
    }
    return result, _reconstruct_text, EXIT_OK


def _uniform_text(result: dict) -> str:
    text = (
        f"uniform interval {_fmt(result['interval'])}: "
        f"{'pass' if result['passes'] else 'fail'} "
        f"(sigma ratio {_fmt(result['sigma_ratio'])})\n"
    )
    if result["first_failing_multiple"] is not None:
        text += (
            f"first failing multiple: {result['first_failing_multiple']} "
            f"(interval {_fmt(result['first_failing_interval'])})\n"
        )
    return text


def _cmd_uniform(args, document, system, err):
    from .scheduler import validate_uniform

    validation = validate_uniform(system, args.interval, args.horizon)
    result = {
        "interval": validation.interval,
        "passes": validation.passes,
        "sigma_ratio": validation.report.sigma_ratio,
        "first_failing_multiple": validation.first_failing_multiple,
        "first_failing_interval": validation.first_failing_interval,
    }
    return result, _uniform_text, EXIT_OK if validation.passes else EXIT_NEGATIVE


# The exit code of each error that ends a run; the first matching row wins.
_EXIT_CODES = (
    (MinimalityError, EXIT_NOT_MINIMAL),
    (SingularScheduleError, EXIT_NEGATIVE),
    (NotApplicableError, EXIT_NEGATIVE),
    (AnalysisError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)


def _exit_code(exc: Exception) -> int:
    return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def main(argv=None, out=None, err=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints usage, errors and --help to the process streams.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        document = load_system_document(args.system)
        tolerances = _tolerances_from_args(document, args)
        system = Realization(document.A, document.b, document.c, tolerances)
        result, render, code = args.run(args, document, system, err)
    except NotApplicableError as exc:
        # A result that does not apply is an answer, not a failure: no prefix.
        err.write(f"{exc}\n")
        return _exit_code(exc)
    except (AnalysisError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return _exit_code(exc)
    if args.format == "json":
        out.write(json.dumps(result, indent=2) + "\n")
    else:
        out.write(render(result))
    return code


def console_entry() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
