"""Command-line interface and the JSON system-definition format.

A system document is a JSON object with the fields

    order       system order n (positive integer)
    A           row-major list of n*n reals
    b, c        lists of n reals
    schedule    optional strictly increasing list of instants
    x0          optional list of n reals
    tolerances  optional record: singularity, cluster, rank, residual

Exit codes: 0 analysis positive (jointly reachable/observable, schedule
valid, ...), 1 usage or parse error, 2 analysis negative or not applicable,
3 non-minimal input system.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

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
from .scheduler import ScheduleSearchSpec, forbidden_instants_order2, suggest_schedule, validate_uniform
from .system_model import PreparedSystem, Realization

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_NOT_MINIMAL = 3


@dataclass(frozen=True)
class SystemDocument:
    """Parsed system-definition file."""

    order: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    schedule: tuple | None = None
    x0: tuple | None = None
    tolerances: Tolerances = Tolerances()

    def realization(self) -> Realization:
        return Realization(self.A, self.b, self.c)


def _field_floats(raw, name: str, expected: int) -> list:
    if not isinstance(raw, (list, tuple)):
        raise SystemDocumentError(f"field {name}: expected a list of numbers")
    if len(raw) != expected:
        raise SystemDocumentError(
            f"field {name}: expected {expected} entries, found {len(raw)}"
        )
    values = []
    for k, item in enumerate(raw):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise SystemDocumentError(f"field {name}: entry {k} is not a number")
        values.append(float(item))
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
    if isinstance(order, bool) or not isinstance(order, int) or order < 1:
        raise SystemDocumentError("field order: must be a positive integer")

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
        values = {}
        for key in ("singularity", "cluster", "rank", "residual"):
            if key in record:
                item = record[key]
                if (
                    isinstance(item, bool)
                    or not isinstance(item, (int, float))
                    or not (np.isfinite(item) and item > 0)
                ):
                    raise SystemDocumentError(
                        f"field tolerances.{key}: must be a positive number"
                    )
                values[key] = float(item)
        unknown = set(record) - {"singularity", "cluster", "rank", "residual"}
        if unknown:
            raise SystemDocumentError(
                f"field tolerances.{sorted(unknown)[0]}: unknown field"
            )
        tolerances = Tolerances(**values)

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
    """Serialize a system document; parse(document_to_json(d)) == d."""
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
    payload["tolerances"] = {
        "singularity": document.tolerances.singularity,
        "cluster": document.tolerances.cluster,
        "rank": document.tolerances.rank,
        "residual": document.tolerances.residual,
    }
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


def build_analysis(document: SystemDocument, schedule: SamplingSchedule, tolerances: Tolerances) -> dict:
    """Full pipeline: minimality, modes, criterion, oracle cross-check.

    Returns a JSON-serializable dict; the text rendering is derived from the
    same dict so the two forms cannot diverge.
    """
    prepared = PreparedSystem(document.realization(), tolerances)
    realization = prepared.realization
    minimality = prepared.minimality
    result = {
        "system": {"order": realization.n},
        "schedule": list(schedule.instants),
        "tolerances": {
            "singularity": tolerances.singularity,
            "cluster": tolerances.cluster,
            "rank": tolerances.rank,
            "residual": tolerances.residual,
        },
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
        for lam, m in prepared.decomposition.modes.roots
    ]

    oracle = cross_validate(prepared, schedule)
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
            "criterion and direct rank test disagree; the schedule sits near "
            "the tolerance boundary"
        )

    if document.x0 is not None and len(schedule) >= realization.n + 1:
        result["oracle"]["controllable_x0"] = controllable_direct(
            realization, schedule, document.x0, tolerances.residual
        )

    if realization.n == 2 and len(schedule) >= 3:
        case = classify_case(prepared, schedule)
        result["case"] = {
            "label": case.label,
            "pair_sigma_ratio": case.pair_sigma_ratio,
            "membership_residual": case.membership_residual,
        }
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
    tol = result["tolerances"]
    lines.append(
        "tolerances: singularity "
        + _fmt(tol["singularity"])
        + ", cluster "
        + _fmt(tol["cluster"])
        + ", rank "
        + _fmt(tol["rank"])
        + ", residual "
        + _fmt(tol["residual"])
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


def _emit(result: dict, fmt: str, stream, render) -> None:
    """Write a subcommand's result dict as JSON or as its ``render`` text."""
    if fmt == "json":
        stream.write(json.dumps(result, indent=2) + "\n")
    else:
        stream.write(render(result))


def _tolerances_from_args(document: SystemDocument, args) -> Tolerances:
    base = document.tolerances
    return Tolerances(
        singularity=args.tol if args.tol is not None else base.singularity,
        cluster=args.cluster_tol if args.cluster_tol is not None else base.cluster,
        rank=args.rank_tol if args.rank_tol is not None else base.rank,
        residual=args.residual_tol if args.residual_tol is not None else base.residual,
    )


def _parse_floats(text: str, label: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise SystemDocumentError(f"{label}: {exc}") from exc


def _resolve_schedule(document: SystemDocument, args, warnings: list) -> SamplingSchedule:
    flag = getattr(args, "schedule", None)
    if flag is not None:
        instants = _parse_floats(flag, "--schedule")
        if document.schedule is not None:
            warnings.append("schedule: command-line value overrides the one in the file")
        return SamplingSchedule(instants)
    if document.schedule is not None:
        return SamplingSchedule(document.schedule)
    raise SystemDocumentError(
        "no schedule: provide --schedule or a schedule field in the file"
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("system", help="system-definition JSON file")
    parser.add_argument("--tol", type=float, default=None, help="singularity tolerance")
    parser.add_argument("--cluster-tol", type=float, default=None, help="eigenvalue clustering tolerance")
    parser.add_argument("--rank-tol", type=float, default=None, help="rank-test tolerance")
    parser.add_argument("--residual-tol", type=float, default=None, help="range-membership tolerance")
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nusamp",
        description="Reachability/observability analysis of SISO systems under nonuniform sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="joint criterion with oracle cross-check")
    _add_common(p)
    p.add_argument("--schedule", help="comma-separated instants (overrides the file)")

    p = sub.add_parser("forbidden", help="forbidden second instants of an order-2 oscillatory system")
    _add_common(p)
    p.add_argument("--t0", type=float, default=0.0, help="first sampling instant")
    p.add_argument("--window", required=True, help="query window as 'lo,hi'")

    p = sub.add_parser("suggest", help="search a window for a well-conditioned schedule")
    _add_common(p)
    p.add_argument("--window", required=True, help="search window as 'lo,hi'")
    p.add_argument("--count", type=int, required=True, help="number of instants")
    p.add_argument("--min-spacing", type=float, required=True, help="minimum spacing")

    p = sub.add_parser("deadbeat", help="n-step input sequence reaching a target state")
    _add_common(p)
    p.add_argument("--schedule", help="comma-separated input instants")
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--target", required=True, help="target state, comma-separated")
    p.add_argument("--final-time", type=float, default=None, help="evaluation instant after the inputs")

    p = sub.add_parser("reconstruct", help="recover the initial state from free-response outputs")
    _add_common(p)
    p.add_argument("--schedule", help="comma-separated output instants")
    p.add_argument("--outputs", required=True, help="measured outputs, comma-separated")

    p = sub.add_parser("uniform", help="validate a uniform sampling interval")
    _add_common(p)
    p.add_argument("--interval", type=float, required=True, help="sampling interval T")
    p.add_argument("--horizon", type=int, default=10, help="largest multiple of T to scan")

    return parser


def _cmd_analyze(args, out, err) -> int:
    document = load_system_document(args.system)
    warnings: list = []
    schedule = _resolve_schedule(document, args, warnings)
    tolerances = _tolerances_from_args(document, args)
    result = build_analysis(document, schedule, tolerances)
    result["warnings"] = warnings + result["warnings"]
    for warning in warnings:
        err.write(f"warning: {warning}\n")
    _emit(result, args.format, out, render_text)
    if not result["minimality"]["minimal"]:
        return EXIT_NOT_MINIMAL
    return EXIT_OK if result["criterion"]["reachable"] else EXIT_NEGATIVE


def _forbidden_text(result: dict) -> str:
    listing = ", ".join(_fmt(t) for t in result["forbidden"]) or "none in window"
    return (
        f"forbidden separation period: {_fmt(result['period'])}\n"
        f"forbidden instants in window: {listing}\n"
        f"empirical guard band: {_fmt(result['guard_band'])}\n"
    )


def _cmd_forbidden(args, out, err) -> int:
    document = load_system_document(args.system)
    tolerances = _tolerances_from_args(document, args)
    window = _parse_floats(args.window, "--window")
    if len(window) != 2:
        raise SystemDocumentError("--window: expected 'lo,hi'")
    system = PreparedSystem(document.realization(), tolerances)
    try:
        forbidden = forbidden_instants_order2(system, args.t0, window)
    except NotApplicableError as exc:
        err.write(f"{exc}\n")
        return EXIT_NEGATIVE
    result = {
        "base_instant": forbidden.base_instant,
        "period": forbidden.period,
        "forbidden": list(forbidden.forbidden),
        "guard_band": forbidden.guard_band,
        "window": list(window),
    }
    _emit(result, args.format, out, _forbidden_text)
    return EXIT_OK


def _suggest_text(result: dict) -> str:
    return (
        "schedule: " + ", ".join(_fmt(t) for t in result["schedule"]) + "\n"
        f"sigma ratio: {_fmt(result['sigma_ratio'])}\n"
    )


def _cmd_suggest(args, out, err) -> int:
    document = load_system_document(args.system)
    tolerances = _tolerances_from_args(document, args)
    window = _parse_floats(args.window, "--window")
    if len(window) != 2:
        raise SystemDocumentError("--window: expected 'lo,hi'")
    spec = ScheduleSearchSpec(window=window, count=args.count, min_spacing=args.min_spacing)
    schedule, objective = suggest_schedule(
        PreparedSystem(document.realization(), tolerances), spec
    )
    result = {"schedule": list(schedule.instants), "sigma_ratio": objective}
    _emit(result, args.format, out, _suggest_text)
    return EXIT_OK


def _deadbeat_text(result: dict) -> str:
    return (
        "inputs: " + ", ".join(_fmt(u) for u in result["inputs"]) + "\n"
        f"final time: {_fmt(result['final_time'])}\n"
        f"re-simulation residual: {_fmt(result['resimulation_residual'])}\n"
    )


def _cmd_deadbeat(args, out, err) -> int:
    document = load_system_document(args.system)
    warnings: list = []
    schedule = _resolve_schedule(document, args, warnings)
    for warning in warnings:
        err.write(f"warning: {warning}\n")
    tolerances = _tolerances_from_args(document, args)
    system = PreparedSystem(document.realization(), tolerances)
    x0 = _parse_floats(args.x0, "--x0")
    target = _parse_floats(args.target, "--target")
    t_final = args.final_time if args.final_time is not None else default_final_time(schedule)
    inputs = deadbeat_inputs(system, schedule, x0, target, t_final=t_final)
    check = simulate_impulse(
        system.realization, SamplingSchedule(schedule.instants + (t_final,)), inputs, x0
    )
    residual = float(
        np.linalg.norm(check.states[-1] - np.asarray(target))
        / max(1.0, float(np.linalg.norm(target)))
    )
    result = {
        "inputs": [float(u) for u in inputs],
        "final_time": t_final,
        "resimulation_residual": residual,
    }
    _emit(result, args.format, out, _deadbeat_text)
    return EXIT_OK


def _reconstruct_text(result: dict) -> str:
    return (
        "x0: " + ", ".join(_fmt(v) for v in result["x0"]) + "\n"
        f"re-simulation residual: {_fmt(result['resimulation_residual'])}\n"
    )


def _cmd_reconstruct(args, out, err) -> int:
    document = load_system_document(args.system)
    warnings: list = []
    schedule = _resolve_schedule(document, args, warnings)
    for warning in warnings:
        err.write(f"warning: {warning}\n")
    tolerances = _tolerances_from_args(document, args)
    system = PreparedSystem(document.realization(), tolerances)
    realization = system.realization
    outputs = _parse_floats(args.outputs, "--outputs")
    x0 = reconstruct_state(system, schedule, outputs)
    resim = realization.c @ numerics.expm(realization.A, schedule.instants) @ x0
    residual = float(
        np.linalg.norm(resim - np.asarray(outputs))
        / max(1.0, float(np.linalg.norm(outputs)))
    )
    result = {
        "x0": [float(v) for v in x0],
        "resimulation_residual": residual,
    }
    _emit(result, args.format, out, _reconstruct_text)
    return EXIT_OK


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


def _cmd_uniform(args, out, err) -> int:
    document = load_system_document(args.system)
    tolerances = _tolerances_from_args(document, args)
    validation = validate_uniform(
        PreparedSystem(document.realization(), tolerances), args.interval, args.horizon
    )
    result = {
        "interval": validation.interval,
        "passes": validation.passes,
        "sigma_ratio": validation.report.sigma_ratio,
        "first_failing_multiple": validation.first_failing_multiple,
        "first_failing_interval": validation.first_failing_interval,
    }
    _emit(result, args.format, out, _uniform_text)
    return EXIT_OK if validation.passes else EXIT_NEGATIVE


_COMMANDS = {
    "analyze": _cmd_analyze,
    "forbidden": _cmd_forbidden,
    "suggest": _cmd_suggest,
    "deadbeat": _cmd_deadbeat,
    "reconstruct": _cmd_reconstruct,
    "uniform": _cmd_uniform,
}


def main(argv=None, out=None, err=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out, err)
    except SystemDocumentError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MinimalityError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_NOT_MINIMAL
    except SingularScheduleError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_NEGATIVE
    except (AnalysisError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def console_entry() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
