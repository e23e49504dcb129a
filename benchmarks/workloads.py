"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one caller, and the next operation starts
only after the previous one returned.  ``prepare(i)`` builds operation ``i``
from the seed (untimed); ``Op.run`` is the timed call into nusamp; ``Op.check``
validates its output (untimed) and returns an ``Outcome``.

Operations ``0 .. fixed_ops-1`` are the same on every run with a given seed.
They always run, they are the traced set, and they alone feed the output
digest and the oracle-agreement share, so those figures do not depend on how
fast the program is.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

import nusamp
from nusamp import Realization, SamplingSchedule, ScheduleSearchSpec, cli
from nusamp.cli import SystemDocument, Tolerances

from generator import modal_matrix, random_schedule, random_system, rng_for

# Sigma ratios inside this band are left out of the agreement share, as the
# acceptance suite does: there the two routes may legitimately differ.
AMBIGUITY_BAND = (1e-11, 1e-7)
# Highest order at which the acceptance suite guarantees criterion/oracle
# agreement and the factorization identity (its sweeps draw orders 1-4).
GUARANTEED_ORDER = 4
FACTORIZATION_RTOL = 1e-8
DESIGN_ERROR_TOL = 1e-6
TOLERANCES = Tolerances()

ROTATION = Realization([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 0.0])
DAMPED_ROTATION = Realization([[-0.3, -1.0], [1.0, -0.3]], [1.0, 0.0], [1.0, 0.0])


class Outcome(NamedTuple):
    failure: str | None
    canonical: object
    agreement: bool | None = None
    # Factorization residual above its bound where no guarantee applies.
    outlier: bool = False


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    # Out-of-process ops trace in the child: its own command and span file.
    traced_run: Callable[[], object] | None = None
    child_spans: Path | None = None


def check_analysis(result: dict, order: int) -> Outcome:
    """Check one ``build_analysis`` dict; its canonical output is the dict.

    Agreement is recomputed from the two routes' verdicts rather than read
    from ``agrees_with_criterion``, and it is None inside the ambiguity band.
    Oracle disagreement and a factorization residual above its bound fail
    the op at orders up to 4, where the acceptance suite guarantees both;
    above that they are counted (agreement share, outliers), not failed.
    """
    crit = result.get("criterion")
    oracle = result.get("oracle")
    if crit is None or oracle is None:
        return Outcome("analysis has no criterion/oracle section", result)
    if crit["reachable"] != crit["observable"]:
        return Outcome("criterion reports reachable != observable", result)
    agrees = (
        oracle["reachable"] == crit["reachable"] and oracle["observable"] == crit["observable"]
    )
    if agrees != oracle["agrees_with_criterion"]:
        return Outcome("oracle agreement flag contradicts the two verdicts", result)
    guaranteed = order <= GUARANTEED_ORDER
    bound = FACTORIZATION_RTOL * max(1.0, crit["full_determinant"]["abs"])
    outlier = not crit["factorization_residual"] <= bound
    if outlier and guaranteed:
        return Outcome(
            f"factorization residual {crit['factorization_residual']:.3e} above {bound:.3e}",
            result,
        )
    if AMBIGUITY_BAND[0] <= crit["sigma_ratio"] <= AMBIGUITY_BAND[1]:
        return Outcome(None, result, None, outlier)
    if not agrees and guaranteed:
        return Outcome(f"oracle disagrees at order {order} outside the ambiguity band", result, False)
    return Outcome(None, result, agrees, outlier)


def _analysis_op(system: Realization, schedule: SamplingSchedule) -> Op:
    document = SystemDocument(order=system.n, A=system.A, b=system.b, c=system.c)

    def check(result):
        return check_analysis(result, system.n)

    return Op(lambda: cli.build_analysis(document, schedule, TOLERANCES), check)


class Workload:
    name = ""
    pass_len = 1  # a timed run stops only at a multiple of this
    # An op of an out-of-process workload runs on while this process samples
    # the host, so the sampling time is not taken from it; such ops are
    # never sampled from inside.
    in_process = True
    fixed_ops = 1
    tail_percentile = 99.0

    def prepare(self, i: int) -> Op:
        raise NotImplementedError

    def warmup(self) -> list:
        """Untimed, unchecked ops on inputs the measured ops never use."""
        return []

    def summary(self, times_ns: list, outcomes: list) -> dict:
        """Workload-specific figures printed alongside the metrics."""
        return {}


class VerdictSweep(Workload):
    """Distinct seeded (system, schedule) pairs, one ``build_analysis`` each."""

    name = "verdict_sweep"
    fixed_ops = 1200
    HIGH_ORDER_SHARE = 0.15

    def __init__(self, seed: int, stream: int = 1):
        self.seed = seed
        self.stream = stream

    def prepare(self, i: int) -> Op:
        rng = rng_for(self.seed, self.stream, i)
        if rng.random() < self.HIGH_ORDER_SHARE:
            n = int(rng.integers(8, 13))
        else:
            n = int(rng.integers(1, 5))
        system = random_system(rng, n)
        count = n + i % 2
        return _analysis_op(system, random_schedule(rng, count))

    def warmup(self) -> list:
        return [VerdictSweep(self.seed, 101).prepare(i) for i in range(20)]


def _checked_refusal(refusal) -> Outcome:
    """A design op on a schedule the criterion calls singular must refuse.

    Random schedules occasionally land below the singularity tolerance; the
    refusal is then the correct output, provided its report says so.
    """
    report = refusal.report
    if report is None or report.reachable or report.sigma_ratio > TOLERANCES.singularity:
        return Outcome(f"refused a schedule the criterion accepts: {refusal}", None)
    return Outcome(None, ["singular", report.sigma_ratio])


def _deadbeat_op(system: Realization, rng: np.random.Generator) -> Op:
    n = system.n
    schedule = random_schedule(rng, n)
    x0 = rng.normal(size=n)
    target = rng.normal(size=n)
    t = schedule.instants
    t_final = t[-1] + ((t[-1] - t[0]) / (n - 1) if n > 1 else 1.0)

    def run():
        try:
            inputs = nusamp.deadbeat_inputs(system, schedule, x0, target, t_final=t_final)
        except nusamp.SingularScheduleError as refusal:
            return refusal
        replay = nusamp.simulate_impulse(system, SamplingSchedule(t + (t_final,)), inputs, x0)
        return inputs, replay.states[-1]

    def check(out):
        if isinstance(out, nusamp.SingularScheduleError):
            return _checked_refusal(out)
        inputs, replayed = out
        # The final state the inputs really produce, from scipy's expm rather
        # than the exponential nusamp designed and replayed them with.
        terms = [scipy.linalg.expm(system.A * (t_final - t[0])) @ x0] + [
            u * (scipy.linalg.expm(system.A * (t_final - ti)) @ system.b)
            for u, ti in zip(inputs, t)
        ]
        final = np.sum(terms, axis=0)
        # Backward-error scale: the size of the terms that sum to the final
        # state, so an ill-conditioned but correctly solved design passes.
        scale = max(1.0, float(np.linalg.norm(target)), sum(np.linalg.norm(v) for v in terms))
        error = float(np.linalg.norm(final - target)) / scale
        replay_error = float(np.linalg.norm(replayed - final)) / scale
        failure = None
        if error > DESIGN_ERROR_TOL:
            failure = f"deadbeat final-state error {error:.3e}"
        elif replay_error > DESIGN_ERROR_TOL:
            failure = f"deadbeat replay error {replay_error:.3e}"
        return Outcome(failure, [float(u) for u in inputs])

    return Op(run, check)


def _reconstruct_op(system: Realization, rng: np.random.Generator) -> Op:
    n = system.n
    schedule = random_schedule(rng, n)
    x0 = rng.normal(size=n)
    outputs = [float(system.c @ scipy.linalg.expm(system.A * ti) @ x0) for ti in schedule.instants]

    def run():
        try:
            return nusamp.reconstruct_state(system, schedule, outputs)
        except nusamp.SingularScheduleError as refusal:
            return refusal

    def check(estimate):
        if isinstance(estimate, nusamp.SingularScheduleError):
            return _checked_refusal(estimate)
        error = float(np.linalg.norm(estimate - x0)) / max(1.0, float(np.linalg.norm(x0)))
        failure = None if error <= DESIGN_ERROR_TOL else f"reconstruction error {error:.3e}"
        return Outcome(failure, [float(v) for v in estimate])

    return Op(run, check)


def _zoh_op(system: Realization, rng: np.random.Generator) -> Op:
    n = system.n
    schedule = random_schedule(rng, n + 1)
    inputs = rng.normal(size=n)

    def check(trajectory):
        final = trajectory.states[-1]
        # Hold-input steps from scipy's expm of the augmented [[A, b], [0, 0]].
        augmented = np.zeros((n + 1, n + 1))
        augmented[:n, :n] = system.A
        augmented[:n, n] = system.b
        expected = np.zeros(n)
        for u, dt in zip(inputs, np.diff(schedule.instants)):
            step = scipy.linalg.expm(augmented * dt)
            expected = step[:n, :n] @ expected + step[:n, n] * u
        error = float(np.linalg.norm(final - expected)) / max(1.0, float(np.linalg.norm(expected)))
        failure = None if error <= DESIGN_ERROR_TOL else f"hold-input simulation error {error:.3e}"
        return Outcome(failure, [float(v) for v in final])

    return Op(lambda: nusamp.simulate_zoh(system, schedule, inputs), check)


def _uniform_op(system: Realization, rng: np.random.Generator) -> Op:
    interval = float(rng.uniform(0.2, 1.5))

    def uniform(multiple):
        return SamplingSchedule(tuple(k * (multiple * interval) for k in range(system.n)))

    def check(validation):
        # Rescan the multiples of the interval with fresh modes, so a result
        # carried over from another interval or system shows.
        modes = nusamp.modal_decompose(system).modes
        ratios = [nusamp.schedule_conditioning(modes, uniform(j)) for j in range(1, 11)]
        failing = [j for j, ratio in enumerate(ratios, 1) if ratio <= TOLERANCES.singularity]
        first_failing = failing[0] if failing else None
        report = validation.report
        failure = None
        if not math.isclose(report.sigma_ratio, ratios[0], rel_tol=1e-9):
            failure = f"uniform sigma ratio {report.sigma_ratio!r}, recomputed {ratios[0]!r}"
        elif validation.passes != (ratios[0] > TOLERANCES.singularity):
            failure = f"uniform verdict {validation.passes} at sigma ratio {ratios[0]:.3e}"
        elif validation.first_failing_multiple != first_failing:
            failure = f"first failing multiple {validation.first_failing_multiple}, not {first_failing}"
        canonical = [validation.passes, validation.first_failing_multiple, report.sigma_ratio]
        return Outcome(failure, canonical)

    return Op(lambda: nusamp.validate_uniform(system, interval), check)


def _forbidden_op(system: Realization, rng: np.random.Generator) -> Op:
    t0 = float(rng.uniform(0.0, 1.0))
    period = math.pi / abs(np.linalg.eigvals(system.A)[0].imag)

    def check(forbidden):
        points = np.asarray(forbidden.forbidden)
        failure = None
        if not math.isclose(forbidden.period, period, rel_tol=1e-12):
            failure = f"forbidden period {forbidden.period!r}, expected {period!r}"
        elif points.size < 3 or not np.allclose(np.diff(points), period, rtol=1e-12, atol=0.0):
            failure = "forbidden instants are not spaced by the period"
        elif not 0.0 < forbidden.guard_band < period / 4:
            failure = f"guard band {forbidden.guard_band!r} outside (0, period/4)"
        canonical = [forbidden.period, list(forbidden.forbidden), forbidden.guard_band]
        return Outcome(failure, canonical)

    return Op(lambda: nusamp.forbidden_instants_order2(system, t0, (t0, t0 + 10.0)), check)


class DesignLoop(Workload):
    """A few fixed systems, each driven through every design operation."""

    name = "design_loop"
    DRAWN_ORDERS = (3, 4, 6, 8)
    SYSTEMS_SEED = 2024
    KINDS = {
        "deadbeat": _deadbeat_op,
        "reconstruct": _reconstruct_op,
        "zoh": _zoh_op,
        "uniform": _uniform_op,
    }

    def __init__(self, seed: int, stream: int = 2):
        self.seed = seed
        self.stream = stream
        # The systems are pinned, drawn once from a fixed seed; --seed varies
        # the schedules, states and intervals each op gets.  Seeded systems
        # would make the cost of an op differ from seed to seed.
        systems = [ROTATION, DAMPED_ROTATION] + [
            random_system(rng_for(self.SYSTEMS_SEED, stream, k), n)
            for k, n in enumerate(self.DRAWN_ORDERS)
        ]
        self.pairs = []
        for system in systems:
            kinds = ["analyze", *self.KINDS] + (["forbidden"] if system.n == 2 else [])
            self.pairs.extend((system, kind) for kind in kinds)
        self.fixed_ops = len(self.pairs) * 40

    def prepare(self, i: int) -> Op:
        system, kind = self.pairs[i % len(self.pairs)]
        rng = rng_for(self.seed, self.stream + 1000, i)
        if kind == "analyze":
            count = system.n + (i // len(self.pairs)) % 2
            return _analysis_op(system, random_schedule(rng, count))
        if kind == "forbidden":
            return _forbidden_op(system, rng)
        return self.KINDS[kind](system, rng)

    def warmup(self) -> list:
        other = DesignLoop(self.seed, self.stream + 100)
        return [other.prepare(i) for i in range(len(other.pairs))]


SEARCH_ORDER3 = Realization(
    modal_matrix([(-0.5, 0.0, 1), (-0.1, 0.8, 1)]), [1.0, 0.7, -0.4], [0.9, 1.0, 0.5]
)
SEARCH_ORDER4 = Realization(
    modal_matrix([(-0.2, 1.1, 1), (-0.6, 0.5, 1)]), [1.0, 0.4, -0.8, 0.6], [0.7, -1.0, 0.5, 0.9]
)

# (label, system, window end, count, min_spacing, pinned objective); every
# window starts at 0.  The pinned objective is what the search achieved when
# the benchmark was defined; a faster search must match or beat it on every
# spec.  The first spec is the order-4 (0, 4) window at spacing 0.15: ~147k
# objective evaluations, the schedule-search hot loop at full size.  The 44
# small ones (10-350 ms each) give the latency percentiles many distinct
# samples, so they do not hinge on one or two noisy timings.
SEARCH_SPECS = (
    ("o4_w4_c4_s0.15", SEARCH_ORDER4, 4.0, 4, 0.15, 0.09558228680206358),
    ("o2r_w2_c2_s0.02", ROTATION, 2.0, 2, 0.02, 0.9999849233187458),
    ("o2d_w2_c3_s0.02", DAMPED_ROTATION, 2.0, 3, 0.02, 0.6360064067364165),
    ("o2r_w2_c2_s0.05", ROTATION, 2.0, 2, 0.05, 0.9999068025481171),
    ("o2d_w2_c3_s0.05", DAMPED_ROTATION, 2.0, 3, 0.05, 0.6360064062320779),
    ("o2r_w3_c2_s0.02", ROTATION, 3.0, 2, 0.02, 0.9999849233187458),
    ("o2d_w3_c3_s0.02", DAMPED_ROTATION, 3.0, 3, 0.02, 0.6360064067364165),
    ("o2r_w3_c2_s0.05", ROTATION, 3.0, 2, 0.05, 0.9999068025481171),
    ("o2d_w3_c3_s0.05", DAMPED_ROTATION, 3.0, 3, 0.05, 0.6360064062320779),
    ("o2r_w4_c2_s0.02", ROTATION, 4.0, 2, 0.02, 0.9999849233187458),
    ("o2d_w4_c3_s0.02", DAMPED_ROTATION, 4.0, 3, 0.02, 0.6360064067364165),
    ("o2r_w4_c2_s0.05", ROTATION, 4.0, 2, 0.05, 0.9999068025481171),
    ("o2d_w4_c3_s0.05", DAMPED_ROTATION, 4.0, 3, 0.05, 0.6360064062320779),
    ("o2r_w6_c2_s0.02", ROTATION, 6.0, 2, 0.02, 0.9999849233187458),
    ("o2d_w6_c3_s0.02", DAMPED_ROTATION, 6.0, 3, 0.02, 0.6360064067364165),
    ("o2r_w6_c2_s0.05", ROTATION, 6.0, 2, 0.05, 0.9999157106677892),
    ("o2d_w6_c3_s0.05", DAMPED_ROTATION, 6.0, 3, 0.05, 0.6360064062320779),
    ("o3_w1.5_c3_s0.15", SEARCH_ORDER3, 1.5, 3, 0.15, 0.05134853981995387),
    ("o3_w2.5_c4_s0.25", SEARCH_ORDER3, 2.5, 4, 0.25, 0.12239500799446798),
    ("o3_w1.5_c3_s0.25", SEARCH_ORDER3, 1.5, 3, 0.25, 0.051348544647100224),
    ("o3_w2.5_c4_s0.35", SEARCH_ORDER3, 2.5, 4, 0.35, 0.11095721999279749),
    ("o3_w2_c3_s0.15", SEARCH_ORDER3, 2.0, 3, 0.15, 0.095030911543932),
    ("o3_w3_c4_s0.25", SEARCH_ORDER3, 3.0, 4, 0.25, 0.18562258467465334),
    ("o3_w2_c3_s0.25", SEARCH_ORDER3, 2.0, 3, 0.25, 0.09505087280030745),
    ("o3_w3_c4_s0.35", SEARCH_ORDER3, 3.0, 4, 0.35, 0.17227264507747223),
    ("o3_w3_c3_s0.15", SEARCH_ORDER3, 3.0, 3, 0.15, 0.21953312413562007),
    ("o3_w4_c4_s0.25", SEARCH_ORDER3, 4.0, 4, 0.25, 0.31717566382322293),
    ("o3_w3_c3_s0.25", SEARCH_ORDER3, 3.0, 3, 0.25, 0.21953311115290686),
    ("o3_w4_c4_s0.35", SEARCH_ORDER3, 4.0, 4, 0.35, 0.3054118044117325),
    ("o3_w4_c3_s0.15", SEARCH_ORDER3, 4.0, 3, 0.15, 0.3417230585942578),
    ("o3_w5_c4_s0.25", SEARCH_ORDER3, 5.0, 4, 0.25, 0.37503097633837973),
    ("o3_w4_c3_s0.25", SEARCH_ORDER3, 4.0, 3, 0.25, 0.3417554653142633),
    ("o3_w5_c4_s0.35", SEARCH_ORDER3, 5.0, 4, 0.35, 0.3722933579818426),
    ("o4_w3_c4_s0.5", SEARCH_ORDER4, 3.0, 4, 0.5, 0.04602642530194772),
    ("o4_w4_c5_s0.5", SEARCH_ORDER4, 4.0, 5, 0.5, 0.06892072304626955),
    ("o4_w3_c4_s0.7", SEARCH_ORDER4, 3.0, 4, 0.7, 0.045869929115954944),
    ("o4_w4_c5_s0.7", SEARCH_ORDER4, 4.0, 5, 0.7, 0.05901673561272221),
    ("o4_w4_c4_s0.5", SEARCH_ORDER4, 4.0, 4, 0.5, 0.09560361045820605),
    ("o4_w5_c5_s0.5", SEARCH_ORDER4, 5.0, 5, 0.5, 0.11722694226990571),
    ("o4_w4_c4_s0.7", SEARCH_ORDER4, 4.0, 4, 0.7, 0.09544773720272044),
    ("o4_w5_c5_s0.7", SEARCH_ORDER4, 5.0, 5, 0.7, 0.11028321309963042),
    ("o4_w5_c4_s0.5", SEARCH_ORDER4, 5.0, 4, 0.5, 0.13097259274464926),
    ("o4_w6_c5_s0.5", SEARCH_ORDER4, 6.0, 5, 0.5, 0.14200606465084586),
    ("o4_w5_c4_s0.7", SEARCH_ORDER4, 5.0, 4, 0.7, 0.13089319568648117),
    ("o4_w6_c5_s0.7", SEARCH_ORDER4, 6.0, 5, 0.7, 0.1418523442713177),
)


class ScheduleSearch(Workload):
    """The pinned ``suggest_schedule`` specs; one op is one spec."""

    name = "schedule_search"
    tail_percentile = 75.0

    def __init__(self, seed: int):
        self.seed = seed
        self.pass_len = len(SEARCH_SPECS)
        # Two passes give the p75 tail its ten samples beyond.
        self.fixed_ops = 2 * self.pass_len
        self.first_result = {}

    def spec_at(self, i: int):
        """Spec of op i: every pass runs all specs, in a seeded order."""
        order = rng_for(self.seed, 4, i // self.pass_len).permutation(self.pass_len)
        return SEARCH_SPECS[order[i % self.pass_len]]

    def prepare(self, i: int) -> Op:
        label, system, window_end, count, spacing, reference = self.spec_at(i)
        spec = ScheduleSearchSpec(window=(0.0, window_end), count=count, min_spacing=spacing)

        def check(out):
            schedule, objective = out
            canonical = [label, list(schedule.instants), objective]
            first = self.first_result.setdefault(label, canonical)
            # The objective is judged as the criterion recomputes it on the
            # returned schedule, never as the search reports it.
            report = nusamp.cross_validate(system, schedule)
            ratio = report.criterion_sigma_ratio
            instants = np.asarray(schedule.instants)
            slack = 1e-12 * max(1.0, window_end)
            failure = None
            if canonical != first:
                failure = f"{label}: result differs from the first run of the same spec"
            elif len(instants) != count:
                failure = f"{label}: {len(instants)} instants, expected {count}"
            elif instants[0] < -slack or instants[-1] > window_end + slack:
                failure = f"{label}: instants leave the window (0, {window_end})"
            elif np.any(np.diff(instants) < spacing - slack):
                failure = f"{label}: instants closer than the spacing {spacing}"
            elif not math.isclose(objective, ratio, rel_tol=1e-9):
                failure = f"{label}: reported objective {objective!r}, criterion gives {ratio!r}"
            elif not ratio > TOLERANCES.singularity:
                failure = f"{label}: objective {ratio:.3e} at or below the tolerance"
            elif ratio < reference * (1.0 - 1e-9):
                failure = f"{label}: objective {ratio!r} worse than the pinned {reference!r}"
            elif not report.agrees_with_criterion:
                failure = f"{label}: oracle rejects the suggested schedule"
            return Outcome(failure, canonical, report.agrees_with_criterion)

        return Op(lambda: nusamp.suggest_schedule(system, spec), check)

    def warmup(self) -> list:
        spec = ScheduleSearchSpec(window=(0.0, 1.0), count=2, min_spacing=0.1)
        return [Op(lambda: nusamp.suggest_schedule(ROTATION, spec), lambda out: Outcome(None, None))]

    def summary(self, times_ns: list, outcomes: list) -> dict:
        whole = len(times_ns) // self.pass_len
        pass_s = [
            sum(times_ns[k * self.pass_len : (k + 1) * self.pass_len]) / 1e9 for k in range(whole)
        ]
        objectives = [o.canonical[2] for o in outcomes if o.canonical is not None]
        return {
            "search_s": (float(np.median(pass_s)) if pass_s else float("nan"), "s"),
            "search_passes": (whole, "count"),
            "search_objective_min": (min(objectives) if objectives else float("nan"), "ratio"),
        }


CHILD_CODE = "import sys; from nusamp.cli import main; sys.exit(main(sys.argv[1:]))"


class CliCold(Workload):
    """One fresh interpreter per ``nusamp analyze --format json`` call."""

    name = "cli_cold"
    in_process = False
    ORDERS = (2, 8)
    pass_len = 2
    fixed_ops = 40
    tail_percentile = 75.0

    def __init__(self, seed: int, workdir: Path, env: dict, trace_child: Path):
        self.env = env
        self.trace_child = trace_child
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.documents = []
        for k, n in enumerate(self.ORDERS):
            rng = rng_for(seed, 5, k)
            system = random_system(rng, n)
            count = n + 1
            schedule = random_schedule(rng, count)
            document = SystemDocument(
                order=n, A=system.A, b=system.b, c=system.c, schedule=schedule.instants
            )
            path = workdir / f"cli_cold-{seed}-order{n}.json"
            path.write_text(cli.document_to_json(document), encoding="utf-8")
            # The child must print exactly what the in-process pipeline
            # makes of the same file.
            parsed = cli.parse_system_document(path.read_text(encoding="utf-8"))
            analysis = cli.build_analysis(parsed, SamplingSchedule(parsed.schedule), parsed.tolerances)
            expected = json.loads(json.dumps(analysis))
            code = 0 if expected["criterion"]["reachable"] else 2
            self.documents.append((path, n, expected, code))

    def prepare(self, i: int) -> Op:
        path, order, expected, expected_code = self.documents[i % len(self.documents)]
        argv = ["analyze", str(path), "--format", "json"]
        spans = self.workdir / f"child-spans-{i}.json"

        def launch(*command):
            return subprocess.run(command, capture_output=True, env=self.env, timeout=120)

        def check(proc):
            if proc.returncode != expected_code:
                return Outcome(f"exit code {proc.returncode}, expected {expected_code}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}", None)
            try:
                result = json.loads(proc.stdout)
            except json.JSONDecodeError:
                return Outcome("analyze output is not JSON", None)
            if result != expected:
                return Outcome("analyze output differs from the in-process analysis", None)
            return check_analysis(result, order)._replace(canonical=proc.stdout.decode())

        return Op(
            run=lambda: launch(sys.executable, "-c", CHILD_CODE, *argv),
            check=check,
            traced_run=lambda: launch(sys.executable, str(self.trace_child), str(spans), *argv),
            child_spans=spans,
        )

    def warmup(self) -> list:
        return [self.prepare(0)]


def build(name: str, seed: int, workdir: Path, env: dict, trace_child: Path) -> Workload:
    if name == "verdict_sweep":
        return VerdictSweep(seed)
    if name == "design_loop":
        return DesignLoop(seed)
    if name == "schedule_search":
        return ScheduleSearch(seed)
    if name == "cli_cold":
        return CliCold(seed, workdir, env, trace_child)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verdict_sweep", "design_loop", "schedule_search", "cli_cold")
