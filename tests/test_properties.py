"""Properties of the paper's guarantees over seeded random systems.

The float-range rule: every entry point either returns finite numbers or
raises one of the package's range, schedule or minimality errors (or numpy's
``LinAlgError`` for a LAPACK failure), and never lets a RuntimeWarning out.
The sweep draws minimal systems at orders 1-12, scales b, c or x0 by
1e+-300, and stretches schedules until their exponentials leave the float
range.

Scaling b by a power of two is exact in floating point.  It leaves the
verdict and reconstruction's solve unchanged and scales deadbeat weights by
the inverse power, so both must follow such a scaling bit for bit.

Membership is relative to the vector tested at every magnitude, so a
power-of-two scaling of that vector, or of b and x0, changes no membership
decision and scales the range test's residual exactly.

Each tolerance controls exactly the tests it names: scaled by 1e-3 or 1e3,
``singularity`` moves only the verdicts, the membership decisions (whose
spans it cuts and whose residuals it judges) and the warnings, and ``rank``
only the minimality flags (and, when ``minimal`` flips, the sections a
non-minimal ``build_analysis`` document drops).  Besides generic systems
the sweep draws oscillators near a singular schedule or near membership
and systems near the minimality threshold, so every decision flips.

The joint verdict depends only on instant differences, and so does every
field of an ``analyze`` report without x0: shifting a schedule on a 2**-10
grid by a multiple of 2**-10 below 2**10 keeps every instant and every
difference exact, and the report other than its ``schedule`` bit for bit.

The dual realization (A^T, c^T, b^T) swaps the two minimality flags and
the oracle's reachable and observable, and keeps the criterion's verdict,
which reads only the modes.  Only a non-minimal draw tells a swap from no
swap, so every fifth draw has a mode that b or c misses exactly.

Within one report, reachable implies controllable and ``controllable_x0``,
and an order-2 report on three instants is case a exactly when it is
reachable.  The sweep draws oscillators sampled half turns apart, where
reachable is false and controllable can hold.  There the x0-free
``controllable`` does not imply ``controllable_x0``: the link is pinned as
a strict expected failure until the report's two controllability answers
are reconciled.

The mode weights y0 come from one solve with the modal basis B, backward
stable however ill-conditioned B is: on non-normal realizations, some with
nearly parallel basis columns, y0 solves ``B y0 = b`` to a few rounding
errors, and the factorization identity holds on every schedule whose sigma
ratio clears the ambiguity band.

The factorization identity ``full_det = N1 * N2 * det(mode matrix)`` holds
at orders 5-12 too, where the acceptance test does not draw, on defective
clusters whose J is not diagonal, so ``expm`` takes its Pade route there.
And the impulse response ``c exp(At) b`` is the y0-weighted sum of the modes,
``(c B) exp(Jt) y0``, to within a thousand rounding errors scaled by the
conditioning of B.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import warnings
from collections import Counter

import numpy as np
import pytest

from nusamp import (
    MinimalityError,
    NumericRangeError,
    Realization,
    SamplingSchedule,
    SingularScheduleError,
    classify_case,
    cli,
    controllable_direct,
    cross_validate,
    deadbeat_inputs,
    expm,
    full_determinant,
    in_range,
    joint_verdict,
    numeric_rank,
    reconstruct_state,
    shifted_intervals,
    simulate_impulse,
    simulate_zoh,
)
from conftest import _nonzero_entries, _real_modal_block, block_diagonal, random_eigen_structure
from conftest import AMBIGUITY_BAND, random_minimal_system, random_orthogonal, random_schedule

ALLOWED = (NumericRangeError, SingularScheduleError, MinimalityError, np.linalg.LinAlgError)
DRAWS = 240


def _numbers(value):
    """Every number inside a result: report fields, dict values, sequence
    items and array entries; booleans, strings and None hold none."""
    if isinstance(value, (bool, str)) or value is None:
        return
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, np.ndarray):
        yield from value.reshape(-1).tolist()
    else:
        assert isinstance(value, numbers.Number), value
        yield value


def _draw(rng: np.random.Generator, k: int):
    """A system, x0 and an n+1-instant schedule, one of b, c and x0 scaled
    by 1e+-300 and the schedule stretched by up to 1e3."""
    n = 1 + k % 12
    system = random_minimal_system(rng, n, allow_defective=k % 3 == 0)
    b, c, x0 = system.b, system.c, rng.uniform(-1.0, 1.0, n)
    scale = 10.0 ** rng.choice([-300, 300])
    which = k % 4
    if which == 0:
        b = b * scale
    elif which == 1:
        c = c * scale
    elif which == 2:
        x0 = x0 * scale
    stretch = 10.0 ** rng.uniform(0.0, 3.0)
    instants = np.array(random_schedule(rng, n + 1).instants) * stretch
    return Realization(system.A, b, c), x0, SamplingSchedule(tuple(instants.tolist()))


def _calls(system: Realization, x0, schedule: SamplingSchedule, rng: np.random.Generator):
    n = system.n
    first = SamplingSchedule(schedule.instants[:n])
    inputs = rng.uniform(-1.0, 1.0, n)
    document = cli.SystemDocument(order=n, A=system.A, b=system.b, c=system.c, x0=tuple(x0))
    return {
        "joint_verdict": lambda: joint_verdict(system, schedule),
        "full_determinant": lambda: full_determinant(
            system.decomposition, shifted_intervals(first, n).alpha
        ),
        "cross_validate": lambda: cross_validate(system, schedule),
        "controllable_direct": lambda: controllable_direct(system, schedule, x0),
        "deadbeat_inputs": lambda: deadbeat_inputs(system, first, x0, np.zeros(n)),
        "reconstruct_state": lambda: reconstruct_state(system, first, rng.uniform(-1.0, 1.0, n)),
        "simulate_impulse": lambda: simulate_impulse(system, schedule, inputs, x0),
        "simulate_zoh": lambda: simulate_zoh(system, schedule, inputs, x0),
        "build_analysis": lambda: cli.build_analysis(document, schedule, system.tolerances),
    }


def test_entry_points_return_finite_numbers_or_raise_a_range_error():
    rng = np.random.default_rng(28)
    outcomes = {"finite": 0, "raised": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(DRAWS):
            system, x0, schedule = _draw(rng, k)
            for name, call in _calls(system, x0, schedule, rng).items():
                try:
                    result = call()
                except ALLOWED:
                    outcomes["raised"] += 1
                    continue
                bad = [v for v in _numbers(result) if not np.isfinite(v)]
                assert not bad, (k, name, bad[:3])
                outcomes["finite"] += 1
    # The sweep reaches both sides of the range.
    assert min(outcomes.values()) > DRAWS, outcomes


SCALE_DRAWS = 100
POWERS = (1, -1, 64, -64, 400, -400)


def test_deadbeat_and_reconstruction_follow_a_power_of_two_scaling_of_b():
    rng = np.random.default_rng(29)
    compared = 0
    for k in range(SCALE_DRAWS):
        n = 1 + k % 8
        system = random_minimal_system(rng, n, allow_defective=k % 3 == 0)
        schedule = random_schedule(rng, n)
        x0, target, outputs = rng.uniform(-1.0, 1.0, (3, n))
        try:
            inputs = deadbeat_inputs(system, schedule, x0, target)
            state = reconstruct_state(system, schedule, outputs)
        except SingularScheduleError:
            continue
        for power in POWERS:
            scaled = Realization(system.A, np.ldexp(system.b, power), system.c)
            scaled_inputs = deadbeat_inputs(scaled, schedule, x0, target)
            assert scaled_inputs.tobytes() == np.ldexp(inputs, -power).tobytes(), (k, power)
            assert reconstruct_state(scaled, schedule, outputs).tobytes() == state.tobytes(), (k, power)
            compared += 2
    assert compared >= 0.9 * 2 * len(POWERS) * SCALE_DRAWS, compared


MEMBERSHIP_POWERS = (1, -1, 40, -40, 400, -400)


def _deficient_span(rng: np.random.Generator, n: int, complex_entries: bool):
    """An n-row matrix of rank below n, real or complex, and a vector in its
    span plus a random vector times 1e-15 to 1."""
    def draw(*shape):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_entries else 0.0)

    rank, cols = int(rng.integers(0, n)), int(rng.integers(1, n + 1))
    m = draw(n, rank) @ draw(rank, cols)
    offset = 10.0 ** rng.choice([-15, -12, -9, -6, 0])
    return m, m @ draw(cols) + offset * draw(n)


def _singular_oscillator(rng: np.random.Generator, turns: int):
    """A damped oscillator in a random basis, sampled at t1 - t0 = pi / omega,
    where its schedule is singular, and at t2: a whole number of half turns
    after t1 if ``turns`` > 0, else at random."""
    sigma, omega = rng.uniform(-1.0, 0.2), rng.uniform(0.5, 3.0)
    basis = rng.normal(size=(2, 2))
    A = basis @ np.array([[sigma, -omega], [omega, sigma]]) @ np.linalg.inv(basis)
    t0 = rng.uniform(-1.0, 1.0)
    t1 = t0 + np.pi / omega
    t2 = t1 + (turns * np.pi / omega if turns else rng.uniform(0.1, 4.0))
    return A, SamplingSchedule((t0, t1, t2))


def _memberships(system: Realization, schedule: SamplingSchedule, x0):
    report = joint_verdict(system, schedule)
    assert not report.reachable
    return (
        report.controllable,
        report.constructible,
        classify_case(report),
        controllable_direct(system, schedule, x0),
    )


def test_membership_ignores_a_power_of_two_scaling():
    rng = np.random.default_rng(30)
    decisions = set()
    for k in range(240):
        m, v = _deficient_span(rng, 1 + k % 12, complex_entries=k % 2 == 1)
        base = in_range(m, v)
        decisions.add(base.contained)
        for power in MEMBERSHIP_POWERS:
            check = in_range(m, v * 2.0**power)
            assert check.contained == base.contained, (k, power)
            assert check.residual == base.residual * 2.0**power, (k, power)
    labels = set()
    for k in range(60):
        A, schedule = _singular_oscillator(rng, turns=k % 3)
        b, c, x0 = rng.normal(size=(3, 2))
        base = _memberships(Realization(A, b, c), schedule, x0)
        labels.add(base[2])
        for power in MEMBERSHIP_POWERS:
            scaled = Realization(A, b * 2.0**power, c)
            assert _memberships(scaled, schedule, x0 * 2.0**power) == base, (k, power)
    # Both outcomes of the range test, and cases b and c, are reached.
    assert decisions == {True, False} and labels == {"b", "c"}, (decisions, labels)


def _leaves(value, path=()):
    """(path, value) for every entry of a nested dict; lists are leaves."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    else:
        yield path, value


def _changed(base: dict, other: dict) -> set:
    """The paths whose entry differs between two documents, or is in one only."""
    ours, theirs = dict(_leaves(base)), dict(_leaves(other))
    missing = object()
    return {
        path for path in ours.keys() | theirs.keys()
        if ours.get(path, missing) != theirs.get(path, missing)
    }


# The fields each tolerance may move, besides its own ``tolerances`` entry; a
# path is covered when one of its prefixes is listed.
MEMBERSHIP = {
    ("criterion", "controllable"), ("criterion", "constructible"), ("oracle", "controllable_x0"),
    ("case", "label"),
}
ROUTES = {
    "singularity": MEMBERSHIP | {
        ("criterion", "reachable"), ("criterion", "observable"), ("criterion", "membership_residual"),
        ("oracle", "reachable"), ("oracle", "observable"), ("oracle", "agrees_with_criterion"),
        ("warnings",),
    },
    "rank": {("minimality", name) for name in ("controllable_ct", "observable_ct", "minimal")},
}
# What a non-minimal document drops, or a document that turns minimal gains.
NON_MINIMAL_DROPS = {("modes",), ("criterion",), ("oracle",), ("case",), ("warnings",)}
ROUTING_DRAWS = 96


def _oscillator(rng: np.random.Generator, first: float, last: float):
    """A damped oscillator in a random basis, on t0, t1 = t0 + (1 + first) pi / omega
    and t2 = t1 + last pi / omega: singular at first = 0, and then with t2 in the span
    of the first two instants' mode-space vectors when last is a whole number."""
    sigma, omega = rng.uniform(-1.0, 0.2), rng.uniform(0.5, 3.0)
    basis = rng.normal(size=(2, 2))
    A = basis @ np.array([[sigma, -omega], [omega, sigma]]) @ np.linalg.inv(basis)
    t0 = rng.uniform(-1.0, 1.0)
    t1 = t0 + (1.0 + first) * np.pi / omega
    b, c = rng.normal(size=(2, 2))
    return Realization(A, b, c), SamplingSchedule((t0, t1, t1 + last * np.pi / omega))


def _nearly_non_minimal(rng: np.random.Generator, n: int, weak: float | None = None):
    """An order-n system with one real mode, beyond the others, excited (even n)
    or seen (odd n) with weight ``weak``, drawn in 1e-11 to 1e-7 when not
    given, in a random orthogonal basis."""
    inner = random_minimal_system(rng, n - 1)
    lam = float(np.max(np.linalg.eigvals(inner.A).real)) + rng.uniform(0.3, 1.0)
    A = np.zeros((n, n))
    A[:-1, :-1], A[-1, -1] = inner.A, lam
    if weak is None:
        weak = 10.0 ** rng.uniform(-11.0, -7.0)
    b = np.append(inner.b, weak if n % 2 == 0 else 1.0)
    c = np.append(inner.c, 1.0 if n % 2 == 0 else weak)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Realization(q @ A @ q.T, q @ b, c @ q.T), random_schedule(rng, n + 1)


def _routing_draw(rng: np.random.Generator, k: int):
    """A system and an n+1-instant schedule: a generic one at orders 1-12, an
    oscillator near a singular schedule or near membership, or a system near
    the minimality threshold."""
    kind, n = k % 4, 1 + k // 4 % 12
    if kind == 0:
        return random_minimal_system(rng, n, allow_defective=k % 3 == 0), random_schedule(rng, n + 1)
    if kind == 1:
        first = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0)
        return _oscillator(rng, first, rng.uniform(0.1, 2.0))
    if kind == 2:
        return _oscillator(rng, 0.0, int(rng.integers(1, 3)) + 10.0 ** rng.uniform(-12.0, -6.0))
    return _nearly_non_minimal(rng, max(n, 2))


def test_each_tolerance_changes_only_the_fields_it_names():
    rng = np.random.default_rng(31)
    moved = {name: set() for name in ROUTES}
    membership_alone = False  # a membership flip with no verdict flip
    for k in range(ROUTING_DRAWS):
        system, schedule = _routing_draw(rng, k)
        x0 = tuple(rng.uniform(-1.0, 1.0, system.n))
        document = cli.SystemDocument(order=system.n, A=system.A, b=system.b, c=system.c, x0=x0)
        default = cli.Tolerances()
        base = cli.build_analysis(document, schedule, default)
        for name, routed in ROUTES.items():
            for factor in (1e-3, 1e3):
                tolerances = dataclasses.replace(default, **{name: getattr(default, name) * factor})
                scaled = cli.build_analysis(document, schedule, tolerances)
                changed = _changed(base, scaled) - {("tolerances", name)}
                allowed = routed
                if base["minimality"]["minimal"] != scaled["minimality"]["minimal"]:
                    allowed = routed | NON_MINIMAL_DROPS
                stray = {
                    path for path in changed
                    if not any(path[:i] in allowed for i in range(1, len(path) + 1))
                }
                assert not stray, (k, name, factor, sorted(stray))
                moved[name] |= changed
                membership_alone |= (
                    ("criterion", "controllable") in changed and ("criterion", "reachable") not in changed
                )
    # Each tolerance flips the decision it names somewhere in the sweep, and
    # singularity flips a membership on its own.
    assert membership_alone, moved
    assert ("criterion", "reachable") in moved["singularity"], moved
    assert ("minimality", "minimal") in moved["rank"], moved


NON_NORMAL_DRAWS = 300


def _non_normal_draw(rng: np.random.Generator, k: int):
    """``A = T M T^-1`` of order 2-6 with M in real modal form (a defective
    cluster on every third draw) and cond(T) log-uniform in 1e2-1e9, and a
    schedule of n or n+1 instants."""
    n = 2 + k % 5
    while True:
        structure = random_eigen_structure(rng, n, allow_defective=k % 3 == 0)
        if k % 3 or any(m > 1 for *_, m in structure):
            break
    M = block_diagonal([_real_modal_block(re, im, m) for re, im, m in structure])
    singular_values = np.geomspace(1.0, 10.0 ** rng.uniform(2.0, 9.0), n)
    T = random_orthogonal(rng, n) @ np.diag(singular_values) @ random_orthogonal(rng, n)
    inverse = np.linalg.inv(T)
    b, c = _nonzero_entries(rng, n), _nonzero_entries(rng, n)
    system = Realization(T @ M @ inverse, T @ b, c @ inverse)
    return system, random_schedule(rng, n + k // 5 % 2)


def test_mode_weights_solve_the_basis_on_non_normal_realizations():
    rng = np.random.default_rng(33)
    cleared = ill_conditioned = 0
    for k in range(NON_NORMAL_DRAWS):
        system, schedule = _non_normal_draw(rng, k)
        if not system.minimality.minimal:
            continue
        B, y0 = system.decomposition.B, system.decomposition.y0
        backward = np.linalg.norm(B @ y0 - system.b) / (np.linalg.norm(B, 2) * np.linalg.norm(y0))
        assert backward <= 1e-14, (k, backward)
        ill_conditioned += numeric_rank(B).sigma_ratio < 1e-10
        report = joint_verdict(system, schedule)
        if report.sigma_ratio > AMBIGUITY_BAND[1]:
            bound = 1e-8 * max(1.0, abs(report.full_det))
            assert report.factorization_residual <= bound, (k, report.sigma_ratio)
            cleared += 1
    assert cleared >= 0.6 * NON_NORMAL_DRAWS, cleared
    assert ill_conditioned >= 10, ill_conditioned


HIGH_ORDER_DRAWS = 240


def test_factorization_identity_at_high_orders():
    rng = np.random.default_rng(5)
    pade = 0
    for k in range(HIGH_ORDER_DRAWS):
        n = 5 + k // 2 % 8
        system = random_minimal_system(rng, n, allow_defective=k % 2 == 0)
        report = joint_verdict(system, random_schedule(rng, n))
        bound = 1e-8 * max(1.0, abs(report.full_det))
        assert report.factorization_residual <= bound, (k, n, report.factorization_residual)
        J = system.decomposition.J
        pade += np.count_nonzero(J) > np.count_nonzero(J.diagonal())
    # Nearly every defective draw has a Jordan chain at these orders.
    assert pade >= 0.4 * HIGH_ORDER_DRAWS, pade


IMPULSE_TIMES = np.linspace(0.0, 3.0, 16)


def test_impulse_response_is_the_weighted_sum_of_the_modes():
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for k in range(HIGH_ORDER_DRAWS):
        n = 1 + k // 2 % 12
        system = random_minimal_system(rng, n, allow_defective=k % 2 == 0)
        d = system.decomposition
        kappa = 1.0 / numeric_rank(d.B).sigma_ratio
        transitions = expm(system.A, IMPULSE_TIMES)
        direct = system.c @ transitions @ system.b
        modal = (expm(d.J, IMPULSE_TIMES) @ d.y0) @ (system.c @ d.B)
        bound = (
            1e3 * kappa * eps * np.linalg.norm(system.c)
            * np.linalg.norm(transitions, 2, axis=(1, 2)) * np.linalg.norm(system.b)
        )
        assert (np.abs(direct - modal) <= bound).all(), (k, n, np.max(np.abs(direct - modal) / bound))


TRANSLATION_DRAWS = 300
GRID = 2.0 ** -10


def _translation_draw(rng: np.random.Generator, k: int):
    """A minimal system of order 1-12, with a defective cluster on every third
    draw from order 2, and n or n+1 distinct grid steps in (0, 4)."""
    n = 1 + k % 12
    defective = k % 3 == 0 and n > 1
    while True:
        system = random_minimal_system(rng, n, allow_defective=defective)
        if not defective or any(m > 1 for _, m in system.modes.roots):
            break
    steps = np.sort(rng.choice(np.arange(1, int(4 / GRID)), size=n + k // 12 % 2, replace=False))
    return system, steps


def test_analysis_ignores_a_translation_of_the_schedule():
    rng = np.random.default_rng(34)
    for k in range(TRANSLATION_DRAWS):
        system, steps = _translation_draw(rng, k)
        document = cli.SystemDocument(order=system.n, A=system.A, b=system.b, c=system.c)
        shift = int(rng.integers(1, int(2.0 ** 10 / GRID)))
        reports = []
        for offset in (0, shift):
            schedule = SamplingSchedule(tuple(((steps + offset) * GRID).tolist()))
            report = cli.build_analysis(document, schedule, system.tolerances)
            assert report.pop("schedule") == list(schedule.instants)
            reports.append(json.dumps(report))
        assert reports[0] == reports[1], (k, shift)


DUALITY_DRAWS = 240


def _duality_draw(rng: np.random.Generator, k: int):
    """A system of order 1-12, with a defective cluster on every third draw,
    and n or n+1 instants; every fifth system has a mode that b (even n) or
    c (odd n) misses exactly, so that its minimality flags differ."""
    n = 1 + k % 12
    if k % 5 == 4 and n > 1:
        return _nearly_non_minimal(rng, n, weak=0.0)
    return random_minimal_system(rng, n, allow_defective=k % 3 == 0), random_schedule(rng, n + k // 12 % 2)


def _in_band(*ratios) -> bool:
    return any(AMBIGUITY_BAND[0] <= ratio <= AMBIGUITY_BAND[1] for ratio in ratios)


def test_the_dual_swaps_reachability_and_observability():
    rng = np.random.default_rng(35)
    compared = non_minimal = 0
    for k in range(DUALITY_DRAWS):
        system, schedule = _duality_draw(rng, k)
        dual = system.dual()
        ours, theirs = system.minimality, dual.minimality
        ranks = (ours.controllability_rank, ours.observability_rank,
                 theirs.controllability_rank, theirs.observability_rank)
        if _in_band(*(rank.sigma_ratio for rank in ranks)):
            continue
        assert (theirs.controllable_ct, theirs.observable_ct) == (ours.observable_ct, ours.controllable_ct), k
        if not ours.minimal:
            non_minimal += 1
            continue
        report, dual_report = cross_validate(system, schedule), cross_validate(dual, schedule)
        if _in_band(*(r.criterion.sigma_ratio for r in (report, dual_report)),
                    report.reachability_sigma_ratio, report.observability_sigma_ratio,
                    dual_report.reachability_sigma_ratio, dual_report.observability_sigma_ratio):
            continue
        assert dual_report.criterion.reachable == report.criterion.reachable, k
        assert (dual_report.reachable, dual_report.observable) == (report.observable, report.reachable), k
        compared += 1
    assert compared >= DUALITY_DRAWS // 3 and non_minimal >= DUALITY_DRAWS // 8, (compared, non_minimal)


IMPLICATION_DRAWS = 240


def _implication_document(rng: np.random.Generator, k: int):
    """A document with x0 and a schedule of n+1 instants: a system of order
    1-12, with a defective cluster on every third draw, or on every fourth
    draw an order-2 oscillator one half turn apart at t1 and, at t2, some
    whole half turns later or at random (``_singular_oscillator``)."""
    if k % 4 == 3:
        A, schedule = _singular_oscillator(rng, turns=k % 3)
        b, c, x0 = rng.normal(size=(3, 2))
    else:
        n = 1 + k % 12
        system = random_minimal_system(rng, n, allow_defective=k % 3 == 0)
        A, b, c, x0 = system.A, system.b, system.c, rng.uniform(-1.0, 1.0, n)
        schedule = random_schedule(rng, n + 1)
    return cli.SystemDocument(order=len(b), A=A, b=b, c=c, x0=tuple(x0)), schedule


def _implication_reports():
    """The ``build_analysis`` reports of the implication draws outside the
    ambiguity band, with their orders."""
    rng = np.random.default_rng(36)
    for k in range(IMPLICATION_DRAWS):
        document, schedule = _implication_document(rng, k)
        report = cli.build_analysis(document, schedule, cli.Tolerances())
        if not report["minimality"]["minimal"] or _in_band(report["criterion"]["sigma_ratio"]):
            continue
        yield document.order, report


def test_reachable_implies_controllable_and_controllable_x0():
    labels = Counter()
    for n, report in _implication_reports():
        criterion, oracle = report["criterion"], report["oracle"]
        if criterion["reachable"]:
            assert criterion["controllable"] and oracle["controllable_x0"], report
        if n == 2:
            label = report["case"]["label"]
            assert (label == "a") == criterion["reachable"], report
            labels[label] += 1
    assert set(labels) == {"a", "b", "c"}, labels


@pytest.mark.xfail(strict=True, reason=(
    "the x0-free controllable holds on case-b schedules where controllable_direct "
    "refuses an x0 off the line of b"
))
def test_controllable_implies_controllable_x0():
    for _, report in _implication_reports():
        assert report["oracle"]["controllable_x0"] or not report["criterion"]["controllable"], report
