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
``residual`` moves only the membership decisions, ``singularity`` only the
verdicts, the span-truncated membership and the warnings, and ``rank`` only
the minimality flags (and, when ``minimal`` flips, the sections a
non-minimal ``build_analysis`` document drops).  Besides generic systems
the sweep draws oscillators near a singular schedule or near membership
and systems near the minimality threshold, so every decision flips.

The joint verdict depends only on instant differences, and so does every
field of an ``analyze`` report without x0: shifting a schedule on a 2**-10
grid by a multiple of 2**-10 below 2**10 keeps every instant and every
difference exact, and the report other than its ``schedule`` bit for bit.

The mode weights y0 come from one solve with the modal basis B, backward
stable however ill-conditioned B is: on non-normal realizations, some with
nearly parallel basis columns, y0 solves ``B y0 = b`` to a few rounding
errors, and the factorization identity holds on every schedule whose sigma
ratio clears the ambiguity band.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import warnings

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
            system.decomposition, shifted_intervals(first, n)
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
    "residual": MEMBERSHIP,
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


def _nearly_non_minimal(rng: np.random.Generator, n: int):
    """An order-n system with one real mode, beyond the others, excited (even n)
    or seen (odd n) with weight 1e-11 to 1e-7, in a random orthogonal basis."""
    inner = random_minimal_system(rng, n - 1)
    lam = float(np.max(np.linalg.eigvals(inner.A).real)) + rng.uniform(0.3, 1.0)
    A = np.zeros((n, n))
    A[:-1, :-1], A[-1, -1] = inner.A, lam
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
    # Each tolerance flips the decision it names somewhere in the sweep.
    assert ("criterion", "controllable") in moved["residual"], moved
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
