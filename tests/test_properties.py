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
"""

from __future__ import annotations

import dataclasses
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
    cli,
    controllable_direct,
    cross_validate,
    deadbeat_inputs,
    full_determinant,
    joint_verdict,
    reconstruct_state,
    shifted_intervals,
    simulate_impulse,
    simulate_zoh,
)
from conftest import random_minimal_system, random_schedule

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
