"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line once its criterion holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  Runtime budgets are
asserted alongside the numerical bounds.
"""

import time

import numpy as np

from nusamp import (
    Realization,
    SamplingSchedule,
    classify_case,
    cross_validate,
    deadbeat_inputs,
    joint_verdict,
    reachability_matrix,
    reconstruct_state,
    simulate_impulse,
)
from nusamp.numerics import expm
from conftest import AMBIGUITY_BAND, build_system, random_minimal_system, random_schedule

ROTATION = Realization([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 0.0])
DAMPED = Realization([[-0.3, -1.0], [1.0, -0.3]], [1.0, 0.0], [1.0, 0.0])


def _passed(name: str) -> None:
    print(f"PASS: {name}")


def test_forbidden_set_exactness():
    started = time.perf_counter()
    for system in (ROTATION, DAMPED):
        for k in (1, 2, 3):
            at = joint_verdict(system, SamplingSchedule((0.0, k * np.pi)))
            assert not at.reachable
            assert at.sigma_ratio < 1e-9
            off = joint_verdict(system, SamplingSchedule((0.0, (k + 0.5) * np.pi)))
            assert off.reachable
            assert off.sigma_ratio > 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(f"forbidden-set exactness (undamped and damped, {elapsed:.2f}s)")


def test_factorization_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 500:
        n = int(rng.integers(1, 5))
        system = random_minimal_system(rng, n, allow_defective=True)
        schedule = random_schedule(rng, n)
        report = joint_verdict(system, schedule)
        bound = 1e-8 * max(1.0, abs(report.full_det))
        assert report.factorization_residual <= bound
        worst = max(worst, report.factorization_residual / bound)
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(
        f"factorization identity over {checked} systems "
        f"(worst residual at {worst:.1e} of bound, {elapsed:.1f}s)"
    )


def test_criterion_matches_direct_rank_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 5))
        system = random_minimal_system(rng, n, allow_defective=True)
        schedule = random_schedule(rng, n)
        report = cross_validate(system, schedule)
        if AMBIGUITY_BAND[0] <= report.criterion_sigma_ratio <= AMBIGUITY_BAND[1]:
            continue
        assert report.agrees_with_criterion
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(f"criterion vs direct rank oracle, {checked} pairs, 100% ({elapsed:.1f}s)")


def test_duality():
    # same draw sequence as the oracle-equivalence sweep, no band exclusion:
    # the sampled output rows c exp(A s) and the dual's sampled input
    # columns must give the same rank on every sampled pair
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 5))
        system = random_minimal_system(rng, n, allow_defective=True)
        schedule = random_schedule(rng, n)
        assert cross_validate(system, schedule).observable == (
            reachability_matrix(system.dual(), schedule).rank.rank == n
        )
        checked += 1
    _passed(f"duality on all {checked} sampled pairs, 100%")


def test_case_taxonomy():
    def label(*instants):
        return classify_case(joint_verdict(ROTATION, SamplingSchedule(instants)))

    assert label(0.0, np.pi / 2, 1.9) == "a"
    assert label(0.0, np.pi, 2 * np.pi) == "b"
    assert label(0.0, np.pi, np.pi + 1.5) == "c"
    intervals = np.arange(0.01, 4.0001, 0.01)
    for interval in intervals:
        assert label(0.0, interval, 2.0 * interval) != "c"
    _passed(
        f"case taxonomy: a/b/c on the three reference schedules; no case c over "
        f"{len(intervals)} uniform intervals"
    )


def test_deadbeat_and_reconstruction_closure():
    rng = np.random.default_rng(4096)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 5))
        system = random_minimal_system(rng, n, allow_defective=True)
        schedule = random_schedule(rng, n)
        if joint_verdict(system, schedule).sigma_ratio < 1e-7:
            continue

        x0 = rng.normal(size=n)
        target = rng.normal(size=n)
        t_final = schedule.instants[-1] + float(rng.uniform(0.2, 1.0))
        inputs = deadbeat_inputs(system, schedule, x0, target, t_final)
        replay = simulate_impulse(
            system, SamplingSchedule((*schedule.instants, t_final)), inputs, x0
        )
        assert np.linalg.norm(replay.states[-1] - target) <= 1e-6 * max(
            1.0, np.linalg.norm(target)
        )

        truth = rng.normal(size=n)
        outputs = [
            float(system.c @ expm(system.A, t) @ truth) for t in schedule.instants
        ]
        recovered = reconstruct_state(system, schedule, outputs)
        assert np.linalg.norm(recovered - truth) <= 1e-6 * max(
            1.0, np.linalg.norm(truth)
        )
        checked += 1
    _passed(f"deadbeat and reconstruction closure on {checked} systems")


def test_real_eigenvalue_immunity():
    rng = np.random.default_rng(515)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 5))
        values = np.sort(rng.uniform(-2.0, 2.0, size=n))
        if n > 1 and np.min(np.diff(values)) < 0.15:
            continue
        system = build_system(rng, [(float(v), 0.0, 1) for v in values])
        assert joint_verdict(system, random_schedule(rng, n)).reachable
        checked += 1

    jordan_checked = 0
    while jordan_checked < 200:
        n = int(rng.integers(2, 5))
        system = build_system(rng, [(float(rng.uniform(-2.0, 2.0)), 0.0, n)])
        assert joint_verdict(system, random_schedule(rng, n)).reachable
        jordan_checked += 1
    _passed(
        f"distinct-real immunity ({checked} systems) and single-eigenvalue "
        f"immunity ({jordan_checked} systems)"
    )


def test_scalar_deadbeat_closed_form():
    system = Realization([[-1.0]], [1.0], [1.0])
    inputs = deadbeat_inputs(
        system, SamplingSchedule((0.0,)), [0.0], [1.0], t_final=1.0
    )
    assert abs(inputs[0] - np.e) <= 1e-10
    _passed("scalar deadbeat closed form (u0 = e within 1e-10)")
