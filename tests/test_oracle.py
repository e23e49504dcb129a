"""Direct rank tests and criterion cross-validation."""

import numpy as np
import pytest

from nusamp import (
    InsufficientScheduleError,
    SamplingSchedule,
    controllable_direct,
    cross_validate,
    joint_verdict,
    observable_direct,
    reachability_matrix,
    reachable_direct,
)
from conftest import random_minimal_system, random_schedule

RNG = np.random.default_rng(4242)


class TestReachabilityMatrix:
    def test_rotation_quarter_turn(self, rotation_system):
        result = reachability_matrix(rotation_system, SamplingSchedule((0.0, np.pi / 2)))
        # column 0 from the latest instant (zero elapsed time), column 1 from
        # the earliest (quarter turn of b)
        assert np.allclose(result.G[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(result.G[:, 1], [0.0, 1.0], atol=1e-12)
        assert result.rank.rank == 2

    def test_rotation_half_turn_rank_deficient(self, rotation_system):
        result = reachability_matrix(rotation_system, SamplingSchedule((0.0, np.pi)))
        assert np.allclose(result.G[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(result.G[:, 1], [-1.0, 0.0], atol=1e-12)
        assert result.rank.rank == 1

    def test_scalar(self, scalar_system):
        result = reachability_matrix(scalar_system, SamplingSchedule((0.3,)))
        assert result.G[0, 0] == pytest.approx(1.0)
        assert result.rank.rank == 1

    def test_insufficient_instants(self, rotation_system):
        with pytest.raises(InsufficientScheduleError):
            reachability_matrix(rotation_system, SamplingSchedule((0.0,)))

    def test_reference_instant_choice(self, rotation_system):
        short = reachability_matrix(rotation_system, SamplingSchedule((0.0, 1.0)))
        long = reachability_matrix(rotation_system, SamplingSchedule((0.0, 1.0, 2.5)))
        assert short.reference_instant == 1.0
        assert long.reference_instant == 2.5

    def test_reference_conventions_rank_equivalent(self):
        # the exponential factor between the two reference choices is
        # nonsingular, so the rank verdict cannot move
        for _ in range(40):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n + 1)
            clipped = SamplingSchedule(schedule.instants[:n])
            assert (
                reachability_matrix(system, schedule).rank.rank
                == reachability_matrix(system, clipped).rank.rank
            )


class TestDirectVerdicts:
    def test_reachable_examples(self, rotation_system, diag_system):
        assert reachable_direct(rotation_system, SamplingSchedule((0.0, np.pi / 2)))
        assert not reachable_direct(rotation_system, SamplingSchedule((0.0, np.pi)))
        assert reachable_direct(diag_system, SamplingSchedule((0.0, 1.0)))

    def test_observable_by_duality(self, rotation_system, scalar_system):
        assert observable_direct(rotation_system, SamplingSchedule((0.0, np.pi / 2)))
        assert not observable_direct(rotation_system, SamplingSchedule((0.0, np.pi)))
        assert observable_direct(scalar_system, SamplingSchedule((0.5,)))

    def test_duality_involution(self):
        for _ in range(30):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            schedule = random_schedule(RNG, n)
            assert observable_direct(system, schedule) == reachable_direct(
                system.dual(), schedule
            )
            double = system.dual().dual()
            assert reachable_direct(double, schedule) == reachable_direct(
                system, schedule
            )
            assert observable_direct(double, schedule) == observable_direct(
                system, schedule
            )


class TestControllableDirect:
    def test_zero_state_always_controllable(self):
        for _ in range(10):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            schedule = random_schedule(RNG, n + 1)
            assert controllable_direct(system, schedule, np.zeros(n))

    def test_full_turn(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi, 2 * np.pi))
        assert controllable_direct(rotation_system, schedule, [1.0, 0.0])

    def test_leaving_the_span(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi, np.pi + 1.5))
        assert not controllable_direct(rotation_system, schedule, [0.0, 1.0])

    def test_needs_extra_instant(self, rotation_system):
        with pytest.raises(InsufficientScheduleError):
            controllable_direct(rotation_system, SamplingSchedule((0.0, 1.0)), [1.0, 0.0])


class TestCrossValidate:
    def test_report_carries_the_compared_criterion(self, rotation_system):
        schedule = SamplingSchedule((0.0, 1.0, 2.5))
        report = cross_validate(rotation_system, schedule)
        assert report.criterion == joint_verdict(rotation_system, schedule)
        assert report.criterion_sigma_ratio == report.criterion.sigma_ratio

    def test_agreement_on_rotation(self, rotation_system):
        good = cross_validate(rotation_system, SamplingSchedule((0.0, np.pi / 2)))
        assert good.agrees_with_criterion
        assert good.reachable and good.observable
        bad = cross_validate(rotation_system, SamplingSchedule((0.0, np.pi)))
        assert bad.agrees_with_criterion
        assert not bad.reachable and not bad.observable

    def test_random_sweep_agrees(self):
        checked = 0
        for _ in range(200):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n)
            report = cross_validate(system, schedule)
            if 1e-11 <= report.criterion_sigma_ratio <= 1e-7:
                continue  # tolerance ambiguity band
            checked += 1
            assert report.agrees_with_criterion
        assert checked > 150
