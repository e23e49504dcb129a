"""Direct rank tests and criterion cross-validation."""

import re
from dataclasses import replace

import numpy as np
import pytest

from nusamp import (
    DimensionError,
    InsufficientScheduleError,
    Realization,
    SamplingSchedule,
    Tolerances,
    controllable_direct,
    cross_validate,
    deadbeat_inputs,
    joint_verdict,
    numeric_rank,
    numerics,
    reachability_matrix,
)
from conftest import AMBIGUITY_BAND, count_calls, random_minimal_system, random_schedule

RNG = np.random.default_rng(4242)


class TestReachabilityMatrix:
    def test_rotation_quarter_turn(self, rotation_system):
        G = reachability_matrix(rotation_system, SamplingSchedule((0.0, np.pi / 2)))
        # column 0 from the latest instant (zero elapsed time), column 1 from
        # the earliest (quarter turn of b)
        assert np.allclose(G[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(G[:, 1], [0.0, 1.0], atol=1e-12)
        assert numeric_rank(G, rotation_system.tolerances.singularity).rank == 2

    def test_rotation_half_turn_rank_deficient(self, rotation_system):
        G = reachability_matrix(rotation_system, SamplingSchedule((0.0, np.pi)))
        assert np.allclose(G[:, 0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(G[:, 1], [-1.0, 0.0], atol=1e-12)
        assert numeric_rank(G, rotation_system.tolerances.singularity).rank == 1

    def test_scalar(self, scalar_system):
        G = reachability_matrix(scalar_system, SamplingSchedule((0.3,)))
        assert G[0, 0] == pytest.approx(1.0)
        assert numeric_rank(G, scalar_system.tolerances.singularity).rank == 1

    def test_insufficient_instants(self, rotation_system):
        with pytest.raises(InsufficientScheduleError):
            reachability_matrix(rotation_system, SamplingSchedule((0.0,)))

    def test_reference_instant_choice(self, rotation_system):
        # Column 0 is b carried from t[n-1] to the reference: t[n-1] itself
        # with n instants, t[n] with more.
        A, b = rotation_system.A, rotation_system.b
        short = reachability_matrix(rotation_system, SamplingSchedule((0.0, 1.0)))
        long = reachability_matrix(rotation_system, SamplingSchedule((0.0, 1.0, 2.5)))
        assert np.allclose(short[:, 0], b, rtol=0.0, atol=1e-15)
        assert np.allclose(long[:, 0], numerics.expm(A, 1.5) @ b, rtol=0.0, atol=1e-15)

    def test_reference_conventions_rank_equivalent(self):
        # the exponential factor between the two reference choices is
        # nonsingular, so the rank verdict cannot move
        for _ in range(40):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n + 1)
            clipped = SamplingSchedule(schedule.instants[:n])
            tol = system.tolerances.singularity
            assert (
                numeric_rank(reachability_matrix(system, schedule), tol).rank
                == numeric_rank(reachability_matrix(system, clipped), tol).rank
            )


class TestDirectVerdicts:
    def test_reachable_examples(self, rotation_system, diag_system):
        assert cross_validate(rotation_system, SamplingSchedule((0.0, np.pi / 2))).reachable
        assert not cross_validate(rotation_system, SamplingSchedule((0.0, np.pi))).reachable
        assert cross_validate(diag_system, SamplingSchedule((0.0, 1.0))).reachable

    def test_observable_examples(self, rotation_system, scalar_system):
        assert cross_validate(rotation_system, SamplingSchedule((0.0, np.pi / 2))).observable
        assert not cross_validate(rotation_system, SamplingSchedule((0.0, np.pi))).observable
        assert cross_validate(scalar_system, SamplingSchedule((0.5,))).observable

    def test_routes_use_b_for_inputs_and_c_for_outputs(self):
        # (A, c^T) is not controllable and (A, b^T) is not observable, so
        # swapping b and c in either route loses rank.
        jordan = Realization([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0])
        report = cross_validate(jordan, SamplingSchedule((0.0, 1.0)))
        assert report.reachable and report.observable

    def test_duality_involution(self):
        # The sampled output rows c exp(A s) and the dual's sampled input
        # columns exp(A^T s) c^T are two routes to the observability rank.
        for _ in range(30):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            schedule = random_schedule(RNG, n)
            report = cross_validate(system, schedule)
            G = reachability_matrix(system.dual(), schedule)
            assert report.observable == (
                numeric_rank(G, system.tolerances.singularity).rank == n
            )
            double = cross_validate(system.dual().dual(), schedule)
            assert double.reachable == report.reachable
            assert double.observable == report.observable


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

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["unit", "2**-40"])
    def test_membership_ignores_the_scale_of_x0(self, rotation_system, scale):
        schedule = SamplingSchedule((0.0, np.pi, 4.0))
        assert not controllable_direct(rotation_system, schedule, [0.0, scale])

    def test_needs_extra_instant(self, rotation_system):
        with pytest.raises(InsufficientScheduleError):
            controllable_direct(rotation_system, SamplingSchedule((0.0, 1.0)), [1.0, 0.0])

    @pytest.mark.parametrize(
        "x0, message",
        [
            ([1.0, 0.0, 0.0], "x0 has 3 entries, expected 2"),
            ([1.0, np.nan], "x0 must be finite"),
            ([1.0, np.inf], "x0 must be finite"),
        ],
    )
    def test_rejects_x0_as_deadbeat_does(self, rotation_system, x0, message):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            controllable_direct(rotation_system, SamplingSchedule((0.0, 1.0, 2.0)), x0)
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            deadbeat_inputs(rotation_system, SamplingSchedule((0.0, 1.0)), x0, [0.0, 0.0])

    def test_one_exponential_stack_and_no_rank_test(self, monkeypatch, rotation_system):
        calls = count_calls(monkeypatch, [(numerics, "expm"), (numerics, "numeric_rank")])
        schedule = SamplingSchedule((0.0, np.pi, 2 * np.pi))
        assert controllable_direct(rotation_system, schedule, [1.0, 0.0])
        assert calls == {"expm": 1}

    def test_residual_tolerance_from_the_bundle(self, rotation_system):
        # The bundle's singularity tolerance judges the residual.  After the
        # half turn G spans one direction at either tolerance; x0 lies 1e-6
        # off it.
        schedule = SamplingSchedule((0.0, np.pi, np.pi + 1.5))
        x0 = [1.0, 1e-6]
        strict = replace(rotation_system, tolerances=Tolerances(singularity=1e-9))
        loose = replace(rotation_system, tolerances=Tolerances(singularity=1e-3))
        assert not controllable_direct(strict, schedule, x0)
        assert controllable_direct(loose, schedule, x0)


class TestCrossValidate:
    def test_report_carries_the_compared_criterion(self, rotation_system):
        schedule = SamplingSchedule((0.0, 1.0, 2.5))
        report = cross_validate(rotation_system, schedule)
        assert report.criterion == joint_verdict(rotation_system, schedule)
        assert report.criterion_sigma_ratio == report.criterion.sigma_ratio

    def test_one_exponential_stack_besides_the_criterion(self, monkeypatch, rotation_system):
        calls = count_calls(monkeypatch, [(numerics, "expm")])
        cross_validate(rotation_system, SamplingSchedule((0.0, 1.0, 2.5)))
        assert calls == {"expm": 2}

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
            if AMBIGUITY_BAND[0] <= report.criterion_sigma_ratio <= AMBIGUITY_BAND[1]:
                continue  # tolerance ambiguity band
            checked += 1
            assert report.agrees_with_criterion
        assert checked > 150
