"""Shifted intervals, mode matrix, determinant factorization, joint verdict."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from nusamp import (
    DimensionError,
    InsufficientScheduleError,
    MinimalityError,
    ModalDecomposition,
    ModeSet,
    NumericRangeError,
    Realization,
    SamplingSchedule,
    Tolerances,
    classify_case,
    controllable_direct,
    factor_n1,
    factor_n2,
    full_determinant,
    joint_verdict,
    modal_decompose,
    mode_matrix,
    schedule_conditioning,
    shifted_intervals,
)
from nusamp.cli import SystemDocument, build_analysis
from nusamp.numerics import column_normalized_sigma_ratio
from conftest import random_minimal_system, random_orthogonal, random_schedule

RNG = np.random.default_rng(1101)


class TestSamplingSchedule:
    def test_requires_increasing(self):
        with pytest.raises(DimensionError):
            SamplingSchedule((1.0, 1.0))
        with pytest.raises(DimensionError):
            SamplingSchedule((2.0, 1.0))
        with pytest.raises(DimensionError):
            SamplingSchedule(())

    def test_shift(self):
        schedule = SamplingSchedule((0.0, 1.0)).shifted(5.0)
        assert schedule.instants == (5.0, 6.0)


class TestShiftedIntervals:
    def test_basic(self):
        alphas = shifted_intervals(SamplingSchedule((0.0, 1.0)), 2)
        assert alphas.alpha == (0.0, 1.0)
        assert alphas.alpha_n is None

    def test_translation_invariance(self):
        alphas = shifted_intervals(SamplingSchedule((5.0, 6.0)), 2)
        assert alphas.alpha == (0.0, 1.0)

    def test_extra_instant(self):
        alphas = shifted_intervals(SamplingSchedule((0.0, 1.0, 3.0)), 2)
        assert alphas.alpha == (0.0, 1.0)
        assert alphas.alpha_n == 3.0

    def test_insufficient(self):
        with pytest.raises(InsufficientScheduleError):
            shifted_intervals(SamplingSchedule((0.0,)), 2)


class TestScheduleConditioning:
    MODES = ModeSet(((-0.3 - 1j, 1), (-0.3 + 1j, 1), (-0.5, 1)))

    def test_rows_match_schedules(self):
        schedules = [random_schedule(RNG, 4, window=(-2.0, 5.0)) for _ in range(12)]
        rows = np.array([s.instants for s in schedules]).reshape(3, 4, 4)
        batched = schedule_conditioning(self.MODES, rows)
        assert batched.shape == (3, 4)
        expected = [schedule_conditioning(self.MODES, s) for s in schedules]
        assert all(type(value) is float for value in expected)
        assert np.array_equal(batched.reshape(-1), expected)

    def test_single_row_gives_a_float(self):
        schedule = SamplingSchedule((0.3, 1.1, 2.0))
        value = schedule_conditioning(self.MODES, np.array(schedule.instants))
        assert type(value) is float
        assert value == schedule_conditioning(self.MODES, schedule)

    def test_same_intervals_as_shifted_intervals(self):
        schedule = SamplingSchedule((0.1, 0.7, 1.9, 2.2))
        matrix = mode_matrix(self.MODES, shifted_intervals(schedule, 3))
        assert schedule_conditioning(self.MODES, schedule) == column_normalized_sigma_ratio(matrix)

    def test_too_few_instants(self):
        message = "schedule has 2 instants but the order-3 test needs at least 3"
        with pytest.raises(InsufficientScheduleError, match=message):
            schedule_conditioning(self.MODES, SamplingSchedule((0.0, 1.0)))
        with pytest.raises(InsufficientScheduleError, match=message):
            schedule_conditioning(self.MODES, np.zeros((5, 2)))


class TestModeMatrix:
    def test_real_distinct(self):
        # canonical order puts -1 before 0, so modes are (exp(-t), 1)
        modes = ModeSet(((-1.0, 1), (0.0, 1)))
        alphas = shifted_intervals(SamplingSchedule((0.0, 1.0)), 2)
        matrix = mode_matrix(modes, alphas)
        assert np.allclose(matrix, [[1.0, 1.0], [np.exp(-1.0), 1.0]])
        assert abs(np.linalg.det(matrix)) == pytest.approx(1.0 - np.exp(-1.0))

    def test_conjugate_pair_singular_at_pi(self):
        modes = ModeSet(((-1j, 1), (1j, 1)))
        alphas = shifted_intervals(SamplingSchedule((0.0, np.pi)), 2)
        matrix = mode_matrix(modes, alphas)
        assert np.allclose(matrix, [[1.0, 1.0], [-1.0, -1.0]])

    def test_jordan_modes(self):
        modes = ModeSet(((-1.0, 2),))
        alphas = shifted_intervals(SamplingSchedule((0.0, 1.0)), 2)
        matrix = mode_matrix(modes, alphas)
        assert np.allclose(matrix, [[1.0, 0.0], [np.exp(-1.0), np.exp(-1.0)]])
        assert np.linalg.det(matrix) == pytest.approx(np.exp(-1.0))

    def test_size_mismatch(self):
        modes = ModeSet(((-1.0, 1),))
        with pytest.raises(DimensionError):
            mode_matrix(modes, shifted_intervals(SamplingSchedule((0.0, 1.0)), 2))

    def test_overflow_raises_without_warnings(self):
        modes = ModeSet(((0.0, 1), (3.0, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError):
                mode_matrix(modes, np.array([0.0, 400.0]))


class TestFactorN1:
    def test_simple_eigenvalues(self):
        assert factor_n1(ModeSet(((-1.0, 1), (0.0, 1)))) == 1.0

    def test_double(self):
        assert factor_n1(ModeSet(((-1.0, 2),))) == 1.0  # 1/0! * 1/1!

    def test_triple(self):
        assert factor_n1(ModeSet(((-1.0, 3),))) == 0.5  # 1/0! * 1/1! * 1/2!


def _decomposition_with_y0(modes: ModeSet, y0) -> ModalDecomposition:
    n = modes.n
    return ModalDecomposition(
        modes=modes,
        J=np.zeros((n, n), dtype=complex),
        B=np.eye(n, dtype=complex),
        y0=np.asarray(y0, dtype=complex),
        basis_sigma_ratio=1.0,
        reconstruction_residual=0.0,
    )


class TestFactorN2:
    def test_simple_eigenvalues_product(self):
        modes = ModeSet(((-1.0, 1), (0.0, 1), (1.0, 1)))
        decomposition = _decomposition_with_y0(modes, [2.0, 3.0, -1.0])
        assert factor_n2(decomposition) == pytest.approx(-6.0)

    def test_double_block(self):
        # det [[3, 2], [2, 0]] = -4, matching the closed form -(y_last)**2
        modes = ModeSet(((-1.0, 2),))
        decomposition = _decomposition_with_y0(modes, [3.0, 2.0])
        assert factor_n2(decomposition) == pytest.approx(-4.0)

    def test_zero_last_component(self):
        modes = ModeSet(((-1.0, 2),))
        decomposition = _decomposition_with_y0(modes, [3.0, 0.0])
        assert factor_n2(decomposition) == pytest.approx(0.0)

    def test_closed_form(self):
        for _ in range(20):
            m = int(RNG.integers(1, 5))
            modes = ModeSet(((-1.0, m),))
            y = RNG.normal(size=m) + 1j * RNG.normal(size=m)
            decomposition = _decomposition_with_y0(modes, y)
            expected = (-1.0) ** (m * (m - 1) // 2) * y[-1] ** m
            assert factor_n2(decomposition) == pytest.approx(expected)


class TestFullDeterminant:
    def test_first_column_is_y0(self, diag_system):
        decomposition = modal_decompose(diag_system)
        alphas = shifted_intervals(SamplingSchedule((0.0, 1.0)), 2)
        # alpha_0 = 0 makes column 0 equal y0; for the diagonal system the
        # determinant magnitude is |e^-1 - 1| times |y0_1 y0_2|
        value = full_determinant(decomposition, alphas)
        scale = abs(decomposition.y0[0] * decomposition.y0[1])
        assert abs(value) == pytest.approx(scale * (1.0 - np.exp(-1.0)))

    def test_repeated_interval_gives_zero(self, rotation_system):
        decomposition = modal_decompose(rotation_system)
        from nusamp import ShiftedIntervals

        value = full_determinant(decomposition, ShiftedIntervals((0.0, 0.0)))
        assert abs(value) < 1e-15


    def test_wrong_interval_count_raises(self, rotation_system):
        from nusamp import ShiftedIntervals

        with pytest.raises(DimensionError, match="needs 2 intervals, got 3"):
            full_determinant(modal_decompose(rotation_system), ShiftedIntervals((0.0, 1.0, 2.0)))


class TestJointVerdict:
    def test_mode_space_rows_exponentiated_once(self, monkeypatch):
        # One batched expm gives both full_det and the membership row at
        # alpha_n; full_det stays bit-equal to the public full_determinant.
        from nusamp import numerics
        from conftest import count_calls

        for _ in range(20):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            decomposition = system.decomposition
            schedule = random_schedule(RNG, n + 1)
            with monkeypatch.context() as patch:
                calls = count_calls(patch, [(numerics, "expm")])
                report = joint_verdict(system, schedule)
            assert calls == {"expm": 1}
            assert report.controllable is not None
            assert report.full_det == full_determinant(decomposition, report.alphas)

    def test_rotation_quarter_turn(self, rotation_system):
        report = joint_verdict(rotation_system, SamplingSchedule((0.0, np.pi / 2)))
        assert report.reachable and report.observable
        assert abs(report.mode_det) == pytest.approx(2.0)
        assert report.sigma_ratio > 1e-3

    def test_rotation_half_turn_fails(self, rotation_system):
        report = joint_verdict(rotation_system, SamplingSchedule((0.0, np.pi)))
        assert not report.reachable and not report.observable
        assert report.sigma_ratio < 1e-9

    def test_scalar_single_instant(self, scalar_system):
        report = joint_verdict(scalar_system, SamplingSchedule((0.7,)))
        assert report.reachable
        assert report.mode_det == pytest.approx(1.0)

    def test_non_minimal_raises(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(MinimalityError, match="controllability rank 1 < 2"):
            joint_verdict(system, SamplingSchedule((0.0, 1.0)))

    def test_inseparability(self):
        for _ in range(30):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            report = joint_verdict(system, random_schedule(RNG, n))
            assert report.reachable == report.observable

    def test_translation_invariance(self, rotation_system):
        for _ in range(20):
            n = 2
            schedule = random_schedule(RNG, n)
            delta = float(RNG.uniform(-10.0, 10.0))
            base = joint_verdict(rotation_system, schedule)
            moved = joint_verdict(rotation_system, schedule.shifted(delta))
            assert base.reachable == moved.reachable
            assert abs(base.mode_det) == pytest.approx(
                abs(moved.mode_det), rel=1e-10
            )

    def test_input_scaling(self):
        for _ in range(15):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            schedule = random_schedule(RNG, n)
            gamma = float(RNG.uniform(0.2, 3.0)) * float(RNG.choice([-1.0, 1.0]))
            scaled = Realization(system.A, gamma * system.b, system.c)
            base = joint_verdict(system, schedule)
            after = joint_verdict(scaled, schedule)
            assert base.reachable == after.reachable
            assert after.mode_det == pytest.approx(base.mode_det, rel=1e-9)
            assert after.n2 == pytest.approx(base.n2 * gamma**n, rel=1e-8)

    def test_similarity_invariance(self):
        from conftest import random_well_conditioned

        for _ in range(15):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            schedule = random_schedule(RNG, n)
            t = random_well_conditioned(RNG, n)
            t_inv = np.linalg.inv(t)
            moved = Realization(t @ system.A @ t_inv, t @ system.b, system.c @ t_inv)
            assert (
                joint_verdict(system, schedule).reachable
                == joint_verdict(moved, schedule).reachable
            )

    def test_factorization_identity(self):
        for _ in range(100):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n)
            report = joint_verdict(system, schedule)
            bound = 1e-8 * max(1.0, abs(report.full_det))
            assert report.factorization_residual <= bound

    def test_real_distinct_always_reachable(self):
        from conftest import build_system

        for _ in range(40):
            n = int(RNG.integers(1, 5))
            values = np.sort(RNG.uniform(-2.0, 2.0, size=n))
            while n > 1 and np.min(np.diff(values)) < 0.15:
                values = np.sort(RNG.uniform(-2.0, 2.0, size=n))
            system = build_system(RNG, [(float(v), 0.0, 1) for v in values])
            report = joint_verdict(system, random_schedule(RNG, n))
            assert report.reachable

    def test_single_eigenvalue_always_reachable(self):
        # confluent case: one Jordan block, any distinct instants
        from conftest import build_system

        for _ in range(40):
            n = int(RNG.integers(2, 5))
            system = build_system(RNG, [(float(RNG.uniform(-2.0, 2.0)), 0.0, n)])
            report = joint_verdict(system, random_schedule(RNG, n))
            assert report.reachable


class TestControllabilityVerdict:
    def test_full_span_implies_membership(self, rotation_system):
        verdict = joint_verdict(rotation_system, SamplingSchedule((0.0, np.pi / 2, 2.0)))
        assert verdict.controllable and verdict.constructible

    def test_full_turn_controllable_not_reachable(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi, 2 * np.pi))
        report = joint_verdict(rotation_system, schedule)
        assert not report.reachable
        assert report.controllable and report.constructible

    def test_neither_preserved(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi, np.pi + 1.5))
        report = joint_verdict(rotation_system, schedule)
        assert not report.reachable
        assert not report.controllable
        assert report.membership_residual > 0.1

    def test_requires_extra_instant(self, rotation_system):
        report = joint_verdict(rotation_system, SamplingSchedule((0.0, 1.0)))
        assert report.controllable is None and report.constructible is None
        assert report.membership_residual is None

    def test_membership_uses_the_residual_tolerance(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi, np.pi + 1.5))
        assert not joint_verdict(rotation_system, schedule).controllable
        loose = replace(rotation_system, tolerances=Tolerances(residual=10.0))
        assert joint_verdict(loose, schedule).controllable
        loose_singularity = replace(rotation_system, tolerances=Tolerances(singularity=10.0))
        assert not joint_verdict(loose_singularity, schedule).controllable

    def test_reachable_implies_controllable(self):
        for _ in range(30):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n + 1)
            report = joint_verdict(system, schedule)
            if report.reachable:
                assert report.controllable


class TestVerdictCoherence:
    """One report never contradicts itself, even inside the ambiguity band.

    The half-turn rotation schedule ``0, 3.14159265, 4`` has sigma ratio
    1.79e-9, just above the default singularity tolerance: the band the
    corpus refuses, so it is pinned here.  Expected per tolerance bundle:
    (case label, controllable, controllable_x0).
    """

    BUNDLES = {
        "default": Tolerances(),
        "singularity": Tolerances(singularity=0.1),
        "residual": Tolerances(residual=10.0),
    }
    EXPECTED = {
        (0.0, 3.14159265, 4.0): {
            "default": ("a", True, True),
            "singularity": ("c", False, False),
            "residual": ("a", True, True),
        },
        (0.0, np.pi, 4.0): {
            "default": ("c", False, False),
            "singularity": ("c", False, False),
            "residual": ("b", True, True),
        },
    }

    @staticmethod
    def assert_coherent(report, label):
        assert report.observable == report.reachable
        assert report.constructible == report.controllable
        if report.reachable:
            assert report.controllable
        if label is not None:  # the taxonomy covers order 2 only
            assert (label == "a") == report.reachable
            assert (label == "b") == (not report.reachable and report.controllable)

    @pytest.mark.parametrize("instants", list(EXPECTED))
    @pytest.mark.parametrize("bundle", list(BUNDLES))
    def test_half_turn_reports_are_coherent(self, rotation_system, instants, bundle):
        document = SystemDocument(
            order=2,
            A=rotation_system.A,
            b=rotation_system.b,
            c=rotation_system.c,
            x0=(1.0, -0.5),
        )
        schedule = SamplingSchedule(instants)
        result = build_analysis(document, schedule, self.BUNDLES[bundle])
        criterion = result["criterion"]
        label = result["case"]["label"]
        controllable_x0 = result["oracle"]["controllable_x0"]
        assert (label, criterion["controllable"], controllable_x0) == self.EXPECTED[instants][bundle]

        report = joint_verdict(replace(rotation_system, tolerances=self.BUNDLES[bundle]), schedule)
        assert classify_case(report) == label
        self.assert_coherent(report, label)

    def test_seeded_sweep_with_random_tolerances(self):
        rng = np.random.default_rng(2207)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            system = random_minimal_system(rng, n, allow_defective=True)
            tolerances = Tolerances(
                singularity=10.0 ** rng.uniform(-14.0, 0.0),
                residual=10.0 ** rng.uniform(-14.0, 1.0),
            )
            schedule = random_schedule(rng, n + 1)
            report = joint_verdict(replace(system, tolerances=tolerances), schedule)
            label = classify_case(report)
            assert (label is None) == (n != 2)
            self.assert_coherent(report, label)

    def test_controllable_implies_every_x0_outside_the_band(self):
        rng = np.random.default_rng(2208)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            system = random_minimal_system(rng, n, allow_defective=True)
            schedule = random_schedule(rng, n + 1)
            report = joint_verdict(system, schedule)
            if 1e-11 <= report.sigma_ratio <= 1e-7 or not report.controllable:
                continue
            assert controllable_direct(system, schedule, rng.normal(size=n))
