"""Forbidden instants, uniform-interval validation and schedule search."""

import math

import numpy as np
import pytest

from nusamp import (
    DimensionError,
    InfeasibleError,
    ModeSet,
    NotApplicableError,
    NumericRangeError,
    Realization,
    SamplingSchedule,
    ScheduleSearchSpec,
    UnsupportedOrderError,
    forbidden_instants_order2,
    joint_verdict,
    mode_matrix,
    mode_set,
    schedule_conditioning,
    suggest_schedule,
    validate_uniform,
)
from nusamp import numerics
from nusamp.numerics import column_normalized_sigma_ratio

RNG = np.random.default_rng(55)


def oscillator(a: float, b: float) -> Realization:
    return Realization([[a, -b], [b, a]], [1.0, 0.0], [1.0, 0.0])


# Real modal form: a real mode at -0.5 and the pair -0.1 +- 0.8j.
ORDER3 = Realization(
    [[-0.5, 0.0, 0.0], [0.0, -0.1, -0.8], [0.0, 0.8, -0.1]],
    [1.0, 0.7, -0.4],
    [0.9, 1.0, 0.5],
)
# Real modal form: the pairs -0.2 +- 1.1j and -0.6 +- 0.5j.
ORDER4 = Realization(
    [
        [-0.2, -1.1, 0.0, 0.0],
        [1.1, -0.2, 0.0, 0.0],
        [0.0, 0.0, -0.6, -0.5],
        [0.0, 0.0, 0.5, -0.6],
    ],
    [1.0, 0.4, -0.8, 0.6],
    [0.7, -1.0, 0.5, 0.9],
)


def reference_grid(lo, hi, spacing, head, tail):
    """The search grid by scalar recursion, one candidate at a time."""
    step = spacing / 4.0
    found = []

    def explore(prefix):
        depth = len(prefix)
        if depth == head:
            found.append(tuple(prefix))
            return
        remaining = head - depth - 1 + tail
        start = prefix[-1] + spacing
        position = lo + math.ceil((start - lo) / step - 1e-12) * step
        while position <= hi - remaining * spacing + 1e-12:
            explore(prefix + [position])
            position += step

    explore([lo])
    return found


class TestForbiddenInstants:
    def test_unit_frequency_window(self, rotation_system):
        result = forbidden_instants_order2(rotation_system, 0.0, (0.0, 7.0))
        assert result.period == pytest.approx(np.pi)
        assert result.forbidden == pytest.approx((0.0, np.pi, 2 * np.pi))

    def test_frequency_two(self):
        result = forbidden_instants_order2(oscillator(0.0, 2.0), 0.0, (0.1, 2.0))
        assert result.forbidden == pytest.approx((np.pi / 2,))

    def test_damping_does_not_move_the_set(self, rotation_system):
        undamped = forbidden_instants_order2(rotation_system, 0.0, (0.0, 7.0))
        damped = forbidden_instants_order2(oscillator(-0.3, 1.0), 0.0, (0.0, 7.0))
        assert damped.forbidden == pytest.approx(undamped.forbidden)
        # verdicts flip exactly at and off the listed instants
        for t in damped.forbidden[1:]:
            system = oscillator(-0.3, 1.0)
            assert not joint_verdict(system, SamplingSchedule((0.0, t))).reachable
            assert joint_verdict(system, SamplingSchedule((0.0, t + np.pi / 2))).reachable

    def test_real_eigenvalues_not_applicable(self, diag_system):
        with pytest.raises(NotApplicableError, match="real distinct"):
            forbidden_instants_order2(diag_system, 0.0, (0.0, 5.0))

    def test_order_restriction(self, scalar_system):
        with pytest.raises(UnsupportedOrderError):
            forbidden_instants_order2(scalar_system, 0.0, (0.0, 5.0))

    @pytest.mark.parametrize(
        "t0, window",
        [(np.nan, (0.0, 5.0)), (np.inf, (0.0, 5.0)), (0.0, (np.nan, 5.0)), (0.0, (0.0, np.inf))],
    )
    def test_non_finite_arguments(self, rotation_system, t0, window):
        with pytest.raises(InfeasibleError, match="must be finite"):
            forbidden_instants_order2(rotation_system, t0, window)

    def test_guard_band_is_tight(self, rotation_system):
        result = forbidden_instants_order2(rotation_system, 0.0, (0.0, 4.0))
        assert 0.0 < result.guard_band < 1e-6
        inside = np.pi + 0.5 * result.guard_band
        outside = np.pi + 10.0 * result.guard_band
        assert not joint_verdict(rotation_system, SamplingSchedule((0.0, inside))).reachable
        assert joint_verdict(rotation_system, SamplingSchedule((0.0, outside))).reachable

    def test_verdict_sweep_over_k(self):
        # Midpoint checks skip the tolerance ambiguity band: with strong
        # damping the oscillation amplitude at large separations decays to
        # the band and the conditioning verdict is legitimately marginal.
        for a in (-1.0, -0.3, 0.0, 0.5):
            system = oscillator(a, 1.3)
            period = np.pi / 1.3
            for k in range(1, 11):
                at = joint_verdict(system, SamplingSchedule((0.0, k * period)))
                assert not at.reachable
                off = joint_verdict(
                    system, SamplingSchedule((0.0, (k + 0.5) * period))
                )
                if off.sigma_ratio > 1e-7:
                    assert off.reachable
                else:
                    assert a == -1.0  # only heavy damping ever lands here


class TestValidateUniform:
    def test_rotation_at_pi_fails(self, rotation_system):
        result = validate_uniform(rotation_system, np.pi)
        assert not result.passes
        assert result.first_failing_multiple == 1

    def test_rotation_at_one_passes(self, rotation_system):
        result = validate_uniform(rotation_system, 1.0)
        assert result.passes
        assert result.first_failing_multiple is None

    def test_subsampling_scan(self, rotation_system):
        result = validate_uniform(rotation_system, np.pi / 2, horizon=5)
        assert result.passes
        assert result.first_failing_multiple == 2
        assert result.first_failing_interval == pytest.approx(np.pi)

    def test_real_eigenvalues_always_pass(self, diag_system):
        for interval in (0.05, 0.3, 1.0, 2.5, 4.0):
            assert validate_uniform(diag_system, interval).passes

    def test_periodicity_in_the_rotation_factor(self):
        system = oscillator(-0.1, 1.0)
        for base in (0.7, 1.3, 2.9, np.pi):
            first = validate_uniform(system, base).passes
            second = validate_uniform(system, base + 2 * np.pi).passes
            assert first == second

    def test_bad_interval(self, rotation_system):
        with pytest.raises(InfeasibleError):
            validate_uniform(rotation_system, 0.0)


class TestSuggestSchedule:
    def test_rotation_prefers_quarter_turn(self, rotation_system):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=2, min_spacing=0.1)
        schedule, objective = suggest_schedule(rotation_system, spec)
        spacing = schedule.instants[1] - schedule.instants[0]
        assert spacing == pytest.approx(np.pi / 2, abs=1e-2)
        assert objective > 0.99
        # brute-force confirmation on the raw grid
        grid = np.arange(0.1, 2.0001, 0.025)
        from nusamp import mode_set, schedule_conditioning

        modes = mode_set(rotation_system)
        best = max(
            grid, key=lambda d: schedule_conditioning(modes, SamplingSchedule((0.0, d)))
        )
        assert abs(best - np.pi / 2) < 0.05

    def test_scalar_any_feasible(self, scalar_system):
        spec = ScheduleSearchSpec(window=(0.0, 1.0), count=3, min_spacing=0.2)
        schedule, objective = suggest_schedule(scalar_system, spec)
        assert objective == pytest.approx(1.0)
        assert schedule.instants == pytest.approx((0.0, 0.2, 0.4))

    def test_diag_prefers_wide_spacing(self, diag_system):
        spec = ScheduleSearchSpec(window=(0.0, 1.0), count=2, min_spacing=0.1)
        schedule, objective = suggest_schedule(diag_system, spec)
        assert schedule.instants[1] - schedule.instants[0] == pytest.approx(1.0, abs=1e-9)
        # grid sweep confirms the objective grows with the spacing
        from nusamp import mode_set, schedule_conditioning

        modes = mode_set(diag_system)
        values = [
            schedule_conditioning(modes, SamplingSchedule((0.0, d)))
            for d in np.arange(0.1, 1.0001, 0.05)
        ]
        assert all(x < y + 1e-12 for x, y in zip(values, values[1:]))

    def test_output_passes_verdict_and_is_reproducible(self):
        for _ in range(10):
            n = int(RNG.integers(1, 4))
            from conftest import random_minimal_system

            system = random_minimal_system(RNG, n)
            spec = ScheduleSearchSpec(window=(0.0, 3.0), count=n, min_spacing=0.2)
            first = suggest_schedule(system, spec)
            second = suggest_schedule(system, spec)
            assert first[0].instants == second[0].instants
            assert first[1] == second[1]
            assert joint_verdict(system, first[0]).reachable

    def test_infeasible_spec(self):
        for window, count, spacing in [
            ((0.0, 0.5), 4, 0.3),
            ((0.0, 2.0), 2, float("nan")),
            ((0.0, 2.0), 1, float("inf")),
            ((0.0, 2.0), 2, -float("inf")),
            ((0.0, 2.0), 2.0, 0.1),
            ((0.0, 2.0), 2.5, 0.1),
            ((0.0, 2.0), True, 0.1),
        ]:
            with pytest.raises(InfeasibleError):
                ScheduleSearchSpec(window=window, count=count, min_spacing=spacing)

    def test_numpy_integer_count(self):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=np.int64(2), min_spacing=0.1)
        assert spec.count == 2

    def test_step_lost_in_rounding(self, rotation_system):
        # ulp(1e16) is 2, so a grid step of 0.25 leaves the instants equal
        spec = ScheduleSearchSpec(window=(1e16, 1e16 + 8.0), count=2, min_spacing=1.0)
        with pytest.raises(DimensionError, match="strictly increasing"):
            suggest_schedule(rotation_system, spec)

    def test_stalled_step_terminates(self, rotation_system):
        # 1e16 + 4 plus a step of 1 rounds back to itself: the chain stalls
        spec = ScheduleSearchSpec(window=(1e16, 1e16 + 64.0), count=2, min_spacing=4.0)
        schedule, _ = suggest_schedule(rotation_system, spec)
        assert schedule.instants == (1e16, 1e16 + 4.0)

    def test_count_below_order(self, rotation_system):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=1, min_spacing=0.1)
        with pytest.raises(InfeasibleError, match="below the system order"):
            suggest_schedule(rotation_system, spec)

    # Results recorded with the one-candidate-at-a-time search the grid
    # kernel replaced; the batched search must reproduce them bit for bit.
    @pytest.mark.parametrize(
        "system, window, count, spacing, instants, objective",
        [
            (
                Realization([[-0.7]], [1.0], [1.0]),
                (0.0, 1.0), 3, 0.15,
                (0.0, 0.15, 0.3),
                1.0,
            ),
            (
                oscillator(-0.3, 1.0),
                (0.0, 2.5), 3, 0.07,
                (0.0, 1.448671875000001, 1.518671875000001),
                0.6360064067364166,
            ),
            (
                Realization([[0.0, 0.0], [0.0, -1.0]], [1.0, 1.0], [1.0, 1.0]),
                (0.0, 1.0), 2, 0.1,
                (0.0, 1.0000000000000004),
                0.21988684450667884,
            ),
            (
                ORDER3,
                (0.0, 2.2), 4, 0.2,
                (0.0, 1.0539062500000003, 2.0000000000000004, 2.2000000000000006),
                0.09505088044419804,
            ),
            (
                ORDER4,
                (0.0, 3.5), 4, 0.4,
                (0.0, 1.3062500000000001, 2.731250000000001, 3.5000000000000004),
                0.06892079089455981,
            ),
        ],
    )
    def test_pinned_results(self, system, window, count, spacing, instants, objective):
        spec = ScheduleSearchSpec(window=window, count=count, min_spacing=spacing)
        schedule, achieved = suggest_schedule(system, spec)
        assert schedule.instants == instants
        assert achieved == objective
        assert achieved == schedule_conditioning(mode_set(system), schedule)

    @pytest.mark.parametrize(
        "window, count, spacing, instants",
        [((0.0, 2.0), 3, 0.1, (0.0, 0.1, 0.2)), ((0.5, 30.0), 2, 0.01, (0.5, 0.51))],
    )
    def test_ties_keep_the_lowest_schedule(self, monkeypatch, window, count, spacing, instants):
        # A constant objective makes every candidate tie, in every chunk.
        def constant(matrix):
            matrix = np.asarray(matrix)
            return np.ones(matrix.shape[:-2]) if matrix.ndim > 2 else 1.0

        monkeypatch.setattr(numerics, "column_normalized_sigma_ratio", constant)
        spec = ScheduleSearchSpec(window=window, count=count, min_spacing=spacing)
        schedule, achieved = suggest_schedule(oscillator(-0.3, 1.0), spec)
        assert schedule.instants == instants
        assert achieved == 1.0


class TestBatchedGrid:
    @pytest.mark.parametrize(
        "lo, hi, spacing, head, tail",
        [
            (0.0, 1.0, 0.15, 1, 2),
            (0.0, 2.5, 0.07, 2, 1),
            (0.3, 2.2, 0.2, 3, 1),
            (0.0, 3.5, 0.4, 4, 0),
            (-1.0, 2.0, 0.5, 4, 1),
            # far from zero, where every step addition rounds
            (1e15, 1e15 + 10.0, 1.2, 2, 1),
            (1e14, 1e14 + 30.0, 0.9, 3, 0),
        ],
    )
    def test_grid_matches_scalar_enumeration(self, lo, hi, spacing, head, tail):
        from nusamp.scheduler import _grid_blocks

        blocks = list(_grid_blocks(lo, hi, spacing, spacing / 4.0, head, tail))
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert rows == reference_grid(lo, hi, spacing, head, tail)

    @pytest.mark.parametrize(
        "system, lo, hi, spacing, tail",
        [
            (oscillator(-0.3, 1.0), 0.0, 2.5, 0.07, 1),
            (ORDER4, 0.0, 3.5, 0.4, 0),
        ],
    )
    def test_batched_kernel_equals_scalar(self, system, lo, hi, spacing, tail):
        from nusamp.scheduler import _grid_blocks

        modes = mode_set(system)
        blocks = _grid_blocks(lo, hi, spacing, spacing / 4.0, system.n, tail)
        rows = np.concatenate(list(blocks))
        assert len(rows) > 100
        batched = column_normalized_sigma_ratio(
            mode_matrix(modes, rows[:, -1:] - rows[:, ::-1])
        )
        scalar = [
            schedule_conditioning(modes, SamplingSchedule(tuple(row))) for row in rows.tolist()
        ]
        assert batched.shape == (len(rows),)
        assert np.array_equal(batched, scalar)

    def test_overflowing_row_raises(self):
        modes = ModeSet(((0.0, 1), (2.0, 1)))
        alphas = np.array([[0.0, 0.5], [0.0, 400.0], [0.0, 1.0]])
        assert np.all(np.isfinite(mode_matrix(modes, alphas[[0, 2]])))
        with pytest.raises(NumericRangeError), np.errstate(over="ignore", invalid="ignore"):
            mode_matrix(modes, alphas)

    def test_sigma_ratio_shapes(self):
        stack = np.stack([np.eye(2), np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]]])
        ratios = column_normalized_sigma_ratio(stack)
        assert ratios.shape == (3,)
        assert ratios[0] == 1.0 and ratios[1] == 0.0 and ratios[2] < 1e-15
        single = column_normalized_sigma_ratio(np.eye(2))
        assert type(single) is float and single == 1.0
        for shape in ((3, 1), (1, 3)):
            nested = column_normalized_sigma_ratio(stack.reshape(shape + (2, 2)))
            assert np.array_equal(nested, ratios.reshape(shape))
