"""Forbidden instants, uniform-interval validation and schedule search."""

import io
import math
from dataclasses import replace
from pathlib import Path

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
    schedule_conditioning,
    suggest_schedule,
    validate_uniform,
)
from nusamp import Tolerances, numerics, scheduler
from nusamp.cli import load_system_document, main
from nusamp.numerics import column_normalized_sigma_ratio
from conftest import count_calls

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


# Guard-band cases: every damping, frequency and tolerance below in 15
# combinations, the heavily damped pair whose whole quarter period fails,
# and the corpus system with its own tolerance record.
GUARD_CASES = [
    ((-1.0, -0.3, 0.0, 0.2, 0.5)[i % 5], (1.0, 2.0, 0.3, 5.0)[i % 4], (1e-9, 1e-6, 1e-3)[i % 3])
    for i in range(15)
] + [(-1.0, 0.3, 1e-3)]


def guard_systems():
    systems = [
        pytest.param(
            replace(oscillator(a, b), tolerances=Tolerances(singularity=tol)), id=f"{a}-{b}-{tol}"
        )
        for a, b, tol in GUARD_CASES
    ]
    document = load_system_document(
        str(Path(__file__).parent / "corpus" / "with_tolerances.json")
    )
    systems.append(
        pytest.param(
            Realization(document.A, document.b, document.c, document.tolerances),
            id="with_tolerances",
        )
    )
    return systems


def bisected_guard_band(modes, period, tol):
    """The guard band by scalar bisection on rows (0, period + offset)."""
    span = period / 4.0

    def fails(offset):
        return schedule_conditioning(modes, SamplingSchedule((0.0, period + offset))) <= tol

    low, high = 0.0, span
    if fails(high):
        return span
    for _ in range(60):
        mid = 0.5 * (low + high)
        if mid <= low or mid >= high:
            break
        if fails(mid):
            low = mid
        else:
            high = mid
    return high


def reference_forbidden(t0, window, period):
    """The forbidden list by the scalar loop, one multiple at a time."""
    lo, hi = sorted(window)
    slack = 4 * math.ulp(max(abs(t0), abs(lo), abs(hi)))
    k = max(0, math.ceil((lo - t0 - slack) / period))
    points = []
    while t0 + k * period <= hi + slack:
        if t0 + k * period >= lo - slack:
            points.append(t0 + k * period)
        k += 1
    return tuple(points)


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

    def test_window_list_is_bounded(self, rotation_system):
        # Instants k*pi for k = 0..MAX fill the list; one more period raises.
        bound = scheduler.MAX_FORBIDDEN_INSTANTS
        full = forbidden_instants_order2(rotation_system, 0.0, (0.0, (bound - 0.5) * np.pi))
        assert len(full.forbidden) == bound
        with pytest.raises(InfeasibleError, match=f"holds {bound + 1} forbidden instants"):
            forbidden_instants_order2(rotation_system, 0.0, (0.0, (bound + 0.5) * np.pi))

    def test_guard_band_is_tight(self, rotation_system):
        result = forbidden_instants_order2(rotation_system, 0.0, (0.0, 4.0))
        assert 0.0 < result.guard_band < 1e-6
        inside = np.pi + 0.5 * result.guard_band
        outside = np.pi + 10.0 * result.guard_band
        assert not joint_verdict(rotation_system, SamplingSchedule((0.0, inside))).reachable
        assert joint_verdict(rotation_system, SamplingSchedule((0.0, outside))).reachable

    @pytest.mark.parametrize(
        "b, t0, window",
        [
            (1.0, 0.25, (0.0, 10.0)),
            (2.0, -3.0, (7.0, -1.0)),
            (0.3, 0.0, (0.0, 1000.0)),
            (1.0, 1e12, (1e12, 1e12 + 500.0)),
            (5.0, -2e14, (-2e14 + 3.0, -2e14 + 40.0)),
            (1.0, 0.0, (np.pi, 3 * np.pi)),
            # the quotient for the count rounds down at the window end
            (2.0, -1.605e14, (-1.605e14, -1.605e14 + 6.0)),
            (5.0, 1.651e14, (1.651e14, 1.651e14 + 232.0)),
        ],
    )
    def test_list_matches_the_scalar_loop(self, b, t0, window):
        result = forbidden_instants_order2(oscillator(0.0, b), t0, window)
        assert result.forbidden == reference_forbidden(t0, window, result.period)
        assert all(type(t) is float for t in result.forbidden)

    @pytest.mark.parametrize("t0", [0.0, 0.25, 1e12, 1e14, 1e15])
    def test_window_edges_hold_far_from_zero(self, rotation_system, t0):
        # (t0, t0 + 10) holds the multiples 0..3 of pi past t0 wherever t0
        # lies; an edge slack relative to |t0| once let 1e14 list 36.
        result = forbidden_instants_order2(rotation_system, t0, (t0, t0 + 10.0))
        assert len(result.forbidden) == 4
        assert all(t0 <= t <= t0 + 10.0 for t in result.forbidden)

    def test_window_too_far_from_t0(self, rotation_system):
        # The window offset from t0 overflows to inf before it is counted.
        with pytest.raises(InfeasibleError, match="too far from t0"):
            forbidden_instants_order2(rotation_system, -1e308, (1e308, 1e308))

    def test_instants_far_from_zero_are_refused(self):
        # ulp(2.6e16) is 4: t0 + k*period rounds the 1.18-periods to repeats.
        system = oscillator(0.0, np.pi / 1.1834222919420114)
        t0 = 2.609712165907245e16
        with pytest.raises(InfeasibleError, match="cannot be resolved"):
            forbidden_instants_order2(system, t0, (t0, 2.6097121659072484e16))

    def test_lists_near_the_spacing_limit_are_increasing(self):
        rng = np.random.default_rng(1610)
        margin = scheduler.FORBIDDEN_SPACING_MARGIN
        outcomes = set()
        for _ in range(200):
            period = 10.0 ** rng.uniform(-1.0, 1.0)
            # Place t0 where the period spans margin/64 .. 8*margin spacings.
            spacing = period / (margin * 2.0 ** rng.uniform(-6.0, 3.0))
            t0 = float(rng.choice((-1.0, 1.0)) * spacing / np.finfo(float).eps * rng.uniform(1.0, 2.0))
            window = (t0, t0 + period * rng.uniform(1.0, 50.0))
            try:
                result = forbidden_instants_order2(oscillator(0.0, np.pi / period), t0, window)
            except InfeasibleError as exc:
                assert "cannot be resolved" in str(exc)
                outcomes.add("refused")
                continue
            instants = np.array(result.forbidden)
            assert len(instants) >= 1 and np.all(np.diff(instants) > 0.0)
            outcomes.add("listed")
        assert outcomes == {"refused", "listed"}

    def test_real_pair_is_told_apart_by_its_imaginary_part(self):
        slow = Realization([[0.0, -1e-10], [1e-10, 0.0]], [1.0, 0.0], [1.0, 0.0])
        # Kept apart by a fine clustering tolerance, the pair +-1e-10j is
        # oscillatory whatever the singularity and rank tolerances are.
        for singularity in (1e-9, 1e-3):
            tolerances = Tolerances(singularity=singularity, cluster=1e-12, rank=1e-3)
            result = forbidden_instants_order2(replace(slow, tolerances=tolerances), 0.0, (0.0, 1.0))
            assert result.period == pytest.approx(np.pi * 1e10, rel=1e-12)
        # The default clustering merges it into one double eigenvalue.
        with pytest.raises(NotApplicableError, match="not a complex conjugate pair"):
            forbidden_instants_order2(slow, 0.0, (0.0, 1.0))

    def test_query_makes_at_most_sixteen_kernel_calls(self, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        for system in (oscillator(0.0, 1.0), oscillator(-0.3, 1.0), oscillator(0.5, 0.3)):
            calls.clear()
            forbidden_instants_order2(system, 0.0, (0.0, 10.0))
            assert 1 <= calls["schedule_conditioning"] <= 16

    @pytest.mark.parametrize("system", [oscillator(0.0, 1.0), oscillator(-0.3, 1.0)])
    def test_guard_band_depends_on_the_separation_only(self, system):
        bands = {
            forbidden_instants_order2(system, t0, (0.0, 1.0)).guard_band
            for t0 in (0.0, 0.25, 7.3, 1e15, 1e300)
        }
        assert len(bands) == 1
        assert 0.0 < bands.pop() < 1e-8

    def test_sectioning_stops_when_the_bracket_closes(self, rotation_system, monkeypatch):
        # Just below the quarter-period ratio the guard band is the whole
        # quarter but for an ulp; the bracket closes before the 15th round.
        span = np.pi / 4.0
        modes = rotation_system.modes
        ratio = schedule_conditioning(modes, SamplingSchedule((0.0, np.pi + span)))
        system = replace(rotation_system, tolerances=Tolerances(singularity=ratio * (1.0 - 1e-15)))
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        guard = forbidden_instants_order2(system, 0.0, (0.0, 1.0)).guard_band
        assert span - 1e-14 < guard <= span
        assert calls["schedule_conditioning"] <= 15

    @pytest.mark.parametrize("system", guard_systems())
    def test_guard_band_matches_bisection(self, system):
        result = forbidden_instants_order2(system, 0.0, (0.0, 1.0))
        span = result.period / 4.0
        reference = bisected_guard_band(system.modes, result.period, system.tolerances.singularity)
        assert abs(result.guard_band - reference) <= span * 2.0**-59
        assert 0.0 < result.guard_band <= span

    @pytest.mark.parametrize("system", guard_systems())
    def test_failing_offsets_start_the_quarter_period(self, system):
        # The sectioning is exact when the failing offsets form one interval
        # from 0; on a fine grid of the quarter period they do.
        period = forbidden_instants_order2(system, 0.0, (0.0, 1.0)).period
        offsets = np.linspace(0.0, period / 4.0, 4097)
        rows = np.column_stack((np.zeros(offsets.size), period + offsets))
        fails = schedule_conditioning(system.modes, rows) <= system.tolerances.singularity
        count = int(np.count_nonzero(fails))
        assert count >= 1
        assert fails[:count].all()

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

    @pytest.mark.parametrize("horizon", [2.5, "3", True, 0])
    def test_bad_horizon(self, rotation_system, horizon):
        with pytest.raises(InfeasibleError, match="horizon"):
            validate_uniform(rotation_system, 1.0, horizon=horizon)

    def test_horizon_above_the_limit_is_refused_at_once(self, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "joint_verdict")])
        system = Realization(np.diag([0.0, -1.0]), [1.0, 1.0], [1.0, 1.0])
        validate_uniform(system, 0.5, horizon=scheduler.MAX_UNIFORM_HORIZON)
        calls.clear()
        with pytest.raises(InfeasibleError, match="above the limit 10000"):
            validate_uniform(system, 0.5, horizon=1_000_000_000)
        assert not calls

    def test_numpy_integer_horizon(self, rotation_system):
        result = validate_uniform(rotation_system, np.pi / 2, horizon=np.int64(3))
        assert result.first_failing_multiple == 2

    def test_first_multiple_is_the_reports_ratio(self, rotation_system, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        result = validate_uniform(rotation_system, np.pi)
        assert result.first_failing_multiple == 1
        assert calls["schedule_conditioning"] == 0

    def test_infinite_multiple_raises(self, rotation_system):
        # 2 * 1e308 overflows: that uniform schedule has an infinite instant.
        with pytest.raises(DimensionError, match="must be finite"):
            validate_uniform(rotation_system, 1e308)

    def test_scan_stops_before_an_overflowing_multiple(self):
        # The pair 80 +- j fails at T = 1 already; from j = 9 on the mode
        # matrix overflows, so a scan past the first failure would raise.
        system = Realization([[80.0, -1.0], [1.0, 80.0]], [1.0, 0.0], [1.0, 0.0])
        modes = system.modes
        with pytest.raises(NumericRangeError):
            schedule_conditioning(modes, SamplingSchedule((0.0, 9.0)))
        result = validate_uniform(system, 1.0)
        assert not result.passes
        assert result.first_failing_multiple == 1


class TestSuggestSchedule:
    def test_rotation_prefers_quarter_turn(self, rotation_system):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=2, min_spacing=0.1)
        schedule, objective = suggest_schedule(rotation_system, spec)
        spacing = schedule.instants[1] - schedule.instants[0]
        assert spacing == pytest.approx(np.pi / 2, abs=1e-2)
        assert objective > 0.99
        # brute-force confirmation on the raw grid
        grid = np.arange(0.1, 2.0001, 0.025)
        modes = rotation_system.modes
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
        modes = diag_system.modes
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

    def test_count_above_the_limit_is_refused_at_once(self, tmp_path, monkeypatch):
        limit = scheduler.MAX_SCHEDULE_INSTANTS
        ScheduleSearchSpec(window=(0.0, 1.0), count=limit, min_spacing=1.0 / limit)
        path = tmp_path / "scalar.json"
        path.write_text('{"order": 1, "A": [-1], "b": [1], "c": [1]}')
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        out, err = io.StringIO(), io.StringIO()
        argv = ["suggest", str(path), "--window", "0,1", "--count", "3000000",
                "--min-spacing", str(1 / 3e6)]
        assert main(argv, out=out, err=err) == 1
        assert err.getvalue() == "error: count 3000000 is above the limit 100000\n"
        assert not calls

    def test_refinement_with_no_probe_in_bounds(self, monkeypatch):
        # The grid's only row leaves no room to move: each refinement step
        # finds both probes out of bounds and evaluates nothing.
        system = Realization(np.diag([-1.0, -2.0, -3.0]), np.ones(3), np.ones(3))
        spec = ScheduleSearchSpec(window=(0.0, 0.4), count=3, min_spacing=0.2)
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        schedule, _ = suggest_schedule(system, spec)
        assert schedule.instants == (0.0, 0.2, 0.4)
        assert calls["schedule_conditioning"] == 1

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
        assert achieved == schedule_conditioning(system.modes, schedule)
        # The recorded objective moves by a few ulps between BLAS kernels.
        assert math.isclose(achieved, objective, rel_tol=1e-13)

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

        modes = system.modes
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
        assert np.array_equal(schedule_conditioning(modes, rows), scalar)

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
