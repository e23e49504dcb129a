"""Forbidden instants, uniform-interval validation and schedule search."""

import io
import itertools
import json
import math
import re
from collections import Counter
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
from nusamp import Tolerances, criterion, numerics, scheduler
from nusamp.cli import load_system_document, main
from nusamp.numerics import column_normalized_sigma_ratio
from conftest import BAD_REALS, GOOD_REALS, count_calls, random_minimal_system

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
# the corpus system with its own tolerance record and the corpus's damped
# rotation.
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
    for name in ("with_tolerances", "damped_rotation"):
        document = load_system_document(str(Path(__file__).parent / "corpus" / f"{name}.json"))
        systems.append(
            pytest.param(
                Realization(document.A, document.b, document.c, document.tolerances), id=name
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


def reference_end(lo, hi, spacing):
    """The last index m of the search lattice with lo + m * spacing / 256
    <= hi, by a scan one index at a time."""
    unit = spacing / 256.0
    end = 0
    while lo + (end + 1) * unit <= hi:
        end += 1
    return end


def reference_grid(lo, hi, spacing, head, tail):
    """The search grid's rows, in grid steps of 64 lattice units, by plain
    enumeration: 0 first, gaps of at least 4 (one spacing), and room left at
    the window end for ``tail`` more instants; in lexicographic order."""
    last = (reference_end(lo, hi, spacing) - 256 * tail) // 64
    return [
        (0, *rest)
        for rest in itertools.combinations(range(4, last + 1), head - 1)
        if all(b - a >= 4 for a, b in zip((0, *rest), rest))
    ]


def lattice_instants(lo, spacing, rows):
    """The instants lo + m * spacing / 256 of lattice-unit index rows."""
    return lo + np.asarray(rows) * (spacing / 256.0)


def latest_clearing(later, spacing):
    """The latest float x with ``later - x >= spacing``, by plain bisection
    over the bit patterns of all floats from -inf up to ``later``."""

    def key(x):
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & (2**63 - 1))

    def value(k):
        x = float(np.int64(abs(k)).view(np.float64))
        return x if k >= 0 else -x

    low, high = key(-math.inf), key(later)
    while high - low > 1:
        middle = (low + high) // 2
        if later - value(middle) >= spacing:
            low = middle
        else:
            high = middle
    return value(low)


def greedy_from_end(hi, count, spacing):
    """The latest schedule of ``count`` instants ending at hi with no
    computed gap below spacing: each instant the latest float that clears
    the next one."""
    t = [hi]
    for _ in range(count - 1):
        t.insert(0, latest_clearing(t[0], spacing))
    return t


def meet_spec(instants, lo, hi, spacing):
    """The instants moved as the search's final check moves them, or None
    when the first one falls below lo."""
    t = list(instants)
    for i in range(1, len(t)):
        while t[i] - t[i - 1] < spacing:
            t[i] = max(math.nextafter(t[i], math.inf), t[i] + math.ulp(spacing),
                       t[i - 1] + spacing)
    t[-1] = min(t[-1], hi)
    for i in reversed(range(1, len(t))):
        if t[i] - t[i - 1] < spacing:
            t[i - 1] = latest_clearing(t[i], spacing)
    return t if t[0] >= lo else None


def exhaustive_search(system, spec):
    """The search as it was before its coarse-to-fine grid: every grid row,
    the first maximum winning, then the same three refinement passes on the
    lattice and the final check."""
    modes, n = system.modes, system.n
    lo, hi = spec.window
    spacing = spec.min_spacing
    tail = spec.count - n
    grid = 64 * np.array(reference_grid(lo, hi, spacing, n, tail))
    values = schedule_conditioning(modes, lattice_instants(lo, spacing, grid))
    k = int(np.argmax(values))
    best_obj, refined = float(values[k]), grid[k].tolist()
    end = reference_end(lo, hi, spacing)
    for step in (16, 4, 1):
        for i in range(1, n):
            lower = refined[i - 1] + 256
            upper = refined[i + 1] - 256 if i + 1 < n else end - 256 * tail
            for _ in range(8):
                probes = [m for m in (refined[i] - step, refined[i] + step) if lower <= m <= upper]
                rows = [refined[:i] + [m] + refined[i + 1 :] for m in probes]
                winner = None
                for m, row in zip(probes, rows):
                    value = schedule_conditioning(modes, lattice_instants(lo, spacing, row))
                    if value > best_obj:
                        best_obj, winner = value, m
                if winner is None:
                    break
                refined[i] = winner
    indices = refined + [refined[-1] + 256 * j for j in range(1, tail + 1)]
    instants = lattice_instants(lo, spacing, indices).tolist()
    checked = meet_spec(instants, lo, hi, spacing)
    if checked != instants:
        best_obj = schedule_conditioning(modes, SamplingSchedule(tuple(checked)))
    return tuple(checked), best_obj


def assert_meets_spec(system, spec, result):
    """The search's contract, in floats: the instants lie in the window, no
    computed gap is below min_spacing, and the reported objective is the
    kernel's on the returned schedule, bit for bit."""
    schedule, objective = result
    t = schedule.instants
    lo, hi = spec.window
    assert len(t) == spec.count
    assert lo <= t[0] and t[-1] <= hi, (spec, t)
    assert all(b - a >= spec.min_spacing for a, b in zip(t, t[1:])), (spec, t)
    assert objective == schedule_conditioning(system.modes, schedule)


# A window that holds two instants 1.5 apart in floats, (lo, hi) itself,
# but no lattice row: lo + 1.5 rounds one float step past hi.
LATTICE_GAP_WINDOW = (3 * 2.0**-53, 1.5 + 2.0**-52)
# A window whose lattice holds no row of four instants 0.2 apart, nor does
# any schedule: walked back from 0.9 at spacing 0.2, the first instant
# falls below 0.3.
CROWDED_WINDOW = (0.3, 0.9)


def random_search_specs(count):
    """Seeded (system, spec) pairs: orders 2-4, n or n+1 instants, windows
    from tight to several spacings of slack, starting near and far from 0."""
    rng = np.random.default_rng(1414)
    cases = []
    for i in range(count):
        n = 2 + i % 3
        system = random_minimal_system(rng, n)
        instants = n + (i // 3) % 2
        spacing = float(rng.uniform(0.15, 0.6))
        slack = rng.uniform(0.0, 0.5) if i % 2 else rng.uniform(2.0, 7.0)
        lo = (0.0, -3.7, 1e3, 1e6)[(i // 6) % 4]
        window = (lo, lo + ((instants - 1) + slack) * spacing)
        spec = ScheduleSearchSpec(window=window, count=instants, min_spacing=spacing)
        cases.append(pytest.param(system, spec, id=f"o{n}-c{instants}-lo{lo:g}-{i}"))
    return cases


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

    def test_query_kernel_calls_are_bounded_by_the_key_range(self, monkeypatch):
        # A quarter period holds fewer than 2**51 floats, so the search
        # takes at most 51 doubling and 51 bisection steps after its check
        # at the quarter period.
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        for system in (oscillator(0.0, 1.0), oscillator(-0.3, 1.0), oscillator(0.5, 0.3)):
            calls.clear()
            forbidden_instants_order2(system, 0.0, (0.0, 10.0))
            assert 1 <= calls["schedule_conditioning"] <= 2 * 51 + 1

    @pytest.mark.parametrize("system", [oscillator(0.0, 1.0), oscillator(-0.3, 1.0)])
    def test_guard_band_depends_on_the_separation_only(self, system):
        # Each query runs on a copy of its own, so each searches its band.
        bands = {
            forbidden_instants_order2(replace(system), t0, (0.0, 1.0)).guard_band
            for t0 in (0.0, 0.25, 7.3, 1e15, 1e300)
        }
        assert len(bands) == 1
        assert 0.0 < bands.pop() < 1e-8

    def test_guard_band_is_sectioned_once_per_realization(self, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        system = oscillator(-0.3, 1.0)
        first = forbidden_instants_order2(system, 0.0, (0.0, 10.0))
        assert calls["schedule_conditioning"] >= 1
        calls.clear()
        second = forbidden_instants_order2(system, 5.5, (-3.0, 40.0))
        assert not calls
        assert second.guard_band == first.guard_band
        assert second.forbidden != first.forbidden

    def test_other_realizations_section_their_own_guard_band(self, monkeypatch):
        system = oscillator(0.0, 1.0)
        band = forbidden_instants_order2(system, 0.0, (0.0, 1.0)).guard_band
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        # A replaced tolerance moves the band; equal matrices give it again.
        loose = replace(system, tolerances=Tolerances(singularity=1e-3))
        same = Realization(system.A, system.b, system.c)
        bands = [forbidden_instants_order2(other, 0.0, (0.0, 1.0)).guard_band for other in (loose, same)]
        assert calls["schedule_conditioning"] >= 2
        assert bands[0] > band and bands[1] == band
        calls.clear()
        for other in (loose, same, system):
            forbidden_instants_order2(other, 0.0, (0.0, 1.0))
        assert not calls

    def test_guard_band_just_short_of_the_quarter_period(self, rotation_system):
        # Just below the quarter-period ratio the guard band is the whole
        # quarter but for a few ulps.
        span = np.pi / 4.0
        modes = rotation_system.modes
        ratio = schedule_conditioning(modes, SamplingSchedule((0.0, np.pi + span)))
        system = replace(rotation_system, tolerances=Tolerances(singularity=ratio * (1.0 - 1e-15)))
        guard = forbidden_instants_order2(system, 0.0, (0.0, 1.0)).guard_band
        assert span - 1e-14 < guard <= span

    @pytest.mark.parametrize("system", guard_systems())
    def test_guard_band_matches_bisection(self, system):
        # Compared as separations: the bisected offsets are finer than the
        # float spacing at the period.  Near a crossing the computed verdict
        # can flip back and forth, and where the two searches land on
        # different crossings each end must still pass after a failing float.
        result = forbidden_instants_order2(system, 0.0, (0.0, 1.0))
        period, tol = result.period, system.tolerances.singularity
        end = period + result.guard_band
        reference = period + bisected_guard_band(system.modes, period, tol)
        if end != reference:
            for separation in (end, reference):
                rows = np.array([[0.0, separation], [0.0, math.nextafter(separation, -math.inf)]])
                passes = schedule_conditioning(system.modes, rows) > tol
                assert passes.tolist() == [True, False], separation
        assert 0.0 < result.guard_band <= period / 4.0

    def test_guard_band_ends_on_the_first_passing_float(self):
        # The search ends on a passing separation whose float predecessor
        # fails, whatever the last bits of the sigma ratio, and the band is
        # that separation's exact offset from the period.  Only the heavily
        # damped pair fails over the whole quarter period.
        whole_quarter = []
        for param in guard_systems():
            (system,) = param.values
            result = forbidden_instants_order2(system, 0.0, (0.0, 1.0))
            if result.guard_band == result.period / 4.0:
                whole_quarter.append(param.id)
                continue
            end = result.period + result.guard_band
            rows = np.array([[0.0, end], [0.0, math.nextafter(end, -math.inf)]])
            passes = schedule_conditioning(system.modes, rows) > system.tolerances.singularity
            assert passes.tolist() == [True, False], param.id
            assert end - result.period == result.guard_band, param.id
        assert whole_quarter == ["-1.0-0.3-0.001"]

    @pytest.mark.parametrize("system", guard_systems())
    def test_failing_offsets_start_the_quarter_period(self, system):
        # The failing offsets form one interval from 0 on a fine grid of the
        # quarter period: the search has one band to find.
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


def sequential_uniform(system, interval, horizon):
    """validate_uniform's report and first failing multiple by the scan one
    multiple at a time, or the class and message of the error that scan
    raises first, which names the multiple and the interval."""
    n, tol = system.n, system.tolerances.singularity

    def uniform(step):
        return SamplingSchedule(tuple(i * step for i in range(n)))

    j = 1
    try:
        report = joint_verdict(system, uniform(interval))
        for j in range(1, horizon + 1):
            ratio = report.sigma_ratio
            if j > 1:
                ratio = schedule_conditioning(system.modes, uniform(j * interval))
            if ratio <= tol:
                return report, j
        return report, None
    except Exception as exc:
        return type(exc), f"uniform schedule at multiple {j} of interval {interval!r}: {exc}"


def uniform_scan_cases():
    """Seeded realizations of orders 1-12, stable and unstable, at intervals
    from fine to huge, with horizons on and around the stacked blocks'
    boundaries (2 + 16 + 32 + ... multiples)."""
    rng = np.random.default_rng(1717)
    horizons = (1, 2, 17, 18, 49, 50, 113, 241, 497, 600)
    cases = []
    for i in range(48):
        n = 1 + i % 12
        system = random_minimal_system(rng, n)
        if i % 3 == 1:
            system = Realization(-system.A, system.b, system.c)
        interval = float(10.0 ** rng.uniform(-3.0, 0.5)) if i % 8 else float(10.0 ** rng.uniform(300, 306))
        cases.append(pytest.param(system, interval, horizons[i % len(horizons)], id=f"o{n}-{i}"))
    # Oscillators pass long scans; 1e307 overflows the instants at j = 18.
    for a, b, interval in [(0.0, 1.0, 1.0), (-0.01, 2.0, 0.37), (0.05, 0.7, 1.0),
                           (80.0, 1.0, 0.37), (0.0, 1.0, 1e307)]:
        cases.append(pytest.param(oscillator(a, b), interval, 600, id=f"osc-{a}-{b}-{interval:g}"))
    cases.append(pytest.param(GROWING_PAIR, GROWING_PAIR_INTERVAL, 600, id="growing-pair"))
    cases.append(pytest.param(SADDLE, 10.0, 600, id="saddle"))
    return cases


# Modes 1 and -1: the normalized mode matrix stays near the identity while
# its entries grow, until e^(j*10) overflows at j = 71.
SADDLE = Realization(np.diag([1.0, -1.0]), [1.0, 1.0], [1.0, 1.0])
# Modes 10 and +-j at T = 11*pi/100: the multiple 100 is a forbidden
# separation, and from 103 on e^(10 * 2jT) overflows the mode matrix.
GROWING_PAIR = Realization(
    [[10.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]
)
GROWING_PAIR_INTERVAL = 11 * math.pi / 100


class TestStackedUniformScan:
    """The stacked scan gives the sequential scan's result and errors."""

    @pytest.mark.parametrize("chunk", [1, 7, 10**6])
    @pytest.mark.parametrize("system, interval, horizon", uniform_scan_cases())
    def test_matches_the_sequential_scan(self, monkeypatch, chunk, system, interval, horizon):
        monkeypatch.setattr(scheduler, "SEARCH_CHUNK", chunk)
        expected = sequential_uniform(system, interval, horizon)
        try:
            result = validate_uniform(system, interval, horizon)
        except Exception as exc:
            assert (type(exc), str(exc)) == expected
            return
        assert (result.report, result.first_failing_multiple) == expected
        assert result.passes == result.report.reachable

    def test_cases_reach_every_outcome(self):
        outcomes = set()
        for case in uniform_scan_cases():
            system, interval, horizon = case.values
            expected = sequential_uniform(system, interval, horizon)
            if isinstance(expected[0], type):
                outcomes.add(expected[0].__name__)
            elif expected[1] is None:
                outcomes.add("passes")
            else:
                outcomes.add("first" if expected[1] == 1 else "late" if expected[1] > 17 else "early")
        assert outcomes == {"passes", "first", "early", "late", "DimensionError", "NumericRangeError"}

    def test_a_block_that_raises_is_rescanned(self, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        # Blocks 2-17 and 18-49 pass; block 50-113 overflows past the
        # failing 100, so 50..100 are rescanned one at a time.
        result = validate_uniform(GROWING_PAIR, GROWING_PAIR_INTERVAL, horizon=600)
        assert result.first_failing_multiple == 100
        assert calls["schedule_conditioning"] == 3 + 51
        # Nothing fails before the overflow: the scan raises its error.
        with pytest.raises(NumericRangeError, match="mode matrix overflowed"):
            validate_uniform(SADDLE, 10.0, horizon=600)
        assert validate_uniform(SADDLE, 10.0, horizon=70).first_failing_multiple is None

    def test_long_horizon_takes_few_calls(self, rotation_system, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        result = validate_uniform(rotation_system, 1.0, horizon=scheduler.MAX_UNIFORM_HORIZON)
        assert result.first_failing_multiple is None
        # 16, 32, ..., 256 multiples per call: 43 calls for 9,999 multiples.
        assert calls["schedule_conditioning"] == 43

    def test_default_horizon_takes_one_call(self, monkeypatch):
        calls = count_calls(monkeypatch, [(scheduler, "schedule_conditioning")])
        validate_uniform(oscillator(-0.1, 1.0), 0.3)
        assert calls["schedule_conditioning"] == 1


class TestUniformMeetsForbidden:
    """Order-2 oscillators sampled at T = (p/q) * period, period = pi / b
    from forbidden_instants_order2: the multiple j*T is a forbidden
    separation exactly when q / gcd(p, q) divides j."""

    def test_first_failing_multiple_is_the_reduced_denominator(self):
        rng = np.random.default_rng(1718)
        checked = 0
        for i in range(120):
            a = (0.0, -0.02, -0.1)[i % 3]
            system = oscillator(a, float(rng.uniform(1.0, 3.0)))
            period = forbidden_instants_order2(system, 0.0, (0.0, 1.0)).period
            q = int(rng.integers(1, 13))
            p = int(rng.integers(1, 2 * q + 1))
            result = validate_uniform(system, p / q * period, horizon=10)
            expected = q // math.gcd(p, q)
            if expected <= 10:
                assert result.first_failing_multiple == expected, (a, p, q)
                checked += 1
            elif a == 0.0:
                assert result.first_failing_multiple is None, (p, q)
        assert checked >= 60


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

    def test_no_schedule_clears_a_tolerance_above_the_best_ratio(self, rotation_system):
        # Two instants of the rotation have sigma ratio 1 only a quarter turn
        # apart; the best lattice row in (0, 2) reaches 0.9999.
        system = replace(rotation_system, tolerances=Tolerances(singularity=0.99999))
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=2, min_spacing=0.05)
        message = "no schedule in the window clears the singularity tolerance (best sigma ratio 9.999e-01)"
        with pytest.raises(InfeasibleError, match=re.escape(message)):
            suggest_schedule(system, spec)

    def test_numpy_integer_count(self):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=np.int64(2), min_spacing=0.1)
        assert spec.count == 2

    def test_step_lost_in_rounding(self, rotation_system):
        # ulp(1e16) is 2, so the grid step of 0.25 is lost in rounding and
        # lattice rows collapse onto equal instants; the result still meets
        # its spec.
        spec = ScheduleSearchSpec(window=(1e16, 1e16 + 8.0), count=2, min_spacing=1.0)
        result = suggest_schedule(rotation_system, spec)
        assert_meets_spec(rotation_system, spec, result)
        assert result[0].instants == (1e16, 1e16 + 8.0)

    def test_stalled_step_terminates(self, rotation_system):
        # 1e16 + 4 plus a refinement step of 1/64 rounds back to itself, so
        # a probe can land on the instant it left; the search still ends,
        # and its result meets its spec.
        spec = ScheduleSearchSpec(window=(1e16, 1e16 + 64.0), count=2, min_spacing=4.0)
        result = suggest_schedule(rotation_system, spec)
        assert_meets_spec(rotation_system, spec, result)
        assert result[0].instants == (1e16, 1e16 + 36.0)

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

    def test_order4_spec_evaluates_few_rows(self, monkeypatch):
        # The exhaustive grid sent 147,521 rows through the kernel here.
        rows = []
        original = scheduler.schedule_conditioning

        def counted(modes, schedules):
            rows.append(len(schedules))
            return original(modes, schedules)

        monkeypatch.setattr(scheduler, "schedule_conditioning", counted)
        spec = ScheduleSearchSpec(window=(0.0, 4.0), count=4, min_spacing=0.15)
        _, objective = suggest_schedule(ORDER4, spec)
        assert sum(rows) <= 6000
        assert math.isclose(objective, 0.09558228680206358, rel_tol=1e-13)

    def test_order4_spec_kernel_calls_are_pinned(self, monkeypatch):
        # The two grid passes screen 4,599 rows in 19 chunks, 11 coarse and
        # 8 fine, and send 8 coarse rows and 1 fine row through the SVD, one
        # call each; 42 refinement calls of one or two probes follow.
        screened, rows = [], []
        screen, original = scheduler.schedule_screen, scheduler.schedule_conditioning

        def counted_screen(modes, schedules):
            screened.append(len(schedules))
            return screen(modes, schedules)

        def counted(modes, schedules):
            rows.append(len(schedules))
            return original(modes, schedules)

        monkeypatch.setattr(scheduler, "schedule_screen", counted_screen)
        monkeypatch.setattr(scheduler, "schedule_conditioning", counted)
        spec = ScheduleSearchSpec(window=(0.0, 4.0), count=4, min_spacing=0.15)
        schedule, _ = suggest_schedule(ORDER4, spec)
        assert screened == [256] * 10 + [40] + [256] * 7 + [207]
        assert sum(screened) == 4599
        assert rows[:2] == [8, 1]
        assert len(rows) == 44 and all(count in (1, 2) for count in rows[2:])
        assert sum(rows[2:]) == 81
        assert schedule.instants == (0.0, 1.6546874999999999, 3.1048828125, 3.999609375)

    @pytest.mark.parametrize("lo, width", [(1e5, 0.1), (1e9, 0.1), (1e6, 0.3)])
    def test_tight_window_far_from_zero_is_answered(self, rotation_system, lo, width):
        # The window holds two instants width apart, and so does the
        # lattice: its row (0, 256) ends exactly at the window end.
        spec = ScheduleSearchSpec(window=(lo, lo + width), count=2, min_spacing=width)
        result = suggest_schedule(rotation_system, spec)
        assert_meets_spec(rotation_system, spec, result)
        assert result[0].instants == spec.window

    def test_grid_without_a_row_names_the_window(self, rotation_system, monkeypatch):
        spec = ScheduleSearchSpec(window=CROWDED_WINDOW, count=4, min_spacing=0.2)
        assert greedy_from_end(0.9, 4, 0.2)[0] < 0.3
        calls = count_calls(monkeypatch, [(scheduler, "schedule_screen")])
        with pytest.raises(InfeasibleError) as info:
            suggest_schedule(rotation_system, spec)
        assert calls == {}  # no lattice row to screen
        message = str(info.value)
        assert f"window {spec.window!r}" in message and "spaced 0.2" in message

    def test_grid_without_a_row_is_one_cli_error(self, tmp_path):
        path = tmp_path / "rotation.json"
        path.write_text('{"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0]}')
        out, err = io.StringIO(), io.StringIO()
        window = ",".join(map(repr, CROWDED_WINDOW))
        argv = ["suggest", str(path), "--window", window, "--count", "4", "--min-spacing", "0.2"]
        assert main(argv, out=out, err=err) == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: the search grid holds no 4 instants")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")

    def test_grid_without_a_row_answers_a_window_that_holds_the_schedule(
        self, rotation_system, monkeypatch
    ):
        spec = ScheduleSearchSpec(window=LATTICE_GAP_WINDOW, count=2, min_spacing=1.5)
        calls = count_calls(monkeypatch, [(scheduler, "schedule_screen")])
        result = suggest_schedule(rotation_system, spec)
        assert calls == {}
        assert_meets_spec(rotation_system, spec, result)
        assert result[0].instants == LATTICE_GAP_WINDOW

    def test_grid_without_a_row_answers_from_the_cli(self, tmp_path):
        path = tmp_path / "rotation.json"
        path.write_text('{"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0]}')
        out, err = io.StringIO(), io.StringIO()
        window = ",".join(map(repr, LATTICE_GAP_WINDOW))
        argv = ["suggest", str(path), "--window", window, "--count", "2", "--min-spacing", "1.5",
                "--format", "json"]
        assert main(argv, out=out, err=err) == 0
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["schedule"] == list(LATTICE_GAP_WINDOW)

    def test_window_too_wide_to_count_is_too_large(self, rotation_system, tmp_path):
        # The window spans ~4e310 grid steps: the count overflows a float.
        spec = ScheduleSearchSpec(window=(0.0, 1e300), count=2, min_spacing=1e-10)
        with pytest.raises(InfeasibleError, match="search grid too large"):
            suggest_schedule(rotation_system, spec)
        path = tmp_path / "rotation.json"
        path.write_text('{"order": 2, "A": [0, -1, 1, 0], "b": [1, 0], "c": [1, 0]}')
        out, err = io.StringIO(), io.StringIO()
        argv = ["suggest", str(path), "--window", "0,1e300", "--count", "2", "--min-spacing", "1e-10"]
        assert main(argv, out=out, err=err) == 1
        assert out.getvalue() == ""
        assert err.getvalue() == (
            "error: search grid too large; increase min_spacing or shrink the window\n"
        )

    @pytest.mark.parametrize("count", [1, 3])
    def test_window_too_wide_to_count_has_one_row(self, scalar_system, count):
        # At order 1 the grid is the single row (lo,), however wide the window.
        spec = ScheduleSearchSpec(window=(0.0, 1e300), count=count, min_spacing=1e-300)
        result = suggest_schedule(scalar_system, spec)
        assert_meets_spec(scalar_system, spec, result)
        assert result[0].instants == tuple(k * 1e-300 for k in range(count))

    def test_count_below_order(self, rotation_system):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=1, min_spacing=0.1)
        with pytest.raises(InfeasibleError, match="below the system order"):
            suggest_schedule(rotation_system, spec)

    # Results pinned bit for bit, each inside its window; the objectives
    # move by a few ulps between BLAS kernels.
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
                (0.0, 1.448671875, 1.5186718750000001),
                0.6360064067364166,
            ),
            (
                Realization([[0.0, 0.0], [0.0, -1.0]], [1.0, 1.0], [1.0, 1.0]),
                (0.0, 1.0), 2, 0.1,
                (0.0, 1.0),
                0.21988684450667884,
            ),
            (
                ORDER3,
                (0.0, 2.2), 4, 0.2,
                (0.0, 1.05390625, 2.0, 2.2),
                0.09505088044419804,
            ),
            (
                ORDER4,
                (0.0, 3.5), 4, 0.4,
                (0.0, 1.3062500000000001, 2.73125, 3.5),
                0.06892079089455981,
            ),
        ],
    )
    def test_pinned_results(self, system, window, count, spacing, instants, objective):
        spec = ScheduleSearchSpec(window=window, count=count, min_spacing=spacing)
        schedule, achieved = suggest_schedule(system, spec)
        assert schedule.instants == instants
        assert_meets_spec(system, spec, (schedule, achieved))
        assert math.isclose(achieved, objective, rel_tol=1e-13)

    @pytest.mark.parametrize(
        "window, count, spacing, instants",
        [((0.0, 2.0), 3, 0.1, (0.0, 0.1, 0.2)), ((0.5, 30.0), 2, 0.01, (0.5, 0.51))],
    )
    def test_ties_keep_the_lowest_schedule(self, monkeypatch, window, count, spacing, instants):
        # A constant objective makes every candidate tie, in every chunk; a
        # constant screen estimate lets every grid row through to it.
        def constant(matrix):
            matrix = np.asarray(matrix)
            return np.ones(matrix.shape[:-2]) if matrix.ndim > 2 else 1.0

        screen = scheduler.schedule_screen

        def level(modes, schedules):
            estimate, bound = screen(modes, schedules)
            return np.stack((np.ones_like(estimate), bound))

        monkeypatch.setattr(numerics, "column_normalized_sigma_ratio", constant)
        monkeypatch.setattr(scheduler, "schedule_screen", level)
        spec = ScheduleSearchSpec(window=window, count=count, min_spacing=spacing)
        schedule, achieved = suggest_schedule(oscillator(-0.3, 1.0), spec)
        assert schedule.instants == instants
        assert achieved == 1.0


def contract_specs(count, rng, tight=False):
    """Seeded (system, spec) pairs at orders 1-4, n to n+2 instants, windows
    of a few spacings or (``tight``) of exactly count - 1 spacings give or
    take three float steps, starting at 0, -3.7, 1e3, 1e6 and 1e12."""
    for i in range(count):
        n = 1 + i % 4
        system = random_minimal_system(rng, n)
        instants = n + int(rng.integers(0, 3))
        spacing = float(rng.uniform(0.1, 0.6))
        lo = (0.0, -3.7, 1e3, 1e6, 1e12)[(i // 4) % 5]
        hi = lo + (instants - 1 + (0.0 if tight else rng.uniform(0.0, 5.0))) * spacing
        steps = int(rng.integers(-3, 4)) if tight else 0
        for _ in range(abs(steps)):
            hi = math.nextafter(hi, math.copysign(math.inf, steps))
        try:
            yield system, ScheduleSearchSpec(window=(lo, hi), count=instants, min_spacing=spacing)
        except InfeasibleError:
            pass  # the window is below count - 1 spacings as computed


class TestSearchContract:
    """Every suggested schedule meets its spec as computed in floats."""

    def test_results_meet_their_spec(self):
        specs = list(contract_specs(240, np.random.default_rng(1616)))
        assert len(specs) == 240
        for system, spec in specs:
            assert_meets_spec(system, spec, suggest_schedule(system, spec))

    def test_tight_windows_are_met_or_refused(self):
        # A window tight to the last float step may hold no such schedule:
        # it is refused with the window named, never answered out of spec.
        outcomes = set()
        for system, spec in contract_specs(240, np.random.default_rng(1617), tight=True):
            try:
                result = suggest_schedule(system, spec)
            except InfeasibleError as exc:
                assert f"in the window {spec.window!r}" in str(exc)
                # Refused only when no schedule ends in the window: the
                # latest one ending at hi starts below lo.
                lo, hi = spec.window
                assert greedy_from_end(hi, spec.count, spec.min_spacing)[0] < lo, spec
                outcomes.add("refused")
                continue
            assert_meets_spec(system, spec, result)
            outcomes.add("met")
        assert outcomes == {"met", "refused"}

    def test_windows_without_a_lattice_row_are_met_or_refused_exactly(self):
        # Windows of count - 1 spacings less up to three float steps whose
        # lattice holds no row: the walk-back from the window end answers
        # them, and refuses only when no schedule ends in the window.
        rng = np.random.default_rng(1618)
        outcomes = Counter()
        for _ in range(4000):
            n, count = int(rng.integers(2, 4)), int(rng.integers(2, 6))
            spacing = float(rng.choice([0.1, 0.15, 0.2, 0.3, 0.7, 1.5]))
            lo = float(rng.choice([3 * 2.0**-53, -0.3, 0.1, 0.3, 0.7, 1e3]))
            hi = lo + (count - 1) * spacing
            for _ in range(int(rng.integers(0, 4))):
                hi = math.nextafter(hi, -math.inf)
            if count < n or hi - lo < (count - 1) * spacing:
                continue  # no spec: too few instants, or a window too short
            if reference_grid(lo, hi, spacing, n, count - n):
                continue
            system = random_minimal_system(rng, n)
            spec = ScheduleSearchSpec(window=(lo, hi), count=count, min_spacing=spacing)
            try:
                result = suggest_schedule(system, spec)
            except InfeasibleError as exc:
                assert f"in the window {spec.window!r}" in str(exc)
                assert greedy_from_end(hi, count, spacing)[0] < lo, spec
                outcomes["refused"] += 1
                continue
            assert_meets_spec(system, spec, result)
            start = [lo + k * spacing for k in range(count)]
            assert list(result[0].instants) == meet_spec(start, lo, hi, spacing)
            outcomes["met"] += 1
        assert outcomes["met"] >= 20 and outcomes["refused"] >= 20, outcomes

    def test_walk_back_takes_the_latest_clearing_float(self):
        rng = np.random.default_rng(1719)
        for _ in range(400):
            spacing = float(10.0 ** rng.uniform(-3.0, 3.0))
            base = float(rng.choice([0.0, -3.7, 1e3, 1e12, -1e15]))
            later = base + float(rng.uniform(-2.0, 2.0)) * spacing
            latest = scheduler._latest_clearing(later, spacing)
            assert latest == latest_clearing(later, spacing), (later, spacing)
            assert later - latest >= spacing > later - math.nextafter(latest, math.inf)

    @pytest.mark.parametrize(
        "window, instants, moved",
        [
            ((0.0, 1.0), [0.1, 0.4], [0.1, 0.4]),
            # 0.7 - 0.4 is 0.29999999999999993: the later instant rises
            ((0.0, 1.0), [0.4, 0.7], [0.4, 0.7000000000000001]),
            # ... unless that leaves the window: the earlier ones fall instead,
            # each to the latest float that clears its gap
            ((0.0, 0.7), [0.1, 0.4, 0.7], [0.09999999999999999, 0.39999999999999997, 0.7]),
            ((0.1, 0.7), [0.1, 0.4, 0.7], None),
            # a float step of -5e-17 is ~1e-32: the move is one of 0.3's
            ((-1.0, 1.0), [-0.3, -5e-17], [-0.3, 5.511151231257828e-18]),
            # near zero the latest float clearing 0.3 lies ~1e16 float steps
            # of its own below 5e-17: found by bisection, not stepped to
            ((-1.0, 0.3), [5e-17, 0.4], [2.775557561562891e-17, 0.3]),
        ],
    )
    def test_final_check_moves(self, window, instants, moved):
        spec = ScheduleSearchSpec(window=window, count=len(instants), min_spacing=0.3)
        if moved is None:
            with pytest.raises(InfeasibleError, match="the search grid holds no 3 instants"):
                scheduler._meet_spec(instants, spec)
        else:
            assert scheduler._meet_spec(instants, spec) == moved


def search_spec_with(name, value):
    arguments = {"window": (0.0, 2.0), "count": 2, "min_spacing": 0.1, name: value}
    return ScheduleSearchSpec(**arguments)


# Each scheduler input that takes a real number, set to one value.
SCALAR_INPUTS = {
    "min_spacing": lambda value: search_spec_with("min_spacing", value),
    "t0": lambda value: forbidden_instants_order2(oscillator(0.0, 1.0), value, (0.0, 5.0)),
    "interval": lambda value: validate_uniform(oscillator(0.0, 1.0), value),
    # The integers: an over-range one is above the limit, not infinite.
    "count": lambda value: search_spec_with("count", value),
    "horizon": lambda value: validate_uniform(oscillator(0.0, 1.0), 1.0, value),
}
# Each scheduler input that takes a window, set to one value.
WINDOW_INPUTS = {
    "spec": lambda window: search_spec_with("window", window),
    "forbidden": lambda window: forbidden_instants_order2(oscillator(0.0, 1.0), 0.0, window),
}


class TestSchedulerInputs:
    """Malformed numbers and windows raise one InfeasibleError naming the
    argument, never a bare exception and never a silent cut."""

    @pytest.mark.parametrize("call", WINDOW_INPUTS)
    @pytest.mark.parametrize(
        "window",
        [(0.0, 1.0, 2.0), (0,), ("a", 1), (0, 10**400), 5.0],
        ids=["three-bounds", "one-bound", "not-a-number", "beyond-float-range", "not-a-pair"],
    )
    def test_malformed_window(self, call, window):
        message = f"window must be finite and real: a pair (lo, hi), got {window!r}"
        with pytest.raises(InfeasibleError, match=re.escape(message)):
            WINDOW_INPUTS[call](window)

    @pytest.mark.parametrize("spacing", [0.0, -0.0, -0.5])
    def test_min_spacing_must_be_positive(self, spacing):
        message = f"min_spacing must be positive, got {spacing!r}"
        with pytest.raises(InfeasibleError, match=re.escape(message)):
            ScheduleSearchSpec(window=(0.0, 2.0), count=2, min_spacing=spacing)

    def test_window_whose_length_overflows(self):
        with pytest.raises(InfeasibleError, match="its length overflows"):
            search_spec_with("window", (-1e308, 1e308))

    @pytest.mark.parametrize("name", SCALAR_INPUTS)
    @pytest.mark.parametrize("value", BAD_REALS)
    def test_malformed_number(self, name, value):
        message = f"{name} must be finite and real, got {value!r}"
        if name in ("count", "horizon"):
            message = f"{name} must be an integer, got {value!r}"
            if value == 10**400:
                message = f"{name} {value} is above the limit"
        with pytest.raises(InfeasibleError, match=re.escape(message)):
            SCALAR_INPUTS[name](value)

    def test_numbers_are_stored_as_floats(self):
        for param in GOOD_REALS:
            (value,) = param.values
            spec = ScheduleSearchSpec(window=[np.int64(0), 20], count=2, min_spacing=value)
            assert spec.window == (0.0, 20.0) and type(spec.min_spacing) is float
            assert spec.min_spacing == float(value)
            interval = validate_uniform(oscillator(0.0, 1.0), value).interval
            assert type(interval) is float and interval == float(value)
            forbidden = forbidden_instants_order2(oscillator(0.0, 1.0), value, [7, 0])
            assert type(forbidden.base_instant) is float and forbidden.base_instant == float(value)

    @pytest.mark.parametrize("value", [np.int64(2), np.int32(2), 2], ids=["int64", "int32", "int"])
    def test_integers_are_stored_as_ints(self, value):
        spec = ScheduleSearchSpec(window=(0.0, 2.0), count=value, min_spacing=0.5)
        assert type(spec.count) is int and spec.count == 2
        assert validate_uniform(oscillator(0.0, 1.0), np.pi / 2, value).first_failing_multiple == 2


class TestCoarseToFine:
    """The coarse-to-fine search against the exhaustive grid it replaced."""

    @pytest.mark.parametrize("system, spec", random_search_specs(72))
    def test_matches_the_exhaustive_search(self, system, spec):
        schedule, objective = suggest_schedule(system, spec)
        assert (schedule.instants, objective) == exhaustive_search(system, spec)

    @pytest.mark.parametrize("system", [oscillator(-0.3, 1.0), ORDER3])
    def test_matches_far_from_zero(self, system):
        # At 1e15 the instants round to multiples of 0.125, ten lattice units.
        spec = ScheduleSearchSpec(window=(1e15, 1e15 + 10.0), count=3, min_spacing=1.2)
        schedule, objective = suggest_schedule(system, spec)
        assert (schedule.instants, objective) == exhaustive_search(system, spec)

    def test_grid_rows_are_evaluated_once(self, monkeypatch):
        # Each grid row is screened exactly once, and sent through the SVD
        # at most once.
        screened, confirmed = [], []
        screen, conditioning = scheduler.schedule_screen, scheduler._conditioning

        def recorded_screen(modes, schedules):
            screened.append(np.array(schedules))
            return screen(modes, schedules)

        def recorded_conditioning(modes, rows, lo, unit):
            confirmed.append(lo + rows * unit)
            return conditioning(modes, rows, lo, unit)

        monkeypatch.setattr(scheduler, "schedule_screen", recorded_screen)
        monkeypatch.setattr(scheduler, "_conditioning", recorded_conditioning)
        spec = ScheduleSearchSpec(window=(0.0, 3.5), count=4, min_spacing=0.4)
        suggest_schedule(ORDER4, spec)
        grid, svd = np.concatenate(screened), np.concatenate(confirmed)
        assert len(np.unique(grid, axis=0)) == len(grid)
        assert len(np.unique(svd, axis=0)) == len(svd) < len(grid)
        assert len(np.unique(np.concatenate((grid, svd)), axis=0)) == len(grid)


class TestPassRowSets:
    """The index rows each grid pass screens, against sets built from the
    enumerated grid."""

    @pytest.mark.parametrize(
        "system, window, count, spacing",
        [
            (oscillator(-0.3, 1.0), (0.0, 2.5), 3, 0.07),
            (ORDER3, (0.0, 2.2), 4, 0.2),
            (ORDER4, (0.0, 3.5), 4, 0.4),
            (oscillator(-0.3, 1.0), (1e6, 1e6 + 3.1), 2, 0.3),
            (ORDER3, (1e6, 1e6 + 2.3), 3, 0.35),
            (ORDER3, (1e15, 1e15 + 10.0), 3, 1.2),
            (ORDER4, (1e15, 1e15 + 12.0), 4, 1.5),
        ]
        + [
            (random_minimal_system(np.random.default_rng(1500 + i), n), (lo, lo + width), n, 0.3)
            for i, (n, lo, width) in enumerate(
                [(2, -3.7, 2.9), (3, 0.0, 2.2), (3, 1e6, 1.9), (4, 1e3, 1.6), (4, 1e15, 2.4)]
            )
        ],
    )
    def test_coarse_and_fine_rows(self, monkeypatch, system, window, count, spacing):
        passes = []
        original = scheduler._screened

        def recorded(modes, rows, *cut):
            passes.append([tuple(row) for row in rows.tolist()])
            return original(modes, rows, *cut)

        monkeypatch.setattr(scheduler, "_screened", recorded)
        suggest_schedule(system, ScheduleSearchSpec(window, count, spacing))
        grid = reference_grid(*window, spacing, system.n, count - system.n)

        def coarse(row):
            # Every instant an exact multiple of COARSE grid steps past its earliest.
            return all((b - a - 4) % scheduler.COARSE == 0 for a, b in zip(row, row[1:]))

        assert len(passes) == 2
        assert passes[0] == [row for row in grid if coarse(row)]

        instants = lattice_instants(window[0], spacing, 64 * np.array(passes[0]))
        values = schedule_conditioning(system.modes, instants)
        # Best first, a tie going to the lowest row and then the earlier one.
        best = sorted(range(len(passes[0])), key=lambda i: (-values[i], passes[0][i]))
        kept = [passes[0][i] for i in best[: scheduler.KEEP]]
        fine = [
            row
            for row in grid
            if not coarse(row)
            and any(max(abs(a - b) for a, b in zip(row, box)) <= scheduler.BOX for box in kept)
        ]
        assert passes[1] == fine

    @pytest.mark.parametrize(
        "system, spec",
        [
            (ORDER4, ScheduleSearchSpec((0.0, 3.5), 4, 0.4)),
            (oscillator(-0.3, 1.0), ScheduleSearchSpec((1e6, 1e6 + 2.5), 3, 0.07)),
        ],
    )
    def test_result_does_not_depend_on_the_chunk_size(self, monkeypatch, system, spec):
        expected = suggest_schedule(system, spec)
        for size in (1, 7, 10**6):
            monkeypatch.setattr(scheduler, "SEARCH_CHUNK", size)
            schedule, objective = suggest_schedule(system, spec)
            assert (schedule.instants, objective) == (expected[0].instants, expected[1])


ORDER6 = random_minimal_system(np.random.default_rng(6), 6)


class TestGridGuard:
    """The grid guard counts the rows the two passes can build: the coarse
    grid and KEEP boxes of (2 BOX + 1) ** (n - 1) rows."""

    @pytest.mark.parametrize(
        "window, count, spacing",
        [((0.0, 2.5), 6, 0.5), ((0.0, 5.0), 6, 1.0), ((0.0, 3.0), 6, 0.5), ((0.0, 4.0), 7, 0.5),
         ((0.0, 4.0), 6, 0.5)],
    )
    def test_order_6_matches_the_exhaustive_search(self, window, count, spacing):
        spec = ScheduleSearchSpec(window, count, spacing)
        result = suggest_schedule(ORDER6, spec)
        assert_meets_spec(ORDER6, spec, result)
        assert (result[0].instants, result[1]) == exhaustive_search(ORDER6, spec)

    def test_order_6_at_the_edge_of_the_guard(self):
        # (0, 16.75) ends at grid step 67: 17**5 coarse rows and 8 * 9**5
        # fine ones, 1,892,249 in all.  One step more counts 18**5 coarse.
        assert scheduler.KEEP * (2 * scheduler.BOX + 1) ** 5 == 8 * 9**5
        spec = ScheduleSearchSpec((0.0, 16.75), 6, 1.0)
        assert_meets_spec(ORDER6, spec, suggest_schedule(ORDER6, spec))
        with pytest.raises(InfeasibleError, match="search grid too large"):
            suggest_schedule(ORDER6, ScheduleSearchSpec((0.0, 17.0), 6, 1.0))

    @pytest.mark.parametrize("n", [7, 8, 12])
    def test_higher_orders_are_refused_by_order(self, n):
        # From order 7 the boxes alone exceed the limit, whatever the window.
        boxes = scheduler.KEEP * (2 * scheduler.BOX + 1) ** (n - 1)
        assert boxes > scheduler.MAX_GRID_CANDIDATES
        system = random_minimal_system(np.random.default_rng(n), n)
        spec = ScheduleSearchSpec((0.0, n - 1.0), n, 1.0)
        with pytest.raises(UnsupportedOrderError, match=f"order 6 at most, got order {n}$"):
            suggest_schedule(system, spec)


def screen_search_specs(count):
    """Seeded (system, spec) pairs at orders 1-6, every third with defective
    clusters allowed: n to n+2 instants, spacings log-uniform in 0.003-0.6,
    windows of up to 4 (orders 1-3) or 1.5 spacings of slack, starting at 0,
    -3.7, 1e3 and 1e6.  Tight windows take the best ratio to 1e-6 and below."""
    rng = np.random.default_rng(2121)
    for i in range(count):
        n = 1 + i % 6
        system = random_minimal_system(rng, n, allow_defective=i % 3 == 0)
        instants = n + int(rng.integers(0, 3))
        spacing = float(10.0 ** rng.uniform(math.log10(0.003), math.log10(0.6)))
        slack = rng.uniform(0.0, 4.0 if n <= 3 else 1.5)
        lo = (0.0, -3.7, 1e3, 1e6)[(i // 6) % 4]
        try:
            window = (lo, lo + (instants - 1 + slack) * spacing)
            yield system, ScheduleSearchSpec(window=window, count=instants, min_spacing=spacing)
        except InfeasibleError:
            pass  # the window is below count - 1 spacings as computed


def search_outcome(system, spec):
    """The instants and objective in hex, or the type and message of the error."""
    try:
        schedule, objective = suggest_schedule(system, spec)
    except (InfeasibleError, NumericRangeError) as exc:
        return type(exc), str(exc)
    return [t.hex() for t in schedule.instants], objective.hex()


# A defective cluster at -800: at spacing 1 its power-1 column underflows to
# zero on every grid row, so the screen sees g = 0 and the search is refused;
# at spacing 0.3 the column is subnormal on some rows, and normalizes to a
# unit column there.
FAR_DAMPED = Realization([[-800.0, 1.0], [0.0, -800.0]], [0.0, 1.0], [1.0, 0.0])
# A defective pair at -8 +- 1j, whose power-1 columns are subnormal at
# intervals near 90 and zero beyond: every grid row's ratio is 0 in floats.
DAMPED_PAIR = Realization(
    [[-8.0, -1.0, 1.0, 0.0], [1.0, -8.0, 0.0, 1.0], [0.0, 0.0, -8.0, -1.0], [0.0, 0.0, 1.0, -8.0]],
    [0.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, 0.0],
)


def unscreened(monkeypatch, how):
    """Send every grid row through the SVD: by an infinite screen bound, or
    by skipping the screen, the search's path before it had one."""
    if how == "infinite-bound":
        monkeypatch.setattr(criterion, "SCREEN_BOUND", math.inf)
    else:
        monkeypatch.setattr(scheduler, "_screened", lambda modes, rows, *cut: rows)


class TestScreenedSearch:
    """The screen changes only which grid rows reach the SVD; the search must
    return what it returns when every row does, bit for bit."""

    @pytest.mark.parametrize("how", ["infinite-bound", "no-screen"])
    def test_equals_the_unscreened_search(self, monkeypatch, how):
        cases = list(screen_search_specs(240))
        screened = [search_outcome(*case) for case in cases]
        unscreened(monkeypatch, how)
        assert [search_outcome(*case) for case in cases] == screened
        ratios = [float.fromhex(obj) for head, obj in screened if isinstance(head, list)]
        assert len(cases) >= 200 and len(ratios) >= 150
        assert sum(1e-9 < ratio < 1e-6 for ratio in ratios) >= 5
        assert any(head is InfeasibleError for head, _ in screened)

    @pytest.mark.parametrize("how", ["infinite-bound", "no-screen"])
    @pytest.mark.parametrize(
        "system, spec, outcome",
        [
            (FAR_DAMPED, ScheduleSearchSpec((0.0, 3.0), 2, 1.0), "best sigma ratio 0.000e+00"),
            (FAR_DAMPED, ScheduleSearchSpec((0.0, 2.0), 2, 0.3), ([0.0, 0.3], 1.0)),
            (DAMPED_PAIR, ScheduleSearchSpec((0.0, 300.0), 4, 80.0), "best sigma ratio 0.000e+00"),
            (DAMPED_PAIR, ScheduleSearchSpec((0.0, 275.0), 4, 90.0), "best sigma ratio 0.000e+00"),
        ],
    )
    def test_far_damped_cluster_equals_the_unscreened_search(
        self, monkeypatch, how, system, spec, outcome
    ):
        # pyproject.toml turns a RuntimeWarning from the kernels into a failure.
        screened = search_outcome(system, spec)
        unscreened(monkeypatch, how)
        assert search_outcome(system, spec) == screened
        if isinstance(outcome, str):
            assert screened[0] is InfeasibleError and outcome in screened[1]
        else:
            instants, objective = outcome
            assert screened == ([t.hex() for t in instants], objective.hex())


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
        end = scheduler._window_end(lo, hi, spacing, spacing / 256.0)
        assert end == reference_end(lo, hi, spacing)
        rows = scheduler._grid_rows((end - 256 * tail) // 64, head)
        assert rows.dtype == np.int64
        assert [tuple(row) for row in rows.tolist()] == reference_grid(lo, hi, spacing, head, tail)

    @pytest.mark.parametrize(
        "system, lo, hi, spacing, tail",
        [
            (oscillator(-0.3, 1.0), 0.0, 2.5, 0.07, 1),
            (ORDER4, 0.0, 3.5, 0.4, 0),
        ],
    )
    def test_batched_kernel_equals_scalar(self, system, lo, hi, spacing, tail):
        modes = system.modes
        grid = reference_grid(lo, hi, spacing, system.n, tail)
        rows = lattice_instants(lo, spacing, 64 * np.array(grid))
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
