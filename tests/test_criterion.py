"""Shifted intervals, mode matrix, determinant factorization, joint verdict."""

import functools
import math
import warnings
from collections import Counter
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
    ShiftedIntervals,
    Tolerances,
    check_minimal,
    classify_case,
    controllable_direct,
    criterion,
    cross_validate,
    factor_n1,
    factor_n2,
    full_determinant,
    joint_verdict,
    modal_decompose,
    mode_matrix,
    numeric_rank,
    numerics,
    schedule_conditioning,
    shifted_intervals,
)
from nusamp.cli import SystemDocument, build_analysis
from nusamp.criterion import SCREEN_BOUND, schedule_screen
from nusamp.numerics import column_normalized_sigma_ratio, numeric_ranks
from conftest import (
    AMBIGUITY_BAND, count_calls, random_minimal_system, random_orthogonal, random_schedule
)

RNG = np.random.default_rng(1101)


class TestSamplingSchedule:
    def test_requires_increasing(self):
        with pytest.raises(DimensionError):
            SamplingSchedule((1.0, 1.0))
        with pytest.raises(DimensionError):
            SamplingSchedule((2.0, 1.0))
        with pytest.raises(DimensionError):
            SamplingSchedule(())

    def test_requires_a_sequence(self):
        with pytest.raises(DimensionError, match="^schedule instants must be a sequence of real numbers$"):
            SamplingSchedule(3.0)


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
        matrix = mode_matrix(self.MODES, shifted_intervals(schedule, 3).alpha)
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
        matrix = mode_matrix(modes, alphas.alpha)
        assert np.allclose(matrix, [[1.0, 1.0], [np.exp(-1.0), 1.0]])
        assert abs(np.linalg.det(matrix)) == pytest.approx(1.0 - np.exp(-1.0))

    def test_conjugate_pair_singular_at_pi(self):
        modes = ModeSet(((-1j, 1), (1j, 1)))
        alphas = shifted_intervals(SamplingSchedule((0.0, np.pi)), 2)
        matrix = mode_matrix(modes, alphas.alpha)
        assert np.allclose(matrix, [[1.0, 1.0], [-1.0, -1.0]])

    def test_jordan_modes(self):
        modes = ModeSet(((-1.0, 2),))
        alphas = shifted_intervals(SamplingSchedule((0.0, 1.0)), 2)
        matrix = mode_matrix(modes, alphas.alpha)
        assert np.allclose(matrix, [[1.0, 0.0], [np.exp(-1.0), np.exp(-1.0)]])
        assert np.linalg.det(matrix) == pytest.approx(np.exp(-1.0))

    def test_size_mismatch(self):
        modes = ModeSet(((-1.0, 1),))
        with pytest.raises(DimensionError):
            mode_matrix(modes, shifted_intervals(SamplingSchedule((0.0, 1.0)), 2).alpha)

    def test_overflow_raises_without_warnings(self):
        modes = ModeSet(((0.0, 1), (3.0, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError):
                mode_matrix(modes, np.array([0.0, 400.0]))

    @pytest.mark.parametrize(
        "n, defective", [(n, False) for n in range(1, 13)] + [(n, True) for n in range(2, 13)]
    )
    def test_equals_the_power_product(self, n, defective):
        rng = np.random.default_rng(5300 + 20 * n + defective)
        modes = _random_modes(rng, n, defective)
        steps = rng.uniform(0.05, 1.0, size=(64, n - 1))
        alphas = np.concatenate((np.zeros((64, 1)), np.cumsum(steps, axis=1)), axis=1)
        matrix = mode_matrix(modes, alphas)
        reference = _power_product(modes, alphas)
        # A simple mode set skips the product with alpha**0 = 1, whose real
        # part x - 0*y can differ from x only in the sign of a zero; adding
        # 0.0 folds -0.0 into 0.0 and keeps every other float's bits.
        assert np.array_equal((matrix + 0.0).view(np.uint64), (reference + 0.0).view(np.uint64))
        if defective:
            assert np.array_equal(matrix.view(np.uint64), reference.view(np.uint64))
        ratios = column_normalized_sigma_ratio(matrix), column_normalized_sigma_ratio(reference)
        assert np.array_equal(ratios[0].view(np.uint64), ratios[1].view(np.uint64))

    @pytest.mark.parametrize(
        "roots", [((0.0, 1), (3.0, 1)), ((3.0, 2),)], ids=["simple", "defective"]
    )
    def test_an_overflowing_row_raises(self, roots):
        rows = np.array([[0.0, 1.0], [0.0, 400.0], [0.0, 2.0]])
        with pytest.raises(NumericRangeError, match="mode matrix overflowed"):
            mode_matrix(ModeSet(roots), rows)

    def test_kernel_arrays_are_built_once_per_mode_set(self, monkeypatch):
        calls = Counter()
        build = ModeSet.kernel.func

        def counted(modes):
            calls["kernel"] += 1
            return build(modes)

        kernel = functools.cached_property(counted)
        kernel.__set_name__(ModeSet, "kernel")
        monkeypatch.setattr(ModeSet, "kernel", kernel)
        modes = ModeSet(((-0.5, 2), (-0.3 - 1j, 1), (-0.3 + 1j, 1)))
        mode_matrix(modes, [0.0, 0.5, 1.0, 2.0])
        assert calls["kernel"] == 1
        calls.clear()
        mode_matrix(modes, np.ones((3, 4)))
        schedule_conditioning(modes, SamplingSchedule((0.0, 0.4, 1.1, 1.5)))
        schedule_conditioning(modes, np.array([[0.0, 0.3, 0.9, 1.2], [0.0, 0.5, 1.0, 1.8]]))
        assert not calls
        lams, powers, defective = modes.kernel
        assert not lams.flags.writeable and not powers.flags.writeable
        assert defective and not ModeSet(((-0.5, 1), (-0.2, 1))).kernel[2]


def _random_modes(rng, n: int, defective: bool) -> ModeSet:
    """A mode set of order n: conjugate pairs and real eigenvalues, a quarter
    of them damped far enough that some entries underflow to zero.  With
    ``defective`` the first cluster has multiplicity min(n, 3)."""
    roots = []
    remaining = n
    if defective:
        roots.append((complex(rng.normal()), min(n, 3)))
        remaining -= min(n, 3)
    while remaining:
        real = rng.normal() if rng.random() < 0.75 else -300.0 * abs(rng.normal())
        if remaining >= 2 and rng.random() < 0.6:
            imag = 3.0 * abs(rng.normal())
            roots += [(complex(real, -imag), 1), (complex(real, imag), 1)]
            remaining -= 2
        else:
            roots.append((complex(real), 1))
            remaining -= 1
    return ModeSet(tuple(roots))


def _power_product(modes: ModeSet, alphas) -> np.ndarray:
    """The mode matrices as ``alpha**power * exp(lam * alpha)`` for every mode."""
    params = [(lam, p) for lam, m in modes.roots for p in range(m)]
    lams = np.array([lam for lam, _ in params], dtype=complex)
    powers = np.array([p for _, p in params], dtype=float)
    a = np.asarray(alphas, dtype=float)[..., None]
    return (a**powers) * np.exp(lams * a)


def _screen_modes(rng, n: int) -> ModeSet:
    """A mode set of order n: real clusters of multiplicity 1-3 and conjugate
    pairs of multiplicity 1-2.  One simple cluster in five is damped far
    enough that some entries underflow to zero; a defective one never is,
    since a power column that normalizes from subnormal entries makes the
    SVD fail (see TestScheduleScreen)."""
    roots, remaining = [], n
    while remaining:
        pair = remaining >= 2 and rng.random() < 0.5
        size = min(int(rng.integers(1, 3 if pair else 4)), remaining // 2 if pair else remaining)
        real = rng.normal()
        if size == 1 and rng.random() < 0.2:
            real = -300.0 * (0.5 + abs(real))
        if pair:
            imag = 0.1 + 3.0 * abs(rng.normal())
            roots += [(complex(real, imag), size), (complex(real, -imag), size)]
        else:
            roots.append((complex(real), size))
        remaining -= 2 * size if pair else size
    return ModeSet(tuple(roots))


def _screen_rows(rng, n: int, kind: str) -> np.ndarray:
    """256 increasing rows of n instants with gaps in [0.05, 1): as drawn
    ("random"), with one gap of 1e-9 to 1e-2 ("gap"), or moved to 1e6
    ("far"), where the gaps round to multiples of ulp(1e6)."""
    gaps = rng.uniform(0.05, 1.0, size=(256, n))
    gaps[:, 0] = 0.0
    if kind == "gap" and n > 1:
        gaps[np.arange(256), rng.integers(1, n, size=256)] = 10.0 ** rng.uniform(-9, -2, size=256)
    return (1e6 if kind == "far" else 0.0) + np.cumsum(gaps, axis=1)


class TestScheduleScreen:
    """The Gram screen of schedule search: its estimate of the sigma ratio
    lies within its bound of ``schedule_conditioning`` on every row."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_estimate_is_within_its_bound(self, n):
        rng = np.random.default_rng(2100 + n)
        for _ in range(4):
            modes = _screen_modes(rng, n)
            for kind in ("random", "gap", "far"):
                rows = _screen_rows(rng, n, kind)
                estimate, bound = schedule_screen(modes, rows)
                ratio = schedule_conditioning(modes, rows)
                assert np.all(np.abs(estimate - ratio) <= bound), (modes, kind)

    def test_sets_reach_defects_pairs_and_underflow(self):
        rng = np.random.default_rng(2101)
        roots = [root for _ in range(40) for root in _screen_modes(rng, 6).roots]
        assert any(m > 1 and lam.imag == 0.0 for lam, m in roots)
        assert any(m > 1 and lam.imag != 0.0 for lam, m in roots)
        assert any(lam.real < -100.0 for lam, _ in roots)

    def test_rows_the_bound_cannot_cover_are_confirmed(self):
        # A defective cluster at -800: at interval 1 its power-1 column
        # underflows to zero, and the estimate is 0.  A defective pair at
        # -8 +- 1j leaves its power-1 columns subnormal at interval 90 or 91
        # and zero beyond: they normalize to unit columns with no warning,
        # the two power-0 columns agree in floats, and the ratio is 0.
        single = ModeSet(((complex(-800.0), 2),))
        pair = ModeSet(((complex(-8.0, 1.0), 2), (complex(-8.0, -1.0), 2)))
        assert schedule_screen(single, [0.0, 1.0]).tolist() == [0.0, math.inf]
        assert schedule_conditioning(single, [0.0, 1.0]) == 0.0
        rows = np.arange(4) * np.array([[90.0], [91.0]])
        assert schedule_screen(pair, rows).tolist() == [[0.0, 0.0], [math.inf, math.inf]]
        for row in rows:
            assert schedule_conditioning(pair, row) == 0.0
        estimate, bound = schedule_screen(single, [0.0, 0.1])
        assert abs(estimate - schedule_conditioning(single, [0.0, 0.1])) <= bound < 1e-12

    def test_shape_and_range_errors_are_the_kernels(self):
        modes = ModeSet(((0.0, 1), (3.0, 1)))
        assert schedule_screen(modes, np.zeros((5, 7, 3))).shape == (2, 5, 7)
        with pytest.raises(InsufficientScheduleError):
            schedule_screen(modes, [0.0])
        with pytest.raises(NumericRangeError):
            schedule_screen(modes, [[0.0, 1.0], [0.0, 300.0]])


def _full_width_screen(modes: ModeSet, rows: np.ndarray) -> tuple:
    """The real form R and ``schedule_screen`` from the full mode matrix:
    every column evaluated and normalized, R taken column by column."""
    n = modes.n
    imag = modes.kernel[0].imag
    alphas = rows[..., n - 1 : n] - rows[..., n - 1 :: -1]
    unit = numerics._unit_columns(mode_matrix(modes, alphas))
    real = np.where(imag < 0.0, unit.imag, unit.real) * np.where(imag == 0.0, 1.0, np.sqrt(2.0))
    w = np.linalg.eigvalsh(np.swapaxes(real, -1, -2) @ real)
    estimate = np.sqrt(np.maximum(w[..., 0], 0.0) / w[..., -1])
    with np.errstate(divide="ignore"):
        bound = SCREEN_BOUND * n**2 * np.finfo(float).eps * (1.0 + 1.0 / estimate)
    return real, np.stack((estimate, bound))


class TestHalfPlaneScreen:
    """The screen evaluates only the modes on or above the real axis and
    mirrors the rest; its figures are the full-width formula's bit for bit."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_full_width_formula(self, n):
        rng = np.random.default_rng(3200 + n)
        for _ in range(4):
            modes = _screen_modes(rng, n)
            for kind in ("random", "gap", "far"):
                rows = _screen_rows(rng, n, kind)
                real, screen = _full_width_screen(modes, rows)
                alphas = rows[..., n - 1 : n] - rows[..., n - 1 :: -1]
                # R itself, since flipping the sign of a column leaves the
                # Gram eigenvalues' bits as they are.  A mirrored column is
                # the negated imaginary part of its mate, so a zero entry
                # (row 0, where lam * 0 has an imaginary zero of either
                # sign) may differ in sign only; adding 0.0 folds -0.0 into
                # 0.0 and keeps every other float's bits.
                half = criterion._real_form(modes, alphas) + 0.0
                assert np.array_equal(half.view(np.uint64), (real + 0.0).view(np.uint64)), (
                    modes, kind
                )
                assert np.array_equal(
                    schedule_screen(modes, rows).view(np.uint64), screen.view(np.uint64)
                ), (modes, kind)

    def test_conjugate_exponentials_are_exact(self):
        # exp(conj z) == conj(exp z) bit for bit: the column of conj(lam) is
        # the conjugate of the column of lam.  Real parts reach the
        # subnormal and zero results, imaginary parts span many magnitudes,
        # and the array lengths are not multiples of any vector width.
        rng = np.random.default_rng(3300)
        for size in (1, 3, 7, 64, 1001):
            real = rng.uniform(-800.0, 700.0, size)
            imag = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-12.0, 4.0, size)
            imag[rng.random(size) < 0.1] = 0.0
            z = real + 1j * imag
            assert np.array_equal(
                np.exp(np.conj(z)).view(np.uint64), np.conj(np.exp(z)).view(np.uint64)
            )


class TestModeMates:
    """``ModeSet.mates``: each mode's conjugate mate among the ordered modes."""

    def test_pairs_defects_and_real_modes(self):
        modes = ModeSet((
            (complex(-1.0, -2.0), 2), (complex(-1.0), 1), (complex(-1.0, 2.0), 2),
            (complex(0.5, -1.0), 1), (complex(0.5, 1.0), 1), (complex(3.0), 3),
        ))
        mates = modes.mates
        assert mates.tolist() == [3, 4, 2, 0, 1, 6, 5, 7, 8, 9]
        assert not mates.flags.writeable
        lams, powers, _ = modes.kernel
        assert np.array_equal(lams[mates], lams.conj())
        assert np.array_equal(powers[mates], powers)
        # The real form reads modes 2, 3, 4, 6, 7, 8 and 9, and each lower
        # mode the imaginary part of its mate's column.
        upper_lams, upper_powers, columns, factors = modes.real_form_gather
        assert np.array_equal(upper_lams, lams[[2, 3, 4, 6, 7, 8, 9]])
        assert np.array_equal(upper_powers, powers[[2, 3, 4, 6, 7, 8, 9]])
        assert columns.tolist() == [3, 5, 0, 2, 4, 7, 6, 8, 10, 12]
        root2 = math.sqrt(2.0)
        assert factors.tolist() == [-root2, -root2, 1.0, root2, root2, -root2, root2, 1.0, 1.0, 1.0]
        assert not any(array.flags.writeable for array in modes.real_form_gather)

    def test_an_involution_on_every_screen_set(self):
        rng = np.random.default_rng(3400)
        for n in range(1, 13):
            modes = _screen_modes(rng, n)
            lams, powers, _ = modes.kernel
            mates = modes.mates
            assert np.array_equal(mates[mates], np.arange(n))
            real = lams.imag == 0.0
            assert np.array_equal(mates[real], np.flatnonzero(real))
            assert np.array_equal(lams[mates], lams.conj())
            assert np.array_equal(powers[mates], powers)

    @pytest.mark.parametrize("roots", [
        ((complex(0.0, 1.0), 1),),
        ((complex(-1.0, -1.0), 1), (complex(-1.0, 1.0 + 1e-15), 1)),
        ((complex(-1.0, -1.0), 1), (complex(-1.0, 1.0), 2)),
    ], ids=["alone", "inexact", "multiplicity"])
    def test_an_unmatched_complex_mode_raises(self, roots):
        modes = ModeSet(roots)
        with pytest.raises(DimensionError, match="not conjugate-closed"):
            modes.mates
        with pytest.raises(DimensionError, match="not conjugate-closed"):
            schedule_screen(modes, np.arange(modes.n, dtype=float))


def _bits(values) -> list:
    """The bytes of each number, so that -0.0 and 0.0 differ."""
    return [np.asarray(v).tobytes() for v in values]


class TestStackedLapackCalls:
    """Each pair of rank tests or determinants runs as one stacked LAPACK
    call, with the bits of one call per matrix."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_stacked_ranks_are_the_separate_ranks(self, n):
        rng = np.random.default_rng(3500 + n)
        for _ in range(10):
            for dtype in (float, complex):
                m = rng.normal(size=(n, 2 * n)).astype(dtype)
                if dtype is complex:
                    m += 1j * rng.normal(size=(n, 2 * n))
                m[:, n - 1] = m[:, 0] * 2.0  # rank deficient on the left when n > 1
                pairs = [(m[:, :n], m[:, n:]), (m[:, :n].T, m[:, n:].T)]
                for left, right in pairs:
                    stacked = numeric_ranks((left, right), 1e-9)
                    separate = [numeric_rank(left, 1e-9), numeric_rank(right, 1e-9)]
                    assert [r.rank for r in stacked] == [r.rank for r in separate]
                    assert _bits(r.sigma_ratio for r in stacked) == _bits(
                        r.sigma_ratio for r in separate
                    )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_call_sites_give_the_bits_of_separate_calls(self, n, monkeypatch):
        rng = np.random.default_rng(3600 + n)
        # One stack per matrix: numeric_rank itself calls numeric_ranks.
        separate = lambda matrices, tol: [numeric_ranks((m,), tol)[0] for m in matrices]
        for k in range(6):
            system = random_minimal_system(rng, n, allow_defective=k % 2 == 1)
            schedule = random_schedule(rng, n + k % 2, window=(0.0, 2.0 * n), min_spacing=0.1)
            results = [(check_minimal(system), cross_validate(system, schedule))]
            with monkeypatch.context() as patch:
                patch.setattr(numerics, "numeric_ranks", separate)
                fresh = Realization(system.A, system.b, system.c)
                results.append((check_minimal(fresh), cross_validate(fresh, schedule)))
            (minimal, oracle), (reference, reference_oracle) = results
            assert (minimal.controllability_rank.rank, minimal.observability_rank.rank) == (
                reference.controllability_rank.rank, reference.observability_rank.rank
            )
            ratios = lambda m, o: (
                m.controllability_rank.sigma_ratio, m.observability_rank.sigma_ratio,
                o.reachability_sigma_ratio, o.observability_sigma_ratio,
            )
            assert _bits(ratios(minimal, oracle)) == _bits(ratios(reference, reference_oracle))
            # joint_verdict's determinants against one det call each.
            report = oracle.criterion
            alphas = shifted_intervals(schedule, n)
            mode_det = complex(np.linalg.det(mode_matrix(system.modes, alphas.alpha)))
            full_det = full_determinant(system.decomposition, alphas.alpha)
            assert _bits((report.mode_det, report.full_det)) == _bits((mode_det, full_det))


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
        value = full_determinant(decomposition, alphas.alpha)
        scale = abs(decomposition.y0[0] * decomposition.y0[1])
        assert abs(value) == pytest.approx(scale * (1.0 - np.exp(-1.0)))

    def test_repeated_interval_gives_zero(self, rotation_system):
        decomposition = modal_decompose(rotation_system)
        value = full_determinant(decomposition, (0.0, 0.0))
        assert abs(value) < 1e-15


    def test_wrong_interval_count_raises(self, rotation_system):
        with pytest.raises(DimensionError, match=r"needs 2 intervals, got shape \(3,\)"):
            full_determinant(modal_decompose(rotation_system), (0.0, 1.0, 2.0))


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
            assert report.full_det == full_determinant(decomposition, report.alphas.alpha)

    @pytest.mark.parametrize("instants", [(0.0, 60.0, 197.0), (0.0, 60.0, 170.0)])
    def test_determinant_overflow_raises(self, instants):
        # The mode matrix stays finite, but a determinant does not: at 197
        # the residual's modulus overflows, at 170 full_det is inf + nan j.
        # No RuntimeWarning may escape (pyproject turns them into errors).
        system = Realization(np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(NumericRangeError, match="determinant overflowed"):
            joint_verdict(system, SamplingSchedule(instants))

    def test_mode_space_overflow_raises(self):
        # e^690 stays in range but e^690 * 1e10 does not: the membership
        # vector used to give controllable=True with a NaN residual.
        system = Realization([[1.0]], [1e10], [1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="^mode-space vectors overflowed"):
                joint_verdict(system, SamplingSchedule((0.0, 690.0)))
            with pytest.raises(NumericRangeError, match="^mode-space vectors overflowed"):
                full_determinant(system.decomposition, (690.0,))

    def test_n2_overflow_raises(self):
        # y0 of a huge b makes the defective block's y_last**2 overflow.
        system = Realization([[-1.0, 1.0], [0.0, -1.0]], [1e200, 1e200], [1.0, 0.0])
        with pytest.raises(NumericRangeError, match="determinant overflowed"):
            joint_verdict(system, SamplingSchedule((0.0, 1.0)))

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

    def test_unobservable_raises(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 1.0], [1.0, 0.0])
        message = "^realization is not minimal: observability rank 1 < 2$"
        with pytest.raises(MinimalityError, match=message):
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
            moved = joint_verdict(
                rotation_system, SamplingSchedule(tuple(t + delta for t in schedule.instants))
            )
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

    def test_membership_uses_the_singularity_tolerance(self, rotation_system):
        # At (0, pi, 4) the span is one direction at every tolerance below 1
        # and the third instant's vector lies 0.757 of its norm off it: the
        # singularity tolerance that cuts the span also judges that residual.
        schedule = SamplingSchedule((0.0, np.pi, 4.0))
        reports = [
            joint_verdict(replace(rotation_system, tolerances=Tolerances(singularity=tol)), schedule)
            for tol in (1e-9, 0.5, 0.8)
        ]
        assert [report.controllable for report in reports] == [False, False, True]
        assert not any(report.reachable for report in reports)
        assert len({report.membership_residual for report in reports}) == 1

    def test_membership_ignores_the_scale_of_b(self, rotation_system):
        # At (0, pi, 4) the third instant's mode-space vector lies 0.757 of
        # its norm off the span; at b = 2**-40 that is a residual below 1,
        # which must not pass for membership.
        schedule = SamplingSchedule((0.0, np.pi, 4.0))
        unit = joint_verdict(rotation_system, schedule)
        scaled_b = Realization(rotation_system.A, [2.0**-40, 0.0], rotation_system.c)
        scaled = joint_verdict(scaled_b, schedule)
        for report in (unit, scaled):
            assert not report.controllable and not report.constructible
            assert classify_case(report) == "c"
        assert scaled.membership_residual == 2.0**-40 * unit.membership_residual

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
    corpus refuses, so it is pinned here.  At singularity 0.8 both spans are
    one direction and the third vector, 0.757 of its norm off it, counts as
    in it.  Expected per tolerance bundle: (case label, controllable,
    controllable_x0).
    """

    BUNDLES = {
        "default": Tolerances(),
        "singularity": Tolerances(singularity=0.1),
        "loose": Tolerances(singularity=0.8),
    }
    EXPECTED = {
        (0.0, 3.14159265, 4.0): {
            "default": ("a", True, True),
            "singularity": ("c", False, False),
            "loose": ("b", True, True),
        },
        (0.0, np.pi, 4.0): {
            "default": ("c", False, False),
            "singularity": ("c", False, False),
            "loose": ("b", True, True),
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
            tolerances = Tolerances(singularity=10.0 ** rng.uniform(-14.0, 1.0))
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
            if AMBIGUITY_BAND[0] <= report.sigma_ratio <= AMBIGUITY_BAND[1] or not report.controllable:
                continue
            assert controllable_direct(system, schedule, rng.normal(size=n))
