"""Kernel tests: matrix exponential, clustered eigenvalues, rank, membership."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from nusamp import (
    AnalysisError,
    DimensionError,
    NumericRangeError,
    Realization,
    SamplingSchedule,
    ToleranceError,
    Tolerances,
    deadbeat_inputs,
    eig_clustered,
    expm,
    in_range,
    joint_verdict,
    numeric_rank,
)
from nusamp import numerics
from nusamp.numerics import column_normalized_sigma_ratio
from conftest import BAD_REALS, GOOD_REALS

RNG = np.random.default_rng(20240811)


class TestExpm:
    def test_zero_time_is_identity(self):
        m = RNG.normal(size=(3, 3))
        assert np.allclose(expm(m, 0.0), np.eye(3))

    def test_diagonal_case(self):
        result = expm(np.diag([0.0, -1.0]), 1.0)
        assert np.allclose(result, np.diag([1.0, np.exp(-1.0)]))

    def test_rotation_matches_eigen_reconstruction(self):
        m = np.array([[0.0, -1.0], [1.0, 0.0]])
        t = np.pi / 2
        values, vectors = np.linalg.eig(m)
        oracle = vectors @ np.diag(np.exp(values * t)) @ np.linalg.inv(vectors)
        assert np.allclose(expm(m, t), oracle.real, atol=1e-12)
        assert np.allclose(expm(m, t), [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_semigroup_property(self):
        for _ in range(50):
            n = int(RNG.integers(1, 5))
            m = RNG.normal(size=(n, n))
            m *= min(1.0, 5.0 / np.linalg.norm(m))
            s, t = RNG.uniform(-2.0, 2.0, size=2)
            combined = expm(m, s + t)
            split = expm(m, s) @ expm(m, t)
            assert np.linalg.norm(combined - split) <= 1e-10 * np.linalg.norm(combined)

    def test_agrees_with_diagonalization(self):
        for _ in range(50):
            n = int(RNG.integers(1, 5))
            m = RNG.normal(size=(n, n))
            values, vectors = np.linalg.eig(m)
            if np.linalg.cond(vectors) > 1e6:
                continue
            t = float(RNG.uniform(-2.0, 2.0))
            oracle = vectors @ np.diag(np.exp(values * t)) @ np.linalg.inv(vectors)
            result = expm(m, t)
            assert np.linalg.norm(result - oracle) <= 1e-8 * max(
                1.0, np.linalg.norm(result)
            )

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.ones((2, 3)), 1.0)

    def test_overflow_raises(self):
        with pytest.raises(NumericRangeError):
            expm(np.array([[800.0]]), 1.0)

    @pytest.mark.parametrize("kind", ["real", "complex", "upper"])
    def test_matches_scipy_reference(self, kind):
        rng = np.random.default_rng({"real": 1, "complex": 2, "upper": 3}[kind])
        for n in range(1, 14):
            for target in (0.01, 0.3, 1.0, 4.0, 12.0, 35.0, 70.0):
                m = rng.normal(size=(n, n))
                if kind == "complex":
                    m = m + 1j * rng.normal(size=(n, n))
                elif kind == "upper":
                    m = np.triu(m)
                t = float(rng.choice([-1.0, 1.0])) * target / np.abs(m).sum(axis=0).max()
                reference = scipy.linalg.expm(m * t)
                error = np.abs(expm(m, t) - reference).max() / np.abs(reference).max()
                assert error <= (1e-13 if target <= 1.0 else 1e-10), (n, target, error)

    def test_batch_equals_scalar_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            for m in (rng.normal(size=(n, n)), rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
                m = m * rng.uniform(0.1, 4.0)
                times = np.concatenate(([0.0], rng.uniform(-6.0, 6.0, size=6), [1e-9, 20.0]))
                batch = expm(m, times)
                assert batch.shape == (times.size, n, n)
                for k, t in enumerate(times):
                    assert np.array_equal(batch[k], expm(m, t)), (n, t)

    def test_zero_time_is_exact_identity(self):
        for n in (1, 2, 5, 12):
            m = RNG.normal(size=(n, n))
            assert np.array_equal(expm(m, 0.0), np.eye(n))
            assert np.array_equal(expm(m + 1j, [0.0, 0.0]), np.stack([np.eye(n)] * 2))

    def test_diagonal_input_goes_entry_by_entry(self):
        for diagonal in ([0.3, -1.7, 2.2], [0.5 + 1j, 0.5 - 1j, -2.0 + 0j]):
            m = np.diag(diagonal)
            for t in (0.7, -3.1, 11.0):
                expected = np.diag(np.exp(np.asarray(diagonal) * t))
                assert np.array_equal(expm(m, t), expected)
                assert np.array_equal(expm(m, [t])[0], expected)

    def test_scalar_and_batch_shapes(self):
        m = RNG.normal(size=(3, 3))
        assert expm(m, 1.0).shape == (3, 3)
        assert expm(m, np.float64(1.0)).shape == (3, 3)
        assert expm(m, [0.5, 1.0]).shape == (2, 3, 3)
        assert expm(m, []).shape == (0, 3, 3)
        with pytest.raises(DimensionError):
            expm(m, [[1.0]])

    @pytest.mark.parametrize(
        "matrix, t",
        [
            ([[800.0]], 1.0),
            ([[0.0, 1e300], [-1e300, 0.0]], 1e10),
            ([[1.0, 2.0], [3.0, 4.0]], [1.0, 1e308]),
            ([[1.0, 2.0], [3.0, 4.0]], 900.0),
            ([[1.0, 2.0], [3.0, 4.0]], np.inf),
            ([[1.0, 2.0], [3.0, 4.0]], [0.0, np.nan]),
        ],
    )
    def test_out_of_range_raises_without_warnings(self, matrix, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError):
                expm(np.array(matrix), t)

    def test_finite_result_below_the_float_maximum(self):
        # e^700 ~ 1.01e304 is finite; only a non-finite result is an error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = expm(np.array([[700.0]]), 1.0)
        assert result[0, 0] == pytest.approx(math.exp(700.0), rel=1e-13)


class TestFinite:
    @pytest.mark.parametrize("compute", [
        lambda: np.array([1e300]) * 1e10,
        lambda: (1.0, complex(1e308, 0.0) * 10.0),
        lambda: complex(1e200, 1e200) ** 2,  # Python's own OverflowError
        lambda: np.array([np.inf]) - np.inf,
    ], ids=["array", "tuple", "complex-power", "invalid"])
    def test_non_finite_raises_the_message(self, compute):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericRangeError, match="^product overflowed$"):
                numerics.finite(compute, "product overflowed")

    def test_finite_value_is_returned_as_is(self):
        value = (np.array([1.0, 2.0]), 3 + 4j, 5.0)
        assert numerics.finite(lambda: value, "unused") is value


class TestEigClustered:
    def test_diagonal(self):
        assert eig_clustered(np.linalg.eigvals(np.diag([0.0, -1.0]))) == [(-1.0, 1), (0.0, 1)]

    def test_jordan_block(self):
        result = eig_clustered(np.linalg.eigvals(np.array([[-1.0, 1.0], [0.0, -1.0]])))
        assert result == [(-1.0, 2)]

    def test_rotation_conjugate_pair(self):
        # characteristic polynomial x**2 + 1 has roots -j, +j
        result = eig_clustered(np.linalg.eigvals(np.array([[0.0, -1.0], [1.0, 0.0]])))
        assert len(result) == 2
        assert result[0][0] == pytest.approx(-1j)
        assert result[1][0] == pytest.approx(1j)

    def test_multiplicities_sum_to_n(self):
        for _ in range(30):
            n = int(RNG.integers(1, 7))
            m = RNG.normal(size=(n, n))
            clusters = eig_clustered(np.linalg.eigvals(m))
            assert sum(count for _, count in clusters) == n

    def test_conjugate_symmetry(self):
        for _ in range(30):
            n = int(RNG.integers(2, 7))
            clusters = eig_clustered(np.linalg.eigvals(RNG.normal(size=(n, n))))
            values = sorted(
                (lam for lam, count in clusters for _ in range(count)),
                key=lambda z: (z.real, z.imag),
            )
            mirrored = sorted(
                (np.conj(z) for z in values), key=lambda z: (z.real, z.imag)
            )
            assert np.allclose(values, mirrored)

    def test_cluster_on_both_sides_of_the_axis_is_real(self):
        # numpy's complex sum of these five members (a real value and two
        # near-real pairs, as LAPACK returned them) leaves an imaginary
        # residue of a few 1e-24; the cluster is its own conjugate, so it
        # reports the mean's real part with an exact zero imaginary part.
        values = np.array([
            0.06196313548831291,
            0.09778122194384983 + 4.8069181684219014e-08j,
            0.09778122194384983 - 4.8069181684219014e-08j,
            0.09778122194386199 + 1.692202877019394e-08j,
            0.09778122194386199 - 1.692202877019394e-08j,
        ])
        [(value, count)] = eig_clustered(values, 0.1)
        assert count == 5
        assert value.imag == 0.0
        assert value.real == np.mean(values).real

    def test_cluster_merging(self):
        result = eig_clustered(np.linalg.eigvals(np.diag([1.0, 1.0 + 1e-9, 2.0])), cluster_tol=1e-7)
        assert result == [(pytest.approx(1.0 + 5e-10), 2), (2.0, 1)]

    def test_matches_pairwise_union_find(self):
        rng = np.random.default_rng(11)
        tol = 1e-7
        for n in range(1, 13):
            for _ in range(12):
                matrix = _spectrum_matrix(rng, n, tol)
                values = np.linalg.eigvals(matrix)
                for cluster_tol in (tol, 1e-3):
                    assert eig_clustered(values, cluster_tol) == _reference_clusters(
                        values, cluster_tol
                    ), (n, matrix.diagonal())

    def test_chain_links_transitively(self):
        # Neighbours 0.8*tol apart link; the ends, 1.6*tol apart, only
        # through the middle.
        tol = 1e-7
        chained = np.linalg.eigvals(np.diag([1.0, 1.0 + 0.8e-7, 1.0 + 1.6e-7, 3.0]))
        result = eig_clustered(chained, tol)
        assert [count for _, count in result] == [3, 1]
        split = eig_clustered(np.linalg.eigvals(np.diag([1.0, 1.0 + 1.6e-7, 3.0])), tol)
        assert [count for _, count in split] == [1, 1, 1]


def _reference_clusters(values, cluster_tol):
    """The pairwise union-find clustering eig_clustered replaced."""
    n = values.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(values[i] - values[j])
            scale = max(1.0, abs(values[i]), abs(values[j]))
            if gap <= cluster_tol * scale:
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = []
    for members in groups.values():
        clusters.append((complex(np.mean(values[members])), len(members), min(members)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag, c[2]))
    return [(value, count) for value, count, _ in clusters]


def _spectrum_matrix(rng, n, tol):
    """Real block-diagonal matrix whose spectrum mixes exact repeats,
    conjugate pairs, chains that link only transitively, and gaps just
    inside and just outside ``tol`` (relative to max(1, |l|)).  The blocks
    are shuffled so linked eigenvalues need not be adjacent."""
    blocks = []
    size = 0
    while size < n:
        room = n - size
        kind = rng.integers(5)
        base = float(rng.uniform(-3.0, 3.0))
        scale = max(1.0, abs(base))
        if kind == 1 and room >= 2:
            im = float(rng.uniform(0.2, 2.0))
            blocks.append(np.array([[base, -im], [im, base]]))
        elif kind == 2 and room >= 2:
            repeats = int(rng.integers(2, min(room, 4) + 1))
            blocks.extend([np.array([[base]])] * repeats)
        elif kind == 3 and room >= 3:
            step = 0.7 * tol * scale
            length = int(rng.integers(3, min(room, 6) + 1))
            blocks.extend(np.array([[base + k * step]]) for k in range(length))
        elif kind == 4 and room >= 2:
            factor = float(rng.choice([0.9, 1.1]))
            blocks.extend([np.array([[base]]), np.array([[base + factor * tol * scale]])])
        else:
            blocks.append(np.array([[base]]))
        size = sum(len(b) for b in blocks)
    order = rng.permutation(len(blocks))
    matrix = np.zeros((size, size))
    offset = 0
    for k in order:
        block = blocks[k]
        matrix[offset : offset + len(block), offset : offset + len(block)] = block
        offset += len(block)
    return matrix


class TestNumericRank:
    def test_identity(self):
        result = numeric_rank(np.eye(2))
        assert result.rank == 2
        assert result.sigma_ratio == pytest.approx(1.0)

    def test_proportional_columns(self):
        assert numeric_rank(np.array([[1.0, 1.0], [-1.0, -1.0]])).rank == 1

    def test_mode_matrix_sample(self):
        # det = exp(-1) - 1 != 0, directly evaluated
        m = np.array([[1.0, 1.0], [1.0, np.exp(-1.0)]])
        assert abs(np.linalg.det(m) - (np.exp(-1.0) - 1.0)) < 1e-15
        assert numeric_rank(m).rank == 2

    def test_zero_matrix(self):
        result = numeric_rank(np.zeros((3, 2)))
        assert result == (0, 0.0)

    def test_invariances(self):
        for _ in range(20):
            m = RNG.normal(size=(int(RNG.integers(1, 5)), int(RNG.integers(1, 5))))
            base = numeric_rank(m).rank
            assert numeric_rank(m.T).rank == base
            scale = float(RNG.uniform(0.1, 10.0)) * float(RNG.choice([-1.0, 1.0]))
            assert numeric_rank(scale * m).rank == base


class TestInRange:
    def test_identity_span(self):
        check = in_range(np.eye(2), [3.0, 4.0])
        assert check.contained
        assert check.residual == pytest.approx(0.0)

    def test_orthogonal_complement(self):
        check = in_range(np.array([[1.0], [0.0]]), [0.0, 1.0])
        assert not check.contained
        assert check.residual == pytest.approx(1.0)

    def test_single_column_span(self):
        check = in_range(np.array([[1.0], [0.0]]), [2.0, 0.0])
        assert check.contained

    def test_image_always_contained(self):
        for _ in range(30):
            rows = int(RNG.integers(1, 6))
            cols = int(RNG.integers(1, 6))
            m = RNG.normal(size=(rows, cols))
            x = RNG.normal(size=cols)
            assert in_range(m, m @ x).contained

    def test_vector_near_the_float_maximum_answers(self):
        # Membership is judged on the vector scaled to a unit peak, so a
        # vector whose projection coefficients would overflow answers; only
        # a residual that is itself beyond the float range is refused.
        basis = np.linalg.qr(np.ones((4, 4)) + np.eye(4))[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check = in_range(basis[:, :2], np.full(4, 1e308))
            assert not check.contained
            assert 1e307 < check.residual < 1e308
            with pytest.raises(NumericRangeError, match="^membership residual overflowed"):
                in_range(basis[:, :1], [1.7e308, -1.7e308, 1.7e308, -1.7e308])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            in_range(np.eye(2), [1.0, 2.0, 3.0])

    def test_span_truncated_at_rank_tol(self):
        # sigma ratio ~5e-13: dependent at 1e-9, so only the first column's
        # direction spans, and independent at 1e-15, so the plane does.
        columns = np.array([[1.0, 1.0], [0.0, 1e-12]])
        truncated = in_range(columns, [0.0, 1.0], rank_tol=1e-9)
        assert not truncated.contained
        assert truncated.residual == pytest.approx(1.0)
        assert in_range(columns, [0.0, 1.0], rank_tol=1e-15).contained

    def test_each_tolerance_moves_only_its_own_outcome(self):
        columns = np.array([[1.0, 1.0], [0.0, 1e-12]])
        v = [0.0, 1.0]
        # residual_tol moves the verdict, never the span or the residual
        strict = in_range(columns, v, residual_tol=1e-9, rank_tol=1e-9)
        loose = in_range(columns, v, residual_tol=10.0, rank_tol=1e-9)
        assert not strict.contained and loose.contained
        assert loose.residual == strict.residual
        # rank_tol moves the span and so the residual, at a fixed threshold
        full = in_range(columns, v, residual_tol=1e-9, rank_tol=1e-15)
        assert full.contained and full.residual < 1e-12
        # a full-rank span holds every vector whatever the residual_tol
        for residual_tol in (1e-15, 1e-9, 10.0):
            assert in_range(np.eye(2), v, residual_tol=residual_tol, rank_tol=1e-9).contained

    def test_threshold_scales_with_the_vector(self):
        column = np.array([[1.0], [0.0]])
        assert in_range(column, [100.0, 1e-8], residual_tol=1e-9).contained
        assert not in_range(column, [0.1, 1e-8], residual_tol=1e-9).contained

    def test_complex_image_contained(self):
        for _ in range(20):
            rows = int(RNG.integers(1, 6))
            cols = int(RNG.integers(1, 6))
            m = RNG.normal(size=(rows, cols)) + 1j * RNG.normal(size=(rows, cols))
            x = RNG.normal(size=cols) + 1j * RNG.normal(size=cols)
            assert in_range(m, m @ x).contained

    def test_zero_matrix_spans_nothing(self):
        check = in_range(np.zeros((2, 2)), [3.0, 4.0])
        assert not check.contained
        assert check.residual == pytest.approx(5.0)


class TestVectorNorm:
    """Every vector is scaled to a unit peak before its squares are summed."""

    def test_ordinary_vectors_keep_the_bits_of_numpy(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 13))) * 10.0 ** rng.uniform(-100, 100)
            assert numerics.vector_norm(v) == float(np.linalg.norm(v))

    @pytest.mark.parametrize("peak", [1e308, 1e200, 1e-200, 1e-310, 5e-324])
    def test_norm_at_any_magnitude(self, peak):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert numerics.vector_norm([peak, 0.0]) == peak
            norm = numerics.vector_norm([peak, -peak, 1j * peak])
        # A subnormal norm is exact only to the subnormal spacing, 5e-324.
        assert norm == pytest.approx(math.sqrt(3) * peak, rel=1e-12, abs=5e-324)

    def test_norm_beyond_the_float_range_is_inf(self):
        assert numerics.vector_norm([1.7e308, 1.7e308]) == math.inf


class TestColumnNormalization:
    """Columns whose squared norm leaves the normal floats are normalized
    too, with no warning, and every other column keeps its bits."""

    @pytest.mark.parametrize(
        "system, t",
        [
            # e^400 ~ 5e173: its square overflows, and the column became zero.
            (Realization(np.diag([1.0, -1.0]), [1.0, 1.0], [1.0, 1.0]), 400.0),
            (Realization(np.diag([1.0, -1.0]), [1.0, 1.0], [1.0, 1.0]), 350.0),
            # e^-400 ~ 2e-174: its square underflows to 0, and the column
            # was left unscaled; e^-360 squares to a subnormal.
            (Realization([[-400.0, 1.0], [0.0, -400.0]], [0.0, 1.0], [1.0, 0.0]), 1.0),
            (Realization([[-400.0, 1.0], [0.0, -400.0]], [0.0, 1.0], [1.0, 0.0]), 0.9),
        ],
    )
    def test_extreme_columns_give_the_identity(self, system, t):
        # Both normalized mode matrices are the identity up to 1e-156.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = joint_verdict(system, SamplingSchedule((0.0, t)))
        assert report.sigma_ratio == pytest.approx(1.0, rel=1e-12)
        assert report.reachable

    @pytest.mark.parametrize("extreme", [1e200, 1e-170, 1e-160, 1e308, 1e-310, 1e-320])
    def test_other_columns_keep_their_bits(self, extreme):
        # Entries in [-1, 1) from a generator of its own: times 1e308 they
        # stay finite whatever the other tests draw.
        rng = np.random.default_rng(478)
        exponent = -np.frexp(extreme)[1]
        complex_normal = rng.uniform(-1.0, 1.0, (3, 3)) + 1j * rng.uniform(-1.0, 1.0, (3, 3))
        for normal in (complex_normal, rng.uniform(-1.0, 1.0, (3, 3))):
            odd = normal.copy()
            odd[:, 1] *= extreme
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled = numerics._unit_columns(odd)
            plain = numerics._unit_columns(normal)
            assert scaled.dtype == normal.dtype
            assert np.array_equal(scaled[:, [0, 2]], plain[:, [0, 2]])
            # A subnormal column keeps only the bits it has; scaled back by a
            # power of two, which is exact, it normalizes to the same floats.
            back = odd.copy()
            back[:, 1] = back[:, 1] * 2.0 ** (exponent // 2) * 2.0 ** (exponent - exponent // 2)
            assert np.array_equal(scaled[:, 1], numerics._unit_columns(back)[:, 1])
            assert column_normalized_sigma_ratio(odd) == pytest.approx(
                column_normalized_sigma_ratio(back), rel=1e-12
            )
            if extreme > 1e-300:
                assert np.allclose(scaled[:, 1], plain[:, 1], rtol=1e-14, atol=0.0)
                assert column_normalized_sigma_ratio(odd) == pytest.approx(
                    column_normalized_sigma_ratio(normal), rel=1e-12
                )

    def test_zero_and_stacked_columns(self):
        stack = np.zeros((2, 2, 2))
        stack[0] = [[1.0, 0.0], [1e-200, 0.0]]
        stack[1] = np.eye(2)
        assert np.array_equal(
            numerics._unit_columns(stack), [[[1.0, 0.0], [1e-200, 0.0]], np.eye(2)]
        )
        assert column_normalized_sigma_ratio(stack).tolist() == [0.0, 1.0]


class TestTolerances:
    @pytest.mark.parametrize("field", ["singularity", "cluster", "rank", "residual"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_non_positive_or_non_finite(self, field, value):
        with pytest.raises(ToleranceError, match=field) as caught:
            Tolerances(**{field: value})
        assert isinstance(caught.value, AnalysisError)

    def test_kernel_defaults_are_the_bundle_defaults(self):
        defaults = Tolerances()
        for function, name, field in [
            (eig_clustered, "cluster_tol", "cluster"),
            (numeric_rank, "rank_tol", "rank"),
            (in_range, "residual_tol", "residual"),
            (in_range, "rank_tol", "singularity"),
        ]:
            default = inspect.signature(function).parameters[name].default
            assert default == getattr(defaults, field)

    def test_accepts_positive_numbers(self):
        assert Tolerances(singularity=1e-3, cluster=np.float64(1e-5), rank=1, residual=0.5).rank == 1


ROTATION_A = [[0.0, -1.0], [1.0, 0.0]]


def deadbeat_until(t_final):
    system = Realization(ROTATION_A, [1.0, 0.0], [1.0, 0.0])
    schedule = SamplingSchedule((0.0, 0.25))
    return deadbeat_inputs(system, schedule, [1.0, 0.0], [0.0, 1.0], t_final)


# The real inputs outside the scheduler and the vector arguments: a call
# setting the input (or one entry of it) to a value, the error class and the
# start of the message that names the input, and what the call stored of the
# value (None: the result must equal that of the call with float(value)).
REAL_INPUTS = {
    "Tolerances": (lambda v: Tolerances(rank=v), ToleranceError, "tolerance rank",
                   lambda r: r.rank),
    "SamplingSchedule": (lambda v: SamplingSchedule((0.0, v)), DimensionError,
                         "schedule instants", lambda r: r.instants[1]),
    "shifted": (lambda v: SamplingSchedule((0.0, 1.0)).shifted(v), DimensionError,
                "shift delta", lambda r: r.instants[0]),
    "expm": (lambda v: expm(np.array(ROTATION_A), v), NumericRangeError, "expm needs", None),
    "t_final": (deadbeat_until, DimensionError, "t_final", None),
    "A": (lambda v: Realization([[0.0, -1.0], [1.0, v]], [1.0, 0.0], [1.0, 0.0]),
          DimensionError, "A ", lambda r: r.A[1, 1]),
    "b": (lambda v: Realization(ROTATION_A, [1.0, v], [1.0, 0.0]), DimensionError, "b ",
          lambda r: r.b[1]),
    "c": (lambda v: Realization(ROTATION_A, [1.0, 0.0], [1.0, v]), DimensionError, "c ",
          lambda r: r.c[1]),
}


class TestRealInputs:
    """One rule for every real input (``numerics.as_float``): a bool, a
    string, a complex number or None raises the input's own package error,
    naming it, as does an integer beyond the float range, NaN or infinity;
    numpy and Python integers and floats are stored as floats."""

    # t_final=None asks for the default final time.
    @pytest.mark.parametrize(
        "name, value",
        [
            pytest.param(name, *bad.values, id=f"{name}-{bad.id}")
            for name in REAL_INPUTS
            for bad in BAD_REALS
            if not (name == "t_final" and bad.values == (None,))
        ],
    )
    def test_refused(self, name, value):
        call, error, words, _ = REAL_INPUTS[name]
        with pytest.raises(error, match="^" + re.escape(words)):
            call(value)

    @pytest.mark.parametrize("value", GOOD_REALS)
    @pytest.mark.parametrize("name", REAL_INPUTS)
    def test_accepted_as_float(self, name, value):
        call, _, _, stored = REAL_INPUTS[name]
        if stored is None:
            assert np.array_equal(call(value), call(float(value)))
        else:
            number = stored(call(value))
            assert type(number) in (float, np.float64) and number == float(value)

    def test_scalars(self):
        def error():
            return AnalysisError("refused")

        for value, number in [(np.array(2), 2.0), (np.float32(0.5), 0.5), (-(10**400), -np.inf)]:
            converted = numerics.as_float(value, error)
            assert type(converted) is float and converted == number
        for bad in (np.array(True), np.bool_(True), np.array([1.0]), np.array(1j), [1.0]):
            with pytest.raises(AnalysisError, match="refused"):
                numerics.as_float(bad, error)

    def test_arrays(self):
        def error():
            return AnalysisError("refused")

        converted = numerics.as_real(np.arange(4, dtype=np.int32).reshape(2, 2), error)
        assert converted.dtype == float and converted.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        nested = numerics.as_real([[1, np.float32(0.5)], (np.int64(2), 10**400)], error)
        assert nested.tolist() == [[1.0, 0.5], [2.0, np.inf]]
        scalar = numerics.as_real(-(10**400), error)
        assert type(scalar) is np.ndarray and scalar.shape == () and scalar == -np.inf
        for bad in (np.array([True]), np.array([1j]), np.array(["1"]), [[1.0, 2.0], [3.0]],
                    [1.0, [2.0]], [np.float64(1.0), np.bool_(True)]):
            with pytest.raises(AnalysisError, match="refused"):
                numerics.as_real(bad, error)

    def test_flat_float_sequences(self):
        # A list or tuple of exact floats takes one np.array call; the
        # result equals the per-entry conversion, bit for bit.
        def error():
            return AnalysisError("refused")

        for values in [(0.0, 1.5, -2.25), [1e308, 5e-324, -0.0], (), [0.1]]:
            converted = numerics.as_real(values, error)
            expected = np.array([numerics.as_float(x, error) for x in values], dtype=float)
            assert converted.dtype == float and converted.shape == (len(values),)
            assert np.array_equal(converted.view(np.uint64), expected.view(np.uint64))
        mixed = numerics.as_real((0.5, 10**400, np.float64(2.0)), error)
        assert mixed.tolist() == [0.5, np.inf, 2.0]
        for bad in ([1.0, True], (1.0, "2"), [1.0, 1j], (1.0, None), [1.0, [2.0]]):
            with pytest.raises(AnalysisError, match="refused"):
                numerics.as_real(bad, error)


BAD_MATRICES = [
    pytest.param(np.eye(2, dtype=bool), id="bool"),
    pytest.param([["1", "0"], ["0", "1"]], id="string"),
    pytest.param(np.array([[1.0, None], [None, 1.0]]), id="object"),
]


class TestMatrixInputs:
    """``expm``, ``in_range`` and ``numeric_rank`` take integer, real or
    complex arrays; any other dtype raises DimensionError naming the
    argument."""

    @pytest.mark.parametrize("value", BAD_MATRICES)
    @pytest.mark.parametrize(
        "call, name",
        [
            (expm, "expm matrix"),
            (numeric_rank, "numeric_rank matrix"),
            (lambda m: in_range(m, [1.0, 0.0]), "in_range matrix"),
            (lambda m: in_range(np.eye(2), np.asarray(m)[0]), "in_range vector"),
        ],
        ids=["expm", "numeric_rank", "in_range-matrix", "in_range-vector"],
    )
    def test_refused(self, call, name, value):
        with pytest.raises(DimensionError, match=f"^{name} must hold integer, real or complex"):
            call(value)

    def test_integer_and_complex_accepted(self):
        rotation = np.array([[0, -1], [1, 0]])
        assert np.array_equal(expm(rotation, 0.5), expm(rotation.astype(float), 0.5))
        assert expm(1j * rotation, 0.5).dtype == complex
        assert numeric_rank(np.eye(3, dtype=np.int32)).rank == 3
        assert numeric_rank(np.array([[1.0, 1j], [1j, -1.0]])).rank == 1
        assert in_range(np.eye(2, dtype=complex), [1, 0]).contained
