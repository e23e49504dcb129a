"""Kernel tests: matrix exponential, clustered eigenvalues, rank, membership."""

import inspect
import warnings

import numpy as np
import pytest
import scipy.linalg

from nusamp import (
    AnalysisError,
    DimensionError,
    NumericRangeError,
    ToleranceError,
    Tolerances,
    eig_clustered,
    expm,
    in_range,
    numeric_rank,
)

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
