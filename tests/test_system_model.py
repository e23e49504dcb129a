"""Realization validation, minimality, mode sets and the modal decomposition."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nusamp import (
    DimensionError,
    MinimalityError,
    ModalDecomposition,
    ModeSet,
    Realization,
    SamplingSchedule,
    ScheduleSearchSpec,
    ToleranceError,
    Tolerances,
    UnsupportedOrderError,
    check_minimal,
    cross_validate,
    deadbeat_inputs,
    factor_n2,
    forbidden_instants_order2,
    joint_verdict,
    modal_decompose,
    mode_matrix,
    reachability_matrix,
    reconstruct_state,
    simulate_impulse,
    suggest_schedule,
    validate_uniform,
)
from nusamp import numerics, system_model
from nusamp.cli import SystemDocument
from nusamp.system_model import require_minimal
from conftest import (
    _real_modal_block,
    block_diagonal,
    count_calls,
    random_eigen_structure,
    random_minimal_system,
    random_orthogonal,
    random_well_conditioned,
)

RNG = np.random.default_rng(7)
CORPUS = Path(__file__).parent / "corpus"
CORPUS_SYSTEMS = sorted(path.stem for path in CORPUS.glob("*.json") if path.stem != "runs")


class TestRealization:
    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            Realization(np.eye(2), [1.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            Realization(np.ones((2, 3)), [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            Realization([[np.inf]], [1.0], [1.0])

    def test_rejects_complex_arrays(self):
        # Cast to float, a complex array would silently lose its imaginary part.
        real = {"A": np.eye(2), "b": np.array([1.0, 0.0]), "c": np.array([1.0, 0.0])}
        for name, value in real.items():
            arrays = dict(real, **{name: value.astype(complex) * 1j})
            with pytest.raises(DimensionError, match=f"^{name} must be a real array$"):
                Realization(**arrays)

    def test_rejects_ragged_matrix(self):
        with pytest.raises(DimensionError, match="^A must be a real array$"):
            Realization([np.zeros((2, 2)), np.zeros((2, 3))], [1.0, 0.0], [1.0, 0.0])

    def test_order_cap(self):
        n = 13
        with pytest.raises(UnsupportedOrderError):
            Realization(np.eye(n), np.ones(n), np.ones(n))

    def test_immutable_arrays(self, rotation_system):
        with pytest.raises(ValueError):
            rotation_system.A[0, 0] = 5.0

    def test_copies_the_callers_arrays(self):
        # The caller's arrays stay writeable, and a later write to them (or
        # to the array a view was cut from) never reaches the realization or
        # the facts it caches.
        A, b, c = np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        Realization(A, b, c)
        assert A.flags.writeable and b.flags.writeable and c.flags.writeable
        big = np.array([[0.0, -1.0, 7.0], [1.0, 0.0, 7.0], [7.0, 7.0, 7.0]])
        system = Realization(big[:2, :2], b, c)
        before = system.modes
        big[0, 1] = -4.0
        assert system.A[0, 1] == -1.0
        assert [lam for lam, _ in system.modes.roots] == pytest.approx([-1j, 1j])
        assert system.modes is before
        assert [lam for lam, _ in Realization(big[:2, :2], b, c).modes.roots] == pytest.approx(
            [-2j, 2j]
        )

    def test_dual_swaps_b_and_c(self, rotation_system):
        dual = rotation_system.dual()
        assert np.array_equal(dual.A, rotation_system.A.T)
        assert np.array_equal(dual.b, rotation_system.c)
        assert np.array_equal(dual.c, rotation_system.b)

    def test_dual_facts_are_those_of_a_c_ordered_transpose(self):
        # dual() hands over the transposed view of A; its realization is C
        # ordered like any other, so LAPACK rounds its facts alike.
        rng = np.random.default_rng(24)
        for n in range(1, 13):
            system = random_minimal_system(rng, n, allow_defective=n % 3 == 0)
            dual, copy = system.dual(), Realization(system.A.T.copy(), system.c, system.b)
            assert dual.A.flags.c_contiguous
            assert all(np.array_equal(x, y) for x, y in zip(dual.eigen, copy.eigen)), n
            assert dual.minimality == copy.minimality, n
            ours, theirs = dual.decomposition, copy.decomposition
            assert ours.modes == theirs.modes, n
            for name in ("J", "B", "y0"):
                assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), (n, name)

    def test_dual_keeps_the_tolerances(self, rotation_system):
        strict = replace(rotation_system, tolerances=Tolerances(singularity=0.05))
        assert strict.dual().tolerances is strict.tolerances

    def test_equality_is_identity(self, rotation_system):
        # A realization carries cached facts, so it equals only itself and
        # hashes by identity; comparing array fields used to raise.
        r = rotation_system
        assert r == r
        assert (r == Realization(r.A, r.b, r.c)) is False
        assert {r: 1}[r] == 1
        assert replace(r, tolerances=Tolerances(singularity=0.05)) != r

    def test_array_records_compare_by_identity(self, rotation_system):
        schedule = SamplingSchedule((0.0, 1.0, 2.0))
        document = SystemDocument(order=2, A=rotation_system.A, b=rotation_system.b,
                                  c=rotation_system.c)
        for record in (
            rotation_system.decomposition,
            reachability_matrix(rotation_system, schedule),
            simulate_impulse(rotation_system, schedule, [1.0, 0.0]),
            document,
        ):
            assert record == record
            assert (record == replace(record)) is False
            assert {record: 1}[record] == 1

    def test_tolerances_must_be_a_bundle(self):
        with pytest.raises(ToleranceError, match="tolerances must be a Tolerances"):
            Realization([[-1.0]], [1.0], [1.0], {"singularity": 1e-6})


class TestCheckMinimal:
    def test_rotation_is_minimal(self, rotation_system):
        report = check_minimal(rotation_system)
        assert report.minimal
        assert report.controllability_rank.rank == 2
        assert report.observability_rank.rank == 2

    def test_decoupled_mode_not_minimal(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        report = check_minimal(system)
        assert not report.controllable_ct
        assert not report.minimal

    def test_scalar_minimal(self, scalar_system):
        assert check_minimal(scalar_system).minimal

    def test_similarity_invariance(self):
        from conftest import random_well_conditioned

        for _ in range(20):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            t = random_well_conditioned(RNG, n)
            t_inv = np.linalg.inv(t)
            transformed = Realization(
                t @ system.A @ t_inv, t @ system.b, system.c @ t_inv
            )
            assert check_minimal(transformed).minimal == check_minimal(system).minimal

    @pytest.mark.parametrize("name", CORPUS_SYSTEMS)
    def test_corpus_reports_do_not_depend_on_the_time_unit(self, name):
        document = json.loads((CORPUS / f"{name}.json").read_text())
        n = document["order"]
        A = np.reshape(document["A"], (n, n))
        _assert_time_unit_free(Realization(A, document["b"], document["c"]))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_reports_do_not_depend_on_the_time_unit(self, n):
        rng = np.random.default_rng([2727, n])
        for k in range(10):
            _assert_time_unit_free(random_minimal_system(rng, n, allow_defective=k % 2 == 1))


def _assert_time_unit_free(system: Realization):
    """(sA, b, c) is (A, b, c) in another time unit: the same flags, and
    the report's bits when s is a power of two.  Other factors round A's
    entries, which moves a sigma ratio, sigma_min / sigma_max, by about
    n * eps absolute: up to 1e-10 relative near the draws' 1e-6 floor."""
    report = check_minimal(system)
    ratios = lambda r: (r.controllability_rank.sigma_ratio, r.observability_rank.sigma_ratio)
    for s in (1e-30, 1e-3, 0.1, 3.7, 10.0, 1e3, 1e40):
        scaled = check_minimal(Realization(system.A * s, system.b, system.c))
        assert (scaled.controllable_ct, scaled.observable_ct) == (
            report.controllable_ct, report.observable_ct
        ), s
        for got, want in zip(ratios(scaled), ratios(report)):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-14), s
    for k in (-100, -7, -1, 1, 5, 60, 100):
        assert check_minimal(Realization(system.A * 2.0**k, system.b, system.c)) == report, k


class TestRandomMinimalSystem:
    def test_crowded_defective_spectra_draw_a_new_structure(self):
        # 18 of these 120 draws exhaust the vector draws on their first
        # eigenvalue structure.
        for seed in (26, 1, 2):
            rng = np.random.default_rng(seed)
            for n in range(9, 13):
                for _ in range(10):
                    assert check_minimal(random_minimal_system(rng, n, allow_defective=True)).minimal


class TestModeSet:
    def test_diag(self, diag_system):
        modes = diag_system.modes
        assert modes.roots == ((-1.0, 1), (0.0, 1))
        lams, powers, _ = modes.kernel
        assert lams.tolist() == [-1.0, 0.0] and powers.tolist() == [0.0, 0.0]

    def test_jordan_block(self):
        system = Realization([[-1.0, 1.0], [0.0, -1.0]], [0.0, 1.0], [1.0, 0.0])
        modes = system.modes
        assert modes.roots == ((-1.0, 2),)
        lams, powers, _ = modes.kernel
        assert lams.tolist() == [-1.0, -1.0] and powers.tolist() == [0.0, 1.0]

    def test_rotation(self, rotation_system):
        modes = rotation_system.modes
        assert modes.r == 2
        assert modes.roots[0][0] == pytest.approx(-1j)
        assert modes.roots[1][0] == pytest.approx(1j)

    def test_similarity_invariance(self):
        for _ in range(20):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            q = random_orthogonal(RNG, n)
            transformed = Realization(q @ system.A @ q.T, q @ system.b, system.c @ q.T)
            original = system.modes
            moved = transformed.modes
            assert original.r == moved.r
            for (lam1, m1), (lam2, m2) in zip(original.roots, moved.roots):
                assert m1 == m2
                assert abs(lam1 - lam2) < 1e-6


class TestEvalMode:
    def test_values(self):
        # Mode (lam, p) is t**p exp(lam t): row m of the mode matrix holds
        # every mode at alpha_m.
        modes = ModeSet(((-1.0, 2),))
        at_zero, at_one = mode_matrix(modes, [0.0, 1.0])
        assert at_zero == pytest.approx([1.0, 0.0])  # exp(-t), t exp(-t) at 0
        assert at_one == pytest.approx([np.exp(-1.0), np.exp(-1.0)])


class TestModalDecompose:
    def test_diagonal_system(self, diag_system):
        decomposition = modal_decompose(diag_system)
        assert np.allclose(decomposition.J, np.diag([-1.0, 0.0]))
        # eigenvectors of a diagonal matrix are unit vectors
        assert np.allclose(np.abs(decomposition.B), np.eye(2)[:, [1, 0]])
        assert np.all(np.abs(decomposition.y0) > 0.5)

    def test_scalar(self, scalar_system):
        decomposition = modal_decompose(scalar_system)
        assert decomposition.J == pytest.approx(np.array([[-1.0]]))
        assert abs(decomposition.y0[0]) == pytest.approx(1.0)

    def test_decomposition_holds_only_its_facts(self):
        names = [f.name for f in fields(ModalDecomposition)]
        assert names == ["modes", "J", "B", "y0"]

    def test_rotation_y0(self, rotation_system):
        decomposition = modal_decompose(rotation_system)
        assert np.allclose(
            decomposition.B @ decomposition.y0, rotation_system.b, atol=1e-12
        )
        assert np.all(np.abs(decomposition.y0) > 1e-3)

    def test_non_minimal_raises(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(MinimalityError, match="controllability"):
            system.decomposition
        decomposition = modal_decompose(system)
        assert abs(decomposition.y0[0]) < 1e-12  # the -1 mode is unexcited

    def test_reconstruction_invariant(self):
        # A = B J B^-1 and B y0 = b, recomputed from J, B and y0 at every
        # supported order.  A draw whose Kalman matrices are too ill
        # conditioned for the generator is drawn again.
        rng = np.random.default_rng(26)
        defective = 0
        for n in range(1, 13):
            for _ in range(3):
                while True:
                    try:
                        system = random_minimal_system(rng, n, allow_defective=True)
                        break
                    except AssertionError:
                        pass
                d = modal_decompose(system)
                defective += d.modes.kernel[2]
                residual = np.linalg.norm(system.A - d.B @ d.J @ np.linalg.inv(d.B))
                assert residual <= 1e-8 * max(1.0, np.linalg.norm(system.A)), n
                misfit = np.linalg.norm(d.B @ d.y0 - system.b)
                assert misfit <= 1e-8 * max(1.0, np.linalg.norm(system.b)), n
        assert defective >= 20

    def test_svds_are_the_jordan_chains(self, monkeypatch):
        # y0 comes from one solve: the only SVDs are those of the Jordan
        # chains, one per defective cluster on or above the real axis.
        rng = np.random.default_rng(33)
        calls = count_calls(monkeypatch, [(np.linalg, "svd")])
        chains = 0
        for n in range(1, 13):
            for allow_defective in (False, True, True):
                system = random_minimal_system(rng, n, allow_defective=allow_defective)
                roots = system.modes.roots
                calls.clear()
                modal_decompose(system)
                expected = sum(1 for lam, m in roots if m > 1 and lam.imag >= 0.0)
                assert calls["svd"] == expected, (n, roots)
                chains += expected
        assert chains >= 10

    def test_jordan_chain_structure(self):
        # exact Jordan block: B should reproduce A = B J B^-1 with unit
        # superdiagonal J and a chain satisfying (A - lam I) v2 = v1
        a = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        system = Realization(a, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        decomposition = modal_decompose(system)
        assert decomposition.modes.roots == ((-1.0, 3),)
        shifted = a.astype(complex) + np.eye(3)
        for k in range(2):
            lhs = shifted @ decomposition.B[:, k + 1]
            assert np.allclose(lhs, decomposition.B[:, k], atol=1e-8)


class TestModalBasis:
    """The basis from one eigendecomposition, on seeded spectra of orders 1-12."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_seeded_spectra(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        sizes = []
        original = system_model._jordan_chain

        def recorded(A, lam, size, rcond):
            sizes.append(size)
            return original(A, lam, size, rcond)

        monkeypatch.setattr(system_model, "_jordan_chain", recorded)
        for kind in ("simple", "defective", "nearly_defective"):
            for _ in range(4):
                system, well_conditioned = _seeded_system(rng, n, kind)
                del sizes[:]
                decomposition = modal_decompose(system)
                A, B, J, y0 = system.A, decomposition.B, decomposition.J, decomposition.y0
                assert np.linalg.norm(A @ B - B @ J) <= 1e-9 * max(1.0, np.linalg.norm(A))
                assert np.linalg.norm(B @ y0 - system.b) <= 1e-9 * np.linalg.norm(system.b)
                offset = 0
                for _, m in decomposition.modes.roots:
                    vector = B[:, offset]
                    pivot = vector[np.argmax(np.abs(vector))]
                    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)
                    assert pivot.real > 0.0 and abs(pivot.imag) <= 1e-12
                    offset += m
                # y0 of a real system: real on real clusters, conjugate on
                # conjugate clusters, exactly.
                roots = decomposition.modes.roots
                blocks = np.split(y0, np.cumsum([m for _, m in roots])[:-1])
                for (lam, _), block in zip(roots, blocks):
                    partner = next(b for (mu, _), b in zip(roots, blocks) if mu == lam.conjugate())
                    assert np.array_equal(block, partner.conj())
                # Chains only for defective clusters, once per conjugate pair.
                assert all(size > 1 for size in sizes)
                assert len(sizes) == sum(1 for lam, m in roots if m > 1 and lam.imag >= 0.0)
                if well_conditioned:
                    B_ref, y0_ref = _reference_basis(system, decomposition.modes)
                    assert np.linalg.norm(B - B_ref) <= 1e-8 * np.linalg.norm(B_ref)
                    assert np.linalg.norm(y0 - y0_ref) <= 1e-8 * np.linalg.norm(y0_ref)

    def test_conjugate_mirrors_are_exact(self):
        # Orders 1-12 mixing repeated, defective and near-real pairs, some
        # perturbed so that Jordan blocks split into stars of a real value
        # and conjugate pairs, each clustered at several tolerances: the
        # cluster list is exactly conjugate-closed, and y0 exactly mirrors
        # across conjugate clusters.
        rng = np.random.default_rng(2026)
        for _ in range(150):
            a, b, c = _mirror_draw(rng, int(rng.integers(1, 13)))
            for cluster in (1e-9, 1e-7, 1e-3, 1e-1):
                decomposition = modal_decompose(Realization(a, b, c, Tolerances(cluster=cluster)))
                roots = decomposition.modes.roots
                assert sorted(roots, key=str) == sorted(
                    ((lam.conjugate(), m) for lam, m in roots), key=str
                )
                starts = np.cumsum([0] + [m for _, m in roots])
                swap = [
                    starts[roots.index((lam.conjugate(), m))] + p
                    for lam, m in roots for p in range(m)
                ]
                y0 = decomposition.y0
                assert np.array_equal(y0[swap], y0.conj())
                # The mode-level mate map is that swap, and each column
                # below the real axis is its mate's conjugate, exactly.
                assert decomposition.modes.mates.tolist() == swap
                lower = decomposition.modes.kernel[0].imag < 0.0
                B = decomposition.B
                assert np.array_equal(B[:, lower], B[:, np.array(swap)[lower]].conj())

    def test_nearly_defective_clusters_take_distinct_columns(self):
        rng = np.random.default_rng(5)
        for delta in (1e-16, 1e-14, 1e-12):
            q = random_orthogonal(rng, 2)
            a = q @ np.array([[-1.0, 1.0], [delta, -1.0]]) @ q.T
            system = Realization(a, [0.3, 1.0], [1.0, 0.2])
            decomposition = replace(system, tolerances=Tolerances(cluster=1e-15)).decomposition
            assert decomposition.modes.r == 2
            assert sorted(_eig_columns(system, decomposition.B)) == [0, 1]


def _seeded_system(rng: np.random.Generator, n: int, kind: str):
    """An order-n realization of a seeded spectrum, and whether its basis is
    well conditioned with a unique canonical phase.

    ``simple``: distinct real eigenvalues and conjugate pairs under a random
    well-conditioned similarity.  ``defective``: Jordan blocks up to size 4
    as well, kept in modal form when transforming them would split the
    eigenvalue.  ``nearly_defective``: a simple spectrum plus (when n >= 2)
    a real Jordan pair whose corner entry ``delta`` splits it into two
    eigenvalues ``2 sqrt(delta)`` apart, with nearly parallel eigenvectors.
    """
    near = kind == "nearly_defective" and n >= 2
    structure = random_eigen_structure(rng, n - 2 * near, allow_defective=kind == "defective")
    blocks = [_real_modal_block(re, im, m) for re, im, m in structure]
    if near:
        lam = 2.5 + rng.uniform(0.0, 0.5)  # apart from the rest of the spectrum
        blocks.append(np.array([[lam, 1.0], [10.0 ** rng.uniform(-12, -10), lam]]))
    a = block_diagonal(blocks)
    transform = not any((m >= 3 if im == 0.0 else m >= 2) for _, im, m in structure)
    t = random_well_conditioned(rng, n) if transform else np.eye(n)
    system = Realization(t @ a @ np.linalg.inv(t), t @ rng.normal(size=n), rng.normal(size=n))
    # Modal form (or an orthogonal basis) puts the two largest entries of a
    # pair's eigenvector at equal magnitude, where the canonical phase may
    # pick either; compare with the reference only on transformed,
    # well-separated spectra.
    return system, transform and not near


def _mirror_draw(rng: np.random.Generator, n: int):
    """(A, b, c) of a real order-n matrix built from real values, conjugate
    pairs (some repeated), near-real pairs and real or complex Jordan blocks
    under a random similarity, perturbed half the time by up to 1e-6.  The
    triple need not be minimal."""
    blocks, size = [], 0
    while size < n:
        room = n - size
        kind = int(rng.integers(5)) if room >= 2 else 0
        re, im = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)
        if kind == 0:
            block = _real_modal_block(re, 0.0, 1)
        elif kind == 1:  # real Jordan block
            block = _real_modal_block(re, 0.0, int(rng.integers(2, room + 1)))
        elif kind == 2 and room >= 4:  # complex Jordan block
            block = _real_modal_block(re, im, int(rng.integers(2, room // 2 + 1)))
        elif kind == 3:  # near-real pair
            block = _real_modal_block(re, 10.0 ** rng.uniform(-10.0, -4.0), 1)
        else:  # a pair, repeated half the time when there is room
            block = _real_modal_block(re, im, 1)
            if room >= 4 and rng.random() < 0.5:
                blocks.append(block)
                size += 2
        blocks.append(block)
        size += len(block)
    t = random_well_conditioned(rng, n)
    a = t @ block_diagonal(blocks) @ np.linalg.inv(t)
    if rng.random() < 0.5:
        a += 10.0 ** rng.uniform(-12.0, -6.0) * rng.normal(size=(n, n))
    return a, rng.normal(size=n), rng.normal(size=n)


def _reference_basis(system: Realization, modes: ModeSet, cluster_tol: float = 1e-7):
    """B and y0 by the construction the single eigendecomposition replaced:
    one SVD of ``A - lam I`` per cluster (plus a pseudo-inverse for chains),
    conjugate partners reused."""
    A = system.A.astype(complex)

    def svd_chain(lam, m):
        shifted = A - lam * np.eye(system.n)
        vector = np.linalg.svd(shifted)[2][-1].conj()
        pivot = vector[np.argmax(np.abs(vector))]
        chain = [vector * np.conj(pivot / abs(pivot))]
        pinv = np.linalg.pinv(shifted, rcond=cluster_tol)
        for _ in range(m - 1):
            chain.append(pinv @ chain[-1])
        return chain

    roots = modes.roots
    chains = {j: svd_chain(lam, m) for j, (lam, m) in enumerate(roots) if lam.imag >= 0.0}
    for j, (lam, m) in enumerate(roots):
        if j not in chains:
            partner = next(
                (k for k, (other, mk) in enumerate(roots)
                 if mk == m and abs(np.conj(other) - lam) <= cluster_tol * max(1.0, abs(lam))),
                None,
            )
            chains[j] = [np.conj(v) for v in chains[partner]] if partner in chains else svd_chain(lam, m)
    B = np.column_stack([v for j in range(len(roots)) for v in chains[j]])
    return B, np.linalg.solve(B, system.b.astype(complex))


def _eig_columns(system: Realization, B: np.ndarray) -> list:
    """For each column of B, the index of the eigendecomposition column it is."""
    canonical = system_model._canonical_phase(np.linalg.eig(system.A)[1].astype(complex))
    return [
        next(k for k in range(B.shape[1]) if np.array_equal(canonical[:, k], B[:, j]))
        for j in range(B.shape[1])
    ]


class TestCheckY0Components:
    # The y0 weighting N2 is nonzero exactly when the pair is controllable:
    # the last y0 component of every Jordan block is nonzero.
    def test_minimal_rotation(self, rotation_system):
        decomposition = modal_decompose(rotation_system)
        assert decomposition.y0 == pytest.approx([np.sqrt(0.5), np.sqrt(0.5)])
        assert factor_n2(decomposition) == pytest.approx(0.5)

    def test_decoupled_mode(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        assert factor_n2(modal_decompose(system)) == 0

    def test_scalar(self, scalar_system):
        assert factor_n2(modal_decompose(scalar_system)) != 0
        zero_b = Realization([[-1.0]], [0.0], [1.0])
        assert factor_n2(modal_decompose(zero_b)) == 0

    def test_matches_controllability_for_distinct_eigenvalues(self):
        agree = 0
        for _ in range(60):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            if RNG.uniform() < 0.5:
                # decouple one mode by zeroing a modal component of b
                decomposition = modal_decompose(system)
                y0 = decomposition.y0.copy()
                y0[int(RNG.integers(n))] = 0.0
                b = np.real(decomposition.B @ y0)
                system = Realization(system.A, b, system.c)
            report = check_minimal(system)
            y0 = modal_decompose(system).y0
            # Simple blocks: every component is the last of its block.
            weighted = bool(np.all(np.abs(y0) > 1e-9 * np.linalg.norm(y0)))
            assert weighted == report.controllable_ct
            agree += 1
        assert agree == 60


class TestPreparedSystem:
    """The facts a realization caches: computed once per object and shared
    by every analysis it is passed to, never across objects."""

    def test_plain_realization_gets_default_tolerances(self, rotation_system):
        assert rotation_system.tolerances == Tolerances(1e-9, 1e-7, 1e-9, 1e-9)

    def test_facts_computed_once_across_analyses(self, rotation_system, monkeypatch):
        calls = count_calls(monkeypatch, [
            (system_model, "check_minimal"),
            (system_model, "modal_decompose"),
            (numerics, "eig_clustered"),
            (np.linalg, "eig"),
            (np.linalg, "eigvals"),
        ])
        two, three = SamplingSchedule((0.0, 1.0)), SamplingSchedule((0.0, 1.0, 2.5))
        joint_verdict(rotation_system, three)
        cross_validate(rotation_system, three)
        deadbeat_inputs(rotation_system, two, [1.0, 0.0], [0.0, 1.0])
        reconstruct_state(rotation_system, two, [1.0, 0.5])
        validate_uniform(rotation_system, 0.5)
        # One eigendecomposition serves the mode set and the modal basis.
        assert calls == {
            "check_minimal": 1, "modal_decompose": 1, "eig_clustered": 1, "eig": 1
        }

    def test_search_reuses_the_clustered_modes(self, rotation_system, monkeypatch):
        calls = count_calls(monkeypatch, [(numerics, "eig_clustered")])
        joint_verdict(rotation_system, SamplingSchedule((0.0, 1.0)))
        suggest_schedule(rotation_system, ScheduleSearchSpec((0.0, 2.0), 2, 0.2))
        forbidden_instants_order2(rotation_system, 0.0, (0.0, 4.0))
        assert calls == {"eig_clustered": 1}
        assert rotation_system.decomposition.modes is rotation_system.modes

    def test_decomposition_raises_the_minimality_message(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(MinimalityError) as lazy:
            system.decomposition
        with pytest.raises(MinimalityError) as direct:
            require_minimal(system)
        assert str(lazy.value) == str(direct.value)
        assert str(lazy.value) == "realization is not minimal: controllability rank 1 < 2"
        assert not system.minimality.minimal

    def test_mode_set_analyses_leave_the_decomposition_alone(self):
        # b = 0: not minimal, yet the forbidden set only needs the modes.
        unexcited = Realization([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0], [1.0, 0.0])
        result = forbidden_instants_order2(unexcited, 0.0, (0.0, 4.0))
        assert result.forbidden == pytest.approx((0.0, np.pi))
        assert "decomposition" not in vars(unexcited)
        assert "minimality" not in vars(unexcited)

    def test_search_checks_minimality_without_decomposing(self, rotation_system):
        suggest_schedule(rotation_system, ScheduleSearchSpec((0.0, 2.0), 2, 0.2))
        assert rotation_system.minimality.minimal
        assert "decomposition" not in vars(rotation_system)

    def test_tolerances_reach_the_verdict(self, rotation_system):
        schedule = SamplingSchedule((0.0, 3.1))
        assert joint_verdict(rotation_system, schedule).reachable
        strict = replace(rotation_system, tolerances=Tolerances(singularity=0.05))
        report = joint_verdict(strict, schedule)
        assert not report.reachable
        assert report.tolerances is strict.tolerances
        assert not cross_validate(strict, schedule).reachable

    def test_replaced_tolerances_compute_their_own_facts(self, rotation_system, monkeypatch):
        facts = ("eigen", "minimality", "modes", "decomposition")
        joint_verdict(rotation_system, SamplingSchedule((0.0, 1.0)))
        before = {name: vars(rotation_system)[name] for name in facts}
        calls = count_calls(monkeypatch, [(np.linalg, "eig"), (system_model, "modal_decompose")])
        coarse = replace(rotation_system, tolerances=Tolerances(cluster=1e-3))
        assert not any(name in vars(coarse) for name in facts)
        joint_verdict(coarse, SamplingSchedule((0.0, 1.0)))
        assert calls == {"eig": 1, "modal_decompose": 1}
        assert coarse.decomposition is not rotation_system.decomposition
        assert {name: vars(rotation_system)[name] for name in facts} == before

    def test_analyses_never_share_facts_across_objects(self, rotation_system, diag_system):
        # Each system analysed after the other equals its own fresh analysis.
        def fresh(system):
            return Realization(system.A, system.b, system.c, system.tolerances)

        def summary(validation):
            return (validation.report.sigma_ratio, validation.first_failing_multiple)

        for first, second in ((rotation_system, diag_system), (diag_system, rotation_system)):
            validate_uniform(first, np.pi / 2)
            assert summary(validate_uniform(second, np.pi / 2)) == summary(
                validate_uniform(fresh(second), np.pi / 2)
            )
            assert second.modes is not first.modes


class TestImpulseResponse:
    # h(t) = c exp(A t) b, the sampled impulse response.
    def test_at_zero(self):
        for _ in range(10):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            h = system.c @ numerics.expm(system.A, 0.0) @ system.b
            assert h == pytest.approx(float(system.c @ system.b))

    def test_scalar(self, scalar_system):
        h = scalar_system.c @ numerics.expm(scalar_system.A, 1.0) @ scalar_system.b
        assert h == pytest.approx(np.exp(-1.0))

    def test_rotation_cosine(self, rotation_system):
        h = rotation_system.c @ numerics.expm(rotation_system.A, np.pi) @ rotation_system.b
        assert h == pytest.approx(-1.0)

    def test_matches_modal_sum(self):
        # h(t) = sum of weighted modes; the weights follow from c B and the
        # per-block anti-triangular combination of y0 with factorials.
        times = np.array([0.1, 0.5, 1.0, 2.0])
        for _ in range(25):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            decomposition = modal_decompose(system)
            weights = _mode_weights(system, decomposition)
            # Row 0 of each mode matrix holds every mode at that time.
            modal = mode_matrix(decomposition.modes, np.repeat(times[:, None], n, 1))[:, 0] @ weights
            direct = system.c @ numerics.expm(system.A, times) @ system.b
            assert np.all(np.abs(direct - modal) <= 1e-8 * np.maximum(1.0, np.abs(direct)))


def _mode_weights(system, decomposition: ModalDecomposition) -> np.ndarray:
    """Independent expansion of h(t) over the modes: weights = (c B) W.

    W is the block matrix with entry (p, q) = y0[p+q] / q! inside each
    block, which is how exp(J t) y0 expands over t**q exp(lam t).
    """
    from math import factorial

    y0 = decomposition.y0
    n = len(y0)
    w = np.zeros((n, n), dtype=complex)
    offset = 0
    for _, m in decomposition.modes.roots:
        for p in range(m):
            for q in range(m - p):
                w[offset + p, offset + q] = y0[offset + p + q] / factorial(q)
        offset += m
    return (system.c @ decomposition.B) @ w
