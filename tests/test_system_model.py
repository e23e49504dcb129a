"""Realization validation, minimality, mode sets and the modal decomposition."""

import numpy as np
import pytest

from nusamp import (
    DimensionError,
    MinimalityError,
    ModalDecomposition,
    ModeSet,
    PreparedSystem,
    Realization,
    SamplingSchedule,
    ScheduleSearchSpec,
    Tolerances,
    UnsupportedOrderError,
    check_minimal,
    check_y0_components,
    classify_case,
    controllability_verdict,
    cross_validate,
    deadbeat_inputs,
    eval_mode,
    forbidden_instants_order2,
    impulse_response,
    joint_verdict,
    modal_decompose,
    mode_set,
    reconstruct_state,
    suggest_schedule,
    validate_uniform,
)
from nusamp import numerics, system_model
from nusamp.system_model import prepare
from conftest import count_calls, random_minimal_system, random_orthogonal

RNG = np.random.default_rng(7)


class TestRealization:
    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            Realization(np.eye(2), [1.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            Realization(np.ones((2, 3)), [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(DimensionError):
            Realization([[np.inf]], [1.0], [1.0])

    def test_order_cap(self):
        n = 13
        with pytest.raises(UnsupportedOrderError):
            Realization(np.eye(n), np.ones(n), np.ones(n))

    def test_immutable_arrays(self, rotation_system):
        with pytest.raises(ValueError):
            rotation_system.A[0, 0] = 5.0

    def test_dual_swaps_b_and_c(self, rotation_system):
        dual = rotation_system.dual()
        assert np.array_equal(dual.A, rotation_system.A.T)
        assert np.array_equal(dual.b, rotation_system.c)
        assert np.array_equal(dual.c, rotation_system.b)


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


class TestModeSet:
    def test_diag(self, diag_system):
        modes = mode_set(diag_system)
        assert modes.roots == ((-1.0, 1), (0.0, 1))
        assert modes.mode_params() == ((-1.0, 0), (0.0, 0))

    def test_jordan_block(self):
        system = Realization([[-1.0, 1.0], [0.0, -1.0]], [0.0, 1.0], [1.0, 0.0])
        modes = mode_set(system)
        assert modes.roots == ((-1.0, 2),)
        assert modes.mode_params() == ((-1.0, 0), (-1.0, 1))

    def test_rotation(self, rotation_system):
        modes = mode_set(rotation_system)
        assert modes.r == 2
        assert modes.roots[0][0] == pytest.approx(-1j)
        assert modes.roots[1][0] == pytest.approx(1j)

    def test_similarity_invariance(self):
        for _ in range(20):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            q = random_orthogonal(RNG, n)
            transformed = Realization(q @ system.A @ q.T, q @ system.b, system.c @ q.T)
            original = mode_set(system)
            moved = mode_set(transformed)
            assert original.r == moved.r
            for (lam1, m1), (lam2, m2) in zip(original.roots, moved.roots):
                assert m1 == m2
                assert abs(lam1 - lam2) < 1e-6


class TestEvalMode:
    def test_values(self):
        modes = ModeSet(((-1.0, 2),))
        assert eval_mode(modes, 0, 0.0) == pytest.approx(1.0)  # exp(-t) at 0
        assert eval_mode(modes, 1, 0.0) == pytest.approx(0.0)  # t exp(-t) at 0
        assert eval_mode(modes, 1, 1.0) == pytest.approx(np.exp(-1.0))

    def test_index_out_of_range(self):
        modes = ModeSet(((-1.0, 1),))
        with pytest.raises(IndexError):
            eval_mode(modes, 1, 0.0)


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

    def test_rotation_y0(self, rotation_system):
        decomposition = modal_decompose(rotation_system)
        assert np.allclose(
            decomposition.B @ decomposition.y0, rotation_system.b, atol=1e-12
        )
        assert np.all(np.abs(decomposition.y0) > 1e-3)

    def test_non_minimal_raises(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        with pytest.raises(MinimalityError, match="controllability"):
            modal_decompose(system)
        decomposition = modal_decompose(system, require_minimality=False)
        assert abs(decomposition.y0[0]) < 1e-12  # the -1 mode is unexcited

    def test_reconstruction_invariant(self):
        for _ in range(30):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            decomposition = modal_decompose(system)
            assert decomposition.reconstruction_residual <= 1e-8

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


class TestCheckY0Components:
    def test_minimal_rotation(self, rotation_system):
        decomposition = modal_decompose(rotation_system)
        assert check_y0_components(decomposition)

    def test_decoupled_mode(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        decomposition = modal_decompose(system, require_minimality=False)
        assert not check_y0_components(decomposition)

    def test_scalar(self, scalar_system):
        assert check_y0_components(modal_decompose(scalar_system))
        zero_b = Realization([[-1.0]], [0.0], [1.0])
        decomposition = modal_decompose(zero_b, require_minimality=False)
        assert not check_y0_components(decomposition)

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
            decomposition = modal_decompose(system, require_minimality=False)
            assert check_y0_components(decomposition) == report.controllable_ct
            agree += 1
        assert agree == 60


class TestPreparedSystem:
    def test_plain_realization_gets_default_tolerances(self, rotation_system):
        prepared = prepare(rotation_system)
        assert prepared.realization is rotation_system
        assert prepared.tolerances == Tolerances(1e-9, 1e-7, 1e-9, 1e-9)
        assert prepare(prepared) is prepared

    def test_facts_computed_once_across_analyses(self, rotation_system, monkeypatch):
        calls = count_calls(monkeypatch, [
            (system_model, "check_minimal"),
            (system_model, "modal_decompose"),
            (numerics, "eig_clustered"),
        ])
        prepared = PreparedSystem(rotation_system)
        two, three = SamplingSchedule((0.0, 1.0)), SamplingSchedule((0.0, 1.0, 2.5))
        joint_verdict(prepared, three)
        controllability_verdict(prepared, three)
        cross_validate(prepared, three)
        classify_case(prepared, three)
        deadbeat_inputs(prepared, two, [1.0, 0.0], [0.0, 1.0])
        reconstruct_state(prepared, two, [1.0, 0.5])
        validate_uniform(prepared, 0.5)
        assert calls == {"check_minimal": 1, "modal_decompose": 1, "eig_clustered": 1}

    def test_search_reuses_the_clustered_modes(self, rotation_system, monkeypatch):
        calls = count_calls(monkeypatch, [(numerics, "eig_clustered")])
        prepared = PreparedSystem(rotation_system)
        joint_verdict(prepared, SamplingSchedule((0.0, 1.0)))
        suggest_schedule(prepared, ScheduleSearchSpec((0.0, 2.0), 2, 0.2))
        forbidden_instants_order2(prepared, 0.0, (0.0, 4.0))
        assert calls == {"eig_clustered": 1}
        assert prepared.decomposition.modes is prepared.modes

    def test_decomposition_raises_the_minimality_message(self):
        system = Realization(np.diag([0.0, -1.0]), [1.0, 0.0], [1.0, 1.0])
        prepared = PreparedSystem(system)
        with pytest.raises(MinimalityError) as lazy:
            prepared.decomposition
        with pytest.raises(MinimalityError) as direct:
            modal_decompose(system)
        assert str(lazy.value) == str(direct.value)
        assert str(lazy.value) == "realization is not minimal: controllability rank 1 < 2"
        assert not prepared.minimality.minimal

    def test_mode_set_analyses_leave_the_decomposition_alone(self):
        # b = 0: not minimal, yet the forbidden set only needs the modes.
        unexcited = PreparedSystem(Realization([[0.0, -1.0], [1.0, 0.0]], [0.0, 0.0], [1.0, 0.0]))
        result = forbidden_instants_order2(unexcited, 0.0, (0.0, 4.0))
        assert result.forbidden == pytest.approx((0.0, np.pi))
        assert "decomposition" not in vars(unexcited)
        assert "minimality" not in vars(unexcited)

    def test_search_checks_minimality_without_decomposing(self, rotation_system):
        prepared = PreparedSystem(rotation_system)
        suggest_schedule(prepared, ScheduleSearchSpec((0.0, 2.0), 2, 0.2))
        assert prepared.minimality.minimal
        assert "decomposition" not in vars(prepared)

    def test_tolerances_reach_the_verdict(self, rotation_system):
        schedule = SamplingSchedule((0.0, 3.1))
        assert joint_verdict(rotation_system, schedule).reachable
        strict = PreparedSystem(rotation_system, Tolerances(singularity=0.05))
        report = joint_verdict(strict, schedule)
        assert not report.reachable
        assert report.tolerances is strict.tolerances
        assert not cross_validate(strict, schedule).reachable


class TestImpulseResponse:
    def test_at_zero(self):
        for _ in range(10):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n)
            assert impulse_response(system, 0.0) == pytest.approx(
                float(system.c @ system.b)
            )

    def test_scalar(self, scalar_system):
        assert impulse_response(scalar_system, 1.0) == pytest.approx(np.exp(-1.0))

    def test_rotation_cosine(self, rotation_system):
        assert impulse_response(rotation_system, np.pi) == pytest.approx(-1.0)

    def test_matches_modal_sum(self):
        # h(t) = sum of weighted modes; the weights follow from c B and the
        # per-block anti-triangular combination of y0 with factorials.
        for _ in range(25):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            decomposition = modal_decompose(system)
            modes = decomposition.modes
            weights = _mode_weights(system, decomposition)
            for t in (0.1, 0.5, 1.0, 2.0):
                modal = sum(
                    w * eval_mode(modes, i, t) for i, w in enumerate(weights)
                )
                direct = impulse_response(system, t)
                assert abs(direct - modal) <= 1e-8 * max(1.0, abs(direct))


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
