"""Simulation, deadbeat design, state reconstruction and case taxonomy."""

import dataclasses
import warnings

import numpy as np
import pytest

from nusamp import (
    DimensionError,
    InsufficientScheduleError,
    NumericRangeError,
    Realization,
    SamplingSchedule,
    SingularScheduleError,
    classify_case,
    controllable_direct,
    deadbeat_inputs,
    joint_verdict,
    reachability_matrix,
    reconstruct_state,
    simulate_impulse,
    simulate_zoh,
)
from nusamp import experiments
from nusamp.numerics import expm, numeric_rank
from conftest import AMBIGUITY_BAND, BAD_REALS, count_calls, random_minimal_system, random_schedule

RNG = np.random.default_rng(9001)


class TestSimulateImpulse:
    def test_zero_everything(self, rotation_system):
        trajectory = simulate_impulse(
            rotation_system, SamplingSchedule((0.0, 1.0, 2.0)), [0.0, 0.0]
        )
        assert np.allclose(trajectory.states, 0.0)
        assert np.allclose(trajectory.outputs, 0.0)

    def test_scalar_closed_form(self, scalar_system):
        trajectory = simulate_impulse(
            scalar_system, SamplingSchedule((0.0, 1.0)), [np.e], [0.0]
        )
        assert trajectory.states[-1, 0] == pytest.approx(1.0)

    def test_rotation_kick(self, rotation_system):
        trajectory = simulate_impulse(
            rotation_system, SamplingSchedule((0.0, np.pi / 2)), [1.0], [0.0, 0.0]
        )
        assert np.allclose(trajectory.states[-1], [0.0, 1.0], atol=1e-12)

    def test_input_length_check(self, rotation_system):
        with pytest.raises(DimensionError):
            simulate_impulse(rotation_system, SamplingSchedule((0.0, 1.0)), [1.0, 2.0])

    def test_outputs_recorded(self, rotation_system):
        x0 = [2.0, -1.0]
        trajectory = simulate_impulse(
            rotation_system, SamplingSchedule((0.0, np.pi / 2)), [0.0], x0
        )
        assert trajectory.outputs[0] == pytest.approx(2.0)
        assert trajectory.outputs[1] == pytest.approx(1.0)


class TestSimulateZoh:
    def test_free_response(self, rotation_system):
        x0 = np.array([1.0, 2.0])
        trajectory = simulate_zoh(
            rotation_system, SamplingSchedule((0.0, 0.7, 1.9)), [0.0, 0.0], x0
        )
        for k, t in enumerate((0.0, 0.7, 1.9)):
            assert np.allclose(trajectory.states[k], expm(rotation_system.A, t) @ x0)

    def test_integrator(self):
        integrator = Realization([[0.0]], [1.0], [1.0])
        trajectory = simulate_zoh(integrator, SamplingSchedule((0.0, 1.0)), [2.0], [0.0])
        assert trajectory.states[-1, 0] == pytest.approx(2.0)

    def test_scalar_hold(self, scalar_system):
        trajectory = simulate_zoh(scalar_system, SamplingSchedule((0.0, 1.0)), [1.0], [0.0])
        assert trajectory.states[-1, 0] == pytest.approx(1.0 - np.exp(-1.0))


class TestDeadbeat:
    def test_free_motion_needs_no_input(self, rotation_system):
        x0 = np.array([1.0, -0.5])
        schedule = SamplingSchedule((0.0, 1.0))
        t_final = 1.7
        target = expm(rotation_system.A, t_final) @ x0
        inputs = deadbeat_inputs(rotation_system, schedule, x0, target, t_final)
        assert np.allclose(inputs, 0.0, atol=1e-12)

    def test_scalar_closed_form(self, scalar_system):
        inputs = deadbeat_inputs(
            scalar_system, SamplingSchedule((0.0,)), [0.0], [1.0], t_final=1.0
        )
        assert inputs[0] == pytest.approx(np.e, abs=1e-10)

    def test_resimulation_closure(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi / 2))
        target = np.array([0.3, -2.0])
        t_final = np.pi / 2 + 0.8
        inputs = deadbeat_inputs(rotation_system, schedule, [0.0, 0.0], target, t_final)
        check = simulate_impulse(
            rotation_system,
            SamplingSchedule((*schedule.instants, t_final)),
            inputs,
            [0.0, 0.0],
        )
        assert np.allclose(check.states[-1], target, atol=1e-10)

    def test_singular_schedule_rejected(self, rotation_system):
        with pytest.raises(SingularScheduleError) as info:
            deadbeat_inputs(
                rotation_system, SamplingSchedule((0.0, np.pi)), [0.0, 0.0], [1.0, 1.0]
            )
        assert info.value.report is not None
        assert not info.value.report.reachable

    def test_non_finite_states_rejected(self, rotation_system):
        schedule = SamplingSchedule((0.0, 1.0))
        with pytest.raises(DimensionError, match="x0 must be finite"):
            deadbeat_inputs(rotation_system, schedule, [np.nan, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionError, match="x_target must be finite"):
            deadbeat_inputs(rotation_system, schedule, [1.0, 0.0], [0.0, np.inf])

    @pytest.mark.parametrize("t_final", [np.nan, np.inf, -np.inf])
    def test_non_finite_final_time_rejected(self, rotation_system, t_final):
        schedule = SamplingSchedule((0.0, 1.0))
        with pytest.raises(DimensionError, match="t_final must be finite"):
            deadbeat_inputs(rotation_system, schedule, [1.0, 0.0], [0.0, 1.0], t_final)

    @pytest.mark.parametrize("t_final", [1.0, 0.5])
    def test_final_time_not_beyond_last_instant_rejected(self, rotation_system, t_final):
        schedule = SamplingSchedule((0.0, 1.0))
        with pytest.raises(DimensionError, match="t_final must lie beyond the last input instant"):
            deadbeat_inputs(rotation_system, schedule, [1.0, 0.0], [0.0, 1.0], t_final)

    def test_random_closure(self):
        for _ in range(60):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n)
            report = joint_verdict(system, schedule)
            if report.sigma_ratio < 1e-7:
                continue
            x0 = RNG.normal(size=n)
            target = RNG.normal(size=n)
            t_final = schedule.instants[-1] + float(RNG.uniform(0.2, 1.0))
            inputs = deadbeat_inputs(system, schedule, x0, target, t_final)
            check = simulate_impulse(
                system, SamplingSchedule((*schedule.instants, t_final)), inputs, x0
            )
            error = np.linalg.norm(check.states[-1] - target)
            assert error <= 1e-6 * max(1.0, np.linalg.norm(target))


class TestReconstruct:
    def test_zero_outputs(self, rotation_system):
        x0 = reconstruct_state(
            rotation_system, SamplingSchedule((0.0, np.pi / 2)), [0.0, 0.0]
        )
        assert np.allclose(x0, 0.0, atol=1e-12)

    def test_scalar(self, scalar_system):
        x0 = reconstruct_state(scalar_system, SamplingSchedule((0.0,)), [3.0])
        assert x0[0] == pytest.approx(3.0)

    def test_rotation_roundtrip(self, rotation_system):
        truth = np.array([2.0, -1.0])
        schedule = SamplingSchedule((0.0, np.pi / 2))
        outputs = [
            float(rotation_system.c @ expm(rotation_system.A, t) @ truth)
            for t in schedule.instants
        ]
        assert outputs == pytest.approx([2.0, 1.0])
        assert np.allclose(reconstruct_state(rotation_system, schedule, outputs), truth)

    def test_non_finite_outputs_rejected(self, rotation_system):
        with pytest.raises(DimensionError, match="outputs must be finite"):
            reconstruct_state(rotation_system, SamplingSchedule((0.0, 1.0)), [np.nan, 1.0])

    @pytest.mark.parametrize("instants", [(0.0,), (0.0, 1.0, 2.0)], ids=["n-1", "n+1"])
    def test_needs_n_instants(self, rotation_system, instants):
        message = f"state reconstruction needs exactly 2 output instants, got {len(instants)}"
        with pytest.raises(InsufficientScheduleError, match=message):
            reconstruct_state(rotation_system, SamplingSchedule(instants), [1.0] * len(instants))

    def test_singular_schedule_rejected(self, rotation_system):
        with pytest.raises(SingularScheduleError):
            reconstruct_state(rotation_system, SamplingSchedule((0.0, np.pi)), [1.0, 1.0])

    def test_random_closure(self):
        for _ in range(60):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n)
            if joint_verdict(system, schedule).sigma_ratio < 1e-7:
                continue
            truth = RNG.normal(size=n)
            outputs = [
                float(system.c @ expm(system.A, t) @ truth) for t in schedule.instants
            ]
            recovered = reconstruct_state(system, schedule, outputs)
            assert np.linalg.norm(recovered - truth) <= 1e-6 * max(
                1.0, np.linalg.norm(truth)
            )


@pytest.mark.parametrize(
    "system, instants",
    [
        # exp(-720) is subnormal and exp(-800) is zero: the solves lose the
        # state although the schedule is regular, and are refused.
        (Realization([[-800.0]], [1.0], [1.0]), (0.9,)),
        (Realization([[-800.0, 1.0], [0.0, -800.0]], [0.0, 1.0], [1.0, 0.0]), (0.0, 0.9)),
    ],
    ids=["order1", "defective"],
)
def test_solves_out_of_float_range_are_refused(system, instants):
    schedule = SamplingSchedule(instants)
    assert joint_verdict(system, schedule).sigma_ratio == 1.0
    n = system.n
    with pytest.raises(NumericRangeError, match="^deadbeat design left the floating-point range"):
        deadbeat_inputs(system, schedule, [0.0] * n, [1.0] * n)
    with pytest.raises(NumericRangeError, match="^state reconstruction left the floating-point range"):
        reconstruct_state(system, schedule, [1.0] * n)


GROWING = Realization(np.diag([1.0, 2.0]), [1.0, 1.0], [1.0, 1.0])
UNIT = Realization([[1.0]], [1.0], [1.0])


@pytest.mark.parametrize(
    "call, message",
    [
        # Products that used to leave the range with a RuntimeWarning.
        (lambda: simulate_impulse(UNIT, SamplingSchedule((0.0, 10.0)), [1.0], x0=[1e305]),
         "^simulation overflowed"),
        (lambda: simulate_zoh(UNIT, SamplingSchedule((0.0, 10.0, 20.0)), [1e300, 1e300]),
         "^simulation overflowed"),
        (lambda: deadbeat_inputs(GROWING, SamplingSchedule((0.0, 1.0)), [1e307, 1e307], [0.0, 0.0]),
         "^deadbeat design left the floating-point range"),
        (lambda: reconstruct_state(
            Realization(GROWING.A, GROWING.b, [1e308, 1e308]), SamplingSchedule((0.0, 1.0)), [1.0, 1.0]
        ), "^state reconstruction left the floating-point range"),
    ],
    ids=["impulse", "zoh", "deadbeat", "reconstruct"],
)
def test_products_beyond_the_float_range_raise_without_warnings(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match=message):
            call()


@pytest.mark.parametrize(
    "bad",
    [pytest.param([param.values[0], 0.0], id=param.id) for param in BAD_REALS]
    + [
        pytest.param(np.array([1j, 0.0]), id="complex-array"),
        pytest.param(np.array([True, False]), id="bool-array"),
    ],
)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda system, v: controllable_direct(system, SamplingSchedule((0.0, 1.0, 2.0)), v), "x0"),
        (lambda system, v: deadbeat_inputs(system, SamplingSchedule((0.0, 1.0)), v, [0.0, 0.0]), "x0"),
        (lambda system, v: deadbeat_inputs(system, SamplingSchedule((0.0, 1.0)), [0.0, 0.0], v), "x_target"),
        (lambda system, v: simulate_impulse(system, SamplingSchedule((0.0, 1.0, 2.0)), v), "inputs"),
        (lambda system, v: simulate_zoh(system, SamplingSchedule((0.0, 1.0, 2.0)), [1.0, 0.0], v), "x0"),
        (lambda system, v: reconstruct_state(system, SamplingSchedule((0.0, 1.0)), v), "outputs"),
    ],
    ids=["controllable_direct", "deadbeat_x0", "deadbeat_target", "impulse_inputs", "zoh_x0", "reconstruct"],
)
def test_vector_inputs_must_be_real(rotation_system, call, name, bad):
    # A cast to float would drop the imaginary part, read a bool or a string
    # as a number, or fail inside numpy.  Real entries beyond the float range
    # become infinite, which the finiteness check refuses.
    problem = "finite" if all(type(x) in (int, float) for x in bad) else "a real array"
    with pytest.raises(DimensionError, match=f"^{name} must be {problem}"):
        call(rotation_system, bad)


DESIGNS = pytest.mark.parametrize("design", [
    pytest.param(lambda system, schedule: deadbeat_inputs(system, schedule, [1.0, 0.0], [0.0, 1.0]),
                 id="deadbeat"),
    pytest.param(lambda system, schedule: reconstruct_state(system, schedule, [1.0, 0.0]), id="reconstruct"),
])


class TestRegularityGate:
    """Deadbeat design and reconstruction read only the verdict: the joint
    report is built only to refuse a singular schedule."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_calls(monkeypatch, [(experiments, "joint_verdict")])

    @DESIGNS
    def test_a_regular_schedule_builds_no_report(self, rotation_system, calls, design):
        design(rotation_system, SamplingSchedule((0.0, 1.0)))
        assert calls["joint_verdict"] == 0

    @DESIGNS
    def test_a_singular_schedule_carries_the_full_report(self, rotation_system, calls, design):
        schedule = SamplingSchedule((0.0, np.pi))
        with pytest.raises(SingularScheduleError) as info:
            design(rotation_system, schedule)
        assert calls["joint_verdict"] == 1
        fresh = joint_verdict(rotation_system, schedule)
        for field in dataclasses.fields(fresh):
            assert getattr(info.value.report, field.name) == getattr(fresh, field.name), field.name


def _zoh_input_matrix(system, schedule):
    """Column i: the final state under a unit input held on interval i."""
    return np.column_stack([
        simulate_zoh(system, schedule, unit).states[-1] for unit in np.eye(system.n)
    ])


class TestZohInputMatrix:
    def test_rank_matches_impulse_matrix(self):
        # operational form of "a data hold does not change the modes":
        # held inputs span exactly what impulses span
        for _ in range(40):
            n = int(RNG.integers(1, 5))
            system = random_minimal_system(RNG, n, allow_defective=True)
            schedule = random_schedule(RNG, n + 1)
            g = reachability_matrix(system, schedule)
            if AMBIGUITY_BAND[0] <= g.rank.sigma_ratio <= AMBIGUITY_BAND[1]:
                continue
            h = _zoh_input_matrix(system, schedule)
            assert numeric_rank(h).rank == g.rank.rank

    def test_forbidden_rotation_schedule(self, rotation_system):
        schedule = SamplingSchedule((0.0, np.pi, 2 * np.pi))
        g = reachability_matrix(rotation_system, schedule)
        h = _zoh_input_matrix(rotation_system, schedule)
        assert g.rank.rank == 1
        assert numeric_rank(h).rank == 1


class TestClassifyCase:
    def test_rotation_cases(self, rotation_system):
        for instants, label in (
            ((0.0, np.pi / 2, 1.9), "a"),
            ((0.0, np.pi, 2 * np.pi), "b"),
            ((0.0, np.pi, np.pi + 1.5), "c"),
        ):
            report = joint_verdict(rotation_system, SamplingSchedule(instants))
            assert classify_case(report) == label

    def test_case_matches_verdicts(self, damped_rotation_system):
        for _ in range(40):
            schedule = random_schedule(RNG, 3)
            report = joint_verdict(damped_rotation_system, schedule)
            label = classify_case(report)
            if AMBIGUITY_BAND[0] <= report.sigma_ratio <= AMBIGUITY_BAND[1]:
                continue
            if label == "a":
                assert report.reachable
            else:
                assert not report.reachable
                assert (label == "b") == report.controllable

    def test_order_restriction(self, scalar_system, rotation_system):
        # The taxonomy needs order 2 and a third instant.
        assert classify_case(joint_verdict(scalar_system, SamplingSchedule((0.0, 1.0, 2.0)))) is None
        assert classify_case(joint_verdict(rotation_system, SamplingSchedule((0.0, 1.0)))) is None
