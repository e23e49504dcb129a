"""Operational demonstrations on sampled systems.

Simulation under impulse and zero-order-hold inputs, deadbeat input design,
initial-state reconstruction from outputs, and the three-instant taxonomy of
second-order oscillatory schedules.

Impulse semantics: an input of weight u at instant t adds ``b * u`` to the
state instantaneously; the recorded state at each instant is the one the
input acts on (pre-jump), so the recursion is

    x(t[i+1]) = exp(A (t[i+1] - t[i])) (x(t[i]) + b * u[i]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .criterion import CriterionReport, SamplingSchedule, joint_verdict
from .errors import (
    DimensionError,
    InsufficientScheduleError,
    SingularScheduleError,
    UnsupportedOrderError,
)
from .system_model import PreparedSystem, Realization, _state_vector, prepare


@dataclass(frozen=True)
class Trajectory:
    """States and outputs recorded at the sampling instants."""

    instants: tuple
    states: np.ndarray
    outputs: np.ndarray


@dataclass(frozen=True)
class CaseLabel:
    """Three-instant taxonomy of a second-order oscillatory schedule.

    * ``a``: the schedule is jointly reachable and observable, so the strong
      and the weak property pair both hold;
    * ``b``: it is not, but the controllability / constructibility pair
      survives;
    * ``c``: nothing survives.  Uniform schedules never produce this case.

    ``report`` is the joint verdict the label was read from.
    """

    label: str
    report: CriterionReport


def _input_vector(inputs, schedule: SamplingSchedule) -> np.ndarray:
    u = np.asarray(inputs, dtype=float).reshape(-1)
    expected = len(schedule) - 1
    if u.shape[0] != expected:
        raise DimensionError(
            f"expected {expected} inputs for {len(schedule)} instants, got {u.shape[0]}"
        )
    if not np.all(np.isfinite(u)):
        raise DimensionError("inputs must be finite")
    return u


def simulate_impulse(
    realization: Realization,
    schedule: SamplingSchedule,
    inputs,
    x0=None,
) -> Trajectory:
    """Propagate impulse inputs: one weight per instant except the last."""
    u = _input_vector(inputs, schedule)
    t = schedule.instants
    x = (
        np.zeros(realization.n)
        if x0 is None
        else _state_vector(x0, realization.n, "x0")
    )
    states = [x]
    for step, u_i in zip(numerics.expm(realization.A, np.diff(t)), u):
        x = step @ (x + realization.b * u_i)
        states.append(x)
    states = np.array(states)
    return Trajectory(t, states, states @ realization.c)


def _zoh_steps(realization: Realization, dts):
    """ZOH transition pairs (exp(A dt), integral of exp(A s) ds times b).

    For each interval dt both come out of one exponential of the
    (n+1)-square block matrix [[A, b], [0, 0]] scaled by dt; all intervals
    share one batched call.  Returns the stacks (k, n, n) and (k, n).
    """
    n = realization.n
    augmented = np.zeros((n + 1, n + 1))
    augmented[:n, :n] = realization.A
    augmented[:n, n] = realization.b
    transition = numerics.expm(augmented, dts)
    return transition[:, :n, :n], transition[:, :n, n]


def simulate_zoh(
    realization: Realization,
    schedule: SamplingSchedule,
    inputs,
    x0=None,
) -> Trajectory:
    """Propagate with the input held constant over each interval."""
    u = _input_vector(inputs, schedule)
    t = schedule.instants
    x = (
        np.zeros(realization.n)
        if x0 is None
        else _state_vector(x0, realization.n, "x0")
    )
    states = [x]
    for step, forced, u_i in zip(*_zoh_steps(realization, np.diff(t)), u):
        x = step @ x + forced * u_i
        states.append(x)
    states = np.array(states)
    return Trajectory(t, states, states @ realization.c)


def zoh_input_matrix(
    realization: Realization, schedule: SamplingSchedule
) -> np.ndarray:
    """Hold-input analogue of the sampled reachability matrix.

    Column i maps the held input over ``[t[i], t[i+1])`` to its contribution
    at the final instant.  Needs n+1 instants for n inputs; its rank equals
    the impulse-input matrix rank, which is the operational content of the
    statement that a data hold does not change the characteristic modes.
    """
    n = realization.n
    t = schedule.instants
    if len(t) < n + 1:
        raise InsufficientScheduleError(
            f"hold-input matrix needs {n + 1} instants, got {len(t)}"
        )
    _, forced = _zoh_steps(realization, [t[i + 1] - t[i] for i in range(n)])
    carry = numerics.expm(realization.A, [t[n] - t[i + 1] for i in range(n)])
    return (carry @ forced[..., None])[..., 0].T


def _require_regular(
    prepared: PreparedSystem, schedule: SamplingSchedule, consequence: str
) -> None:
    """Raise SingularScheduleError, with the report, unless the joint test passes."""
    report = joint_verdict(prepared, schedule)
    if not report.reachable:
        raise SingularScheduleError(
            f"schedule is singular (sigma ratio {report.sigma_ratio:.3e}); {consequence}",
            report=report,
        )


def default_final_time(schedule: SamplingSchedule) -> float:
    """Deadbeat evaluation instant: last instant plus the mean spacing, or
    plus one second for a single instant."""
    t = schedule.instants
    spacing = (t[-1] - t[0]) / (len(t) - 1) if len(t) > 1 else 1.0
    return t[-1] + spacing


def deadbeat_inputs(
    system: Realization | PreparedSystem,
    schedule: SamplingSchedule,
    x0,
    x_target,
    t_final: float | None = None,
) -> np.ndarray:
    """Impulse weights u_0..u_{n-1} driving x0 at t_0 to x_target at t_final.

    The schedule carries the n input instants; ``t_final`` is the evaluation
    instant after them (default: ``default_final_time(schedule)``).  A
    schedule failing the joint criterion raises SingularScheduleError with
    the report attached; non-finite states raise DimensionError, and a
    ``t_final`` that is not finite or not beyond the last input instant
    raises ValueError.  A plain realization is analysed with the default
    tolerances.
    """
    prepared = prepare(system)
    realization = prepared.realization
    n = realization.n
    t = schedule.instants
    if len(t) != n:
        raise InsufficientScheduleError(
            f"deadbeat design needs exactly {n} input instants, got {len(t)}"
        )
    _require_regular(prepared, schedule, "deadbeat inputs do not exist")
    if t_final is None:
        t_final = default_final_time(schedule)
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final <= t[-1]:
        raise ValueError("t_final must lie beyond the last input instant")

    x0 = _state_vector(x0, n, "x0")
    x_target = _state_vector(x_target, n, "x_target")
    # One exponential per input instant; the first also carries x0.
    steps = numerics.expm(realization.A, [t_final - ti for ti in t])
    rhs = x_target - steps[0] @ x0
    return np.linalg.solve((steps @ realization.b).T, rhs)


def reconstruct_state(
    system: Realization | PreparedSystem, schedule: SamplingSchedule, outputs
) -> np.ndarray:
    """Recover x(0) from n free-response outputs y(t_i) = c exp(A t_i) x(0).

    A schedule failing the joint criterion raises SingularScheduleError with
    the report attached; non-finite outputs raise DimensionError.  A plain
    realization is analysed with the default tolerances.
    """
    prepared = prepare(system)
    realization = prepared.realization
    n = realization.n
    t = schedule.instants
    if len(t) != n:
        raise InsufficientScheduleError(
            f"state reconstruction needs exactly {n} output instants, got {len(t)}"
        )
    y = np.asarray(outputs, dtype=float).reshape(-1)
    if y.shape[0] != n:
        raise DimensionError(f"expected {n} outputs, got {y.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise DimensionError("outputs must be finite")
    _require_regular(prepared, schedule, "outputs do not determine the state")
    rows = realization.c @ numerics.expm(realization.A, t)
    return np.linalg.solve(rows, y)


def case_label(report: CriterionReport) -> str:
    """Case a, b or c of a joint verdict that covers an extra instant."""
    if report.reachable:
        return "a"
    return "b" if report.controllable else "c"


def classify_case(
    system: Realization | PreparedSystem, schedule: SamplingSchedule
) -> CaseLabel:
    """Label a three-instant schedule of an order-2 system as case a, b or c.

    The label is read from one joint verdict on the schedule: ``a`` when it
    is reachable, ``b`` when only the controllability pair holds, ``c``
    otherwise, so the label never contradicts the verdict.  A plain
    realization is analysed with the default tolerances.
    """
    prepared = prepare(system)
    n = prepared.realization.n
    if n != 2:
        raise UnsupportedOrderError(f"case classification is defined for order 2, got {n}")
    if len(schedule) < 3:
        raise InsufficientScheduleError(
            f"case classification needs 3 instants, got {len(schedule)}"
        )
    report = joint_verdict(prepared, schedule)
    return CaseLabel(case_label(report), report)
