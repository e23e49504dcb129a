"""Operational demonstrations on sampled systems.

Simulation under impulse and zero-order-hold inputs, deadbeat input design,
initial-state reconstruction from outputs, and the case a / b / c label that
the three-instant taxonomy of second-order schedules reads from a joint
verdict.  Every vector argument (inputs, outputs, states) is checked by the
one validator of ``system_model``.

Impulse semantics: an input of weight u at instant t adds ``b * u`` to the
state instantaneously; the recorded state at each instant is the one the
input acts on (pre-jump), so the recursion is

    x(t[i+1]) = exp(A (t[i+1] - t[i])) (x(t[i]) + b * u[i]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .criterion import CriterionReport, SamplingSchedule, joint_verdict, schedule_conditioning
from .errors import DimensionError, InsufficientScheduleError, NumericRangeError, SingularScheduleError
from .system_model import Realization, _state_vector


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States and outputs recorded at the sampling instants."""

    instants: tuple
    states: np.ndarray
    outputs: np.ndarray


def _propagate(realization: Realization, schedule: SamplingSchedule, inputs, x0, matrix, step):
    """The trajectory of ``x = step(E, x, u_i)`` over the intervals, E being
    exp(matrix * dt) from one batched call; the state starts at x0 (default
    zero), one input acts per instant except the last, and states and outputs
    follow the range rule."""
    u = _state_vector(inputs, len(schedule) - 1, "inputs")
    t = schedule.instants
    states = [np.zeros(realization.n) if x0 is None else _state_vector(x0, realization.n, "x0")]
    transitions = numerics.expm(matrix, np.diff(t))

    def trajectory():
        for transition, u_i in zip(transitions, u):
            states.append(step(transition, states[-1], u_i))
        array = np.array(states)
        return array, array @ realization.c

    message = "simulation overflowed; shorten the schedule or scale down x0 or the inputs"
    return Trajectory(t, *numerics.finite(trajectory, message))


def simulate_impulse(
    realization: Realization,
    schedule: SamplingSchedule,
    inputs,
    x0=None,
) -> Trajectory:
    """Propagate impulse inputs: one weight per instant except the last."""
    step = lambda e, x, u: e @ (x + realization.b * u)
    return _propagate(realization, schedule, inputs, x0, realization.A, step)


def simulate_zoh(
    realization: Realization,
    schedule: SamplingSchedule,
    inputs,
    x0=None,
) -> Trajectory:
    """Propagate with the input held constant over each interval: the
    exponential of [[A, b], [0, 0]] times dt holds exp(A dt) in its leading
    n x n block and the integral of exp(A s) b over dt in its last column."""
    n = realization.n
    augmented = np.zeros((n + 1, n + 1))
    augmented[:n, :n] = realization.A
    augmented[:n, n] = realization.b
    step = lambda e, x, u: e[:n, :n] @ x + e[:n, n] * u
    return _propagate(realization, schedule, inputs, x0, augmented, step)


def _require_regular(
    realization: Realization, schedule: SamplingSchedule, consequence: str
) -> None:
    """Raise SingularScheduleError, with the report, unless the joint test passes.

    A regular schedule returns on ``schedule_conditioning``, the bits ``joint_verdict``
    compares, after the decomposition's minimality check: the report is built only to refuse.
    """
    modes = realization.decomposition.modes
    if schedule_conditioning(modes, schedule) > realization.tolerances.singularity:
        return
    report = joint_verdict(realization, schedule)
    raise SingularScheduleError(
        f"schedule is singular (sigma ratio {report.sigma_ratio:.3e}); {consequence}",
        report=report,
    )


def _solve(system, operation: str) -> np.ndarray:
    """x with ``matrix @ x = rhs`` for ``(matrix, rhs) = system()``; NumericRangeError naming
    ``operation`` when the matrix, rhs or x is not finite (one guard) or the solve fails, as
    when a regular schedule's sampled exponentials underflow (the verdict is scale-free)."""
    message = f"{operation} left the floating-point range on a regular schedule"
    solved = lambda matrix, rhs: (matrix, rhs, np.linalg.solve(matrix, rhs))
    try:
        return numerics.finite(lambda: solved(*system()), message)[2]
    except np.linalg.LinAlgError:
        raise NumericRangeError(message) from None


def default_final_time(schedule: SamplingSchedule) -> float:
    """Deadbeat evaluation instant: last instant plus the mean spacing, or
    plus one second for a single instant."""
    t = schedule.instants
    spacing = (t[-1] - t[0]) / (len(t) - 1) if len(t) > 1 else 1.0
    return t[-1] + spacing


def deadbeat_inputs(
    realization: Realization,
    schedule: SamplingSchedule,
    x0,
    x_target,
    t_final: float | None = None,
) -> np.ndarray:
    """Impulse weights u_0..u_{n-1} driving x0 at t_0 to x_target at t_final.

    The schedule carries the n input instants; ``t_final`` is the evaluation
    instant after them (default: ``default_final_time(schedule)``).
    Regularity is checked on the sigma ratio alone; the report is built only
    to refuse, attached to the SingularScheduleError.  Non-finite states, and
    a ``t_final`` that is not a finite real number beyond the last input
    instant, raise DimensionError; weights the solve cannot give finite,
    NumericRangeError.
    """
    n = realization.n
    t = schedule.instants
    if len(t) != n:
        raise InsufficientScheduleError(
            f"deadbeat design needs exactly {n} input instants, got {len(t)}"
        )
    _require_regular(realization, schedule, "deadbeat inputs do not exist")
    if t_final is None:
        t_final = default_final_time(schedule)
    final = numerics.as_float(
        t_final, lambda: DimensionError(f"t_final must be a real number, got {t_final!r}")
    )
    if not np.isfinite(final):
        raise DimensionError(f"t_final must be finite, got {final}")
    if final <= t[-1]:
        raise DimensionError("t_final must lie beyond the last input instant")

    x0 = _state_vector(x0, n, "x0")
    x_target = _state_vector(x_target, n, "x_target")
    # One exponential per input instant; the first also carries x0.
    steps = numerics.expm(realization.A, [final - ti for ti in t])
    return _solve(lambda: ((steps @ realization.b).T, x_target - steps[0] @ x0), "deadbeat design")


def reconstruct_state(
    realization: Realization, schedule: SamplingSchedule, outputs
) -> np.ndarray:
    """Recover x(0) from n free-response outputs y(t_i) = c exp(A t_i) x(0).

    Regularity is checked on the sigma ratio alone, which b does not enter;
    the report is built only to refuse, attached to the SingularScheduleError.
    Non-finite outputs raise DimensionError, and a state the solve cannot
    give finite, NumericRangeError.
    """
    n = realization.n
    t = schedule.instants
    if len(t) != n:
        raise InsufficientScheduleError(
            f"state reconstruction needs exactly {n} output instants, got {len(t)}"
        )
    y = _state_vector(outputs, n, "outputs")
    _require_regular(realization, schedule, "outputs do not determine the state")
    return _solve(lambda: (realization.c @ numerics.expm(realization.A, t), y), "state reconstruction")


def classify_case(report: CriterionReport) -> str | None:
    """Case a, b or c of the three-instant taxonomy, read from a joint verdict.

    ``a``: the schedule is jointly reachable and observable, so the strong
    and the weak property pair both hold; ``b``: it is not, but the
    controllability / constructibility pair survives; ``c``: nothing
    survives (uniform schedules never produce it).  The label is read from
    the report, so it never contradicts the verdict.  The taxonomy covers
    order-2 systems on a third instant only: None when the order is not 2
    or the report has no controllability verdict (no third instant).
    """
    if len(report.alphas.alpha) != 2 or report.controllable is None:
        return None
    if report.reachable:
        return "a"
    return "b" if report.controllable else "c"
