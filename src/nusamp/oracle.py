"""Direct rank tests on the sampled input and output matrices.

This path stays in the original state basis end to end: matrix exponentials
of A itself, rank by SVD, no modal decomposition anywhere.  Agreement with
the mode-matrix criterion is therefore a genuine two-route check, and
``cross_validate`` computes that agreement instead of assuming it.

Each check exponentiates A once over a stack of times, for the sampled input
columns ``exp(A s_i) b``, the sampled output rows ``c exp(A s_i)`` and the
x0 target ``exp(A t_n) x0``.  Every function here takes a ``Realization``
and reads its tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .criterion import CriterionReport, SamplingSchedule, joint_verdict
from .errors import InsufficientScheduleError
from .system_model import Realization, _state_vector


@dataclass(frozen=True)
class OracleReport:
    """Direct verdicts, the criterion report they were compared against, and
    the computed agreement."""

    reachable: bool
    observable: bool
    agrees_with_criterion: bool
    criterion: CriterionReport
    reachability_sigma_ratio: float
    observability_sigma_ratio: float

    @property
    def criterion_sigma_ratio(self) -> float:
        """Sigma ratio of the compared criterion report."""
        return self.criterion.sigma_ratio


def _exponentials(realization: Realization, schedule: SamplingSchedule, final: bool = False):
    """The stack exp(A (t_ref - t[n-1-i])), i < n, with the reference t_ref
    at ``t[n-1]`` for n instants and at ``t[n]`` for more.

    With ``final`` the schedule needs n+1 instants and slice n of the stack
    is exp(A t[n]).
    """
    n = realization.n
    t = schedule.instants
    if final and len(t) < n + 1:
        raise InsufficientScheduleError(
            f"controllability test needs {n + 1} instants, got {len(t)}"
        )
    if len(t) < n:
        raise InsufficientScheduleError(
            f"reachability matrix needs at least {n} instants, got {len(t)}"
        )
    reference = t[n - 1] if len(t) == n else t[n]
    times = [reference - t[n - 1 - i] for i in range(n)]
    if final:
        times.append(t[n])
    return numerics.expm(realization.A, times)


def _sampled(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The sampled product ``left @ right``; NumericRangeError when an entry
    leaves the float range (a large b, c or x0 on a growing mode)."""
    message = "sampled product overflowed; shrink the schedule window or scale down b, c or x0"
    return numerics.finite(lambda: left @ right, message)


def reachability_matrix(realization: Realization, schedule: SamplingSchedule) -> np.ndarray:
    """The sampled input matrix G = [G_{n-1}, ..., G_0], G_i = exp(A (t_ref - t_i)) b.

    Column i is built from instant ``t[n-1-i]``, so the columns run from the
    latest input instant back to the earliest.  With exactly n instants the
    reference t_ref is ``t[n-1]`` (matching the shifted-interval
    convention); with n+1 or more it is ``t[n]``.  The two choices differ by
    a nonsingular common factor, so the rank is the same either way:
    ``numeric_rank(G, realization.tolerances.singularity)`` is the rank
    ``cross_validate`` tests.
    """
    return _sampled(_exponentials(realization, schedule), realization.b).T


def controllable_direct(realization: Realization, schedule: SamplingSchedule, x0) -> bool:
    """State-specific controllability: exp(A t_n) x0 in the range of G.

    This is the x0-dependent form; the criterion module reports the
    x0-independent mode-space version.  Both sides use absolute times, so
    unlike the joint verdict this test is not translation invariant.  The
    span of G is truncated, and membership judged, at the bundle's
    ``singularity``.  An x0 of the wrong length or with a non-finite entry
    raises DimensionError.
    """
    n = realization.n
    x0 = _state_vector(x0, n, "x0")
    stack = _exponentials(realization, schedule, final=True)
    target = _sampled(stack[n], x0)
    return numerics.in_range(
        _sampled(stack[:n], realization.b).T, target, realization.tolerances.singularity
    ).contained


def cross_validate(realization: Realization, schedule: SamplingSchedule) -> OracleReport:
    """Run both routes and record whether every verdict matches.

    The direct rank tests use the singularity tolerance as rank tolerance,
    the threshold that also truncates the spans of the membership tests.
    Disagreement is data for triage (the report carries the criterion report
    and both direct sigma ratios), not an error.  The carried criterion
    report is the analysis's one joint verdict: its controllability pair and
    the case label are read from it, not recomputed.
    """
    report = joint_verdict(realization, schedule)
    tol = realization.tolerances.singularity
    stack = _exponentials(realization, schedule)
    reach, obs = numerics.numeric_ranks(
        (_sampled(stack, realization.b).T, _sampled(realization.c, stack).T), tol
    )
    n = realization.n
    reachable = reach.rank == n
    observable = obs.rank == n
    agrees = reachable == report.reachable and observable == report.observable
    return OracleReport(
        reachable=reachable,
        observable=observable,
        agrees_with_criterion=agrees,
        criterion=report,
        reachability_sigma_ratio=reach.sigma_ratio,
        observability_sigma_ratio=obs.sigma_ratio,
    )
