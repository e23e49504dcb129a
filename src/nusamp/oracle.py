"""Direct rank tests on the sampled input matrix.

This path stays in the original state basis end to end: matrix exponentials
of A itself, rank by SVD, no modal decomposition anywhere.  Agreement with
the mode-matrix criterion is therefore a genuine two-route check, and
``cross_validate`` computes that agreement instead of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .criterion import CriterionReport, SamplingSchedule, joint_verdict
from .errors import InsufficientScheduleError
from .system_model import PreparedSystem, Realization, prepare


@dataclass(frozen=True)
class ReachabilityMatrixResult:
    """Sampled input matrix and its rank test.

    Column i is built from instant ``t[n-1-i]``, i.e. the columns run from
    the latest input instant back to the earliest.
    """

    G: np.ndarray
    rank: numerics.RankResult
    reference_instant: float


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


def reachability_matrix(
    realization: Realization,
    schedule: SamplingSchedule,
    rank_tol: float = numerics.DEFAULT_RANK_TOL,
) -> ReachabilityMatrixResult:
    """Build [G_{n-1}, ..., G_0] with G_i = exp(A (t_ref - t_i)) b.

    With exactly n instants the reference is ``t[n-1]`` (matching the
    shifted-interval convention); with n+1 or more it is ``t[n]``.  The two
    choices differ by a nonsingular common factor, so the rank verdict is
    the same either way.
    """
    n = realization.n
    t = schedule.instants
    if len(t) < n:
        raise InsufficientScheduleError(
            f"reachability matrix needs at least {n} instants, got {len(t)}"
        )
    reference = t[n - 1] if len(t) == n else t[n]
    intervals = [reference - t[n - 1 - i] for i in range(n)]
    G = (numerics.expm(realization.A, intervals) @ realization.b).T
    return ReachabilityMatrixResult(G, numerics.numeric_rank(G, rank_tol), reference)


def reachable_direct(
    realization: Realization,
    schedule: SamplingSchedule,
    tol: float = numerics.DEFAULT_RANK_TOL,
) -> bool:
    """n-reachability by full rank of the sampled input matrix."""
    return reachability_matrix(realization, schedule, tol).rank.rank == realization.n


def observable_direct(
    realization: Realization,
    schedule: SamplingSchedule,
    tol: float = numerics.DEFAULT_RANK_TOL,
) -> bool:
    """n-observability, by duality: reachability of (A^T, c^T, b^T)."""
    return reachable_direct(realization.dual(), schedule, tol)


def controllable_direct(
    realization: Realization,
    schedule: SamplingSchedule,
    x0,
    tol: float = numerics.DEFAULT_RESIDUAL_TOL,
) -> bool:
    """State-specific controllability: exp(A t_n) x0 in the range of G.

    This is the x0-dependent form; the criterion module reports the
    x0-independent mode-space version.  Both sides use absolute times, so
    unlike the joint verdict this test is not translation invariant.
    """
    n = realization.n
    t = schedule.instants
    if len(t) < n + 1:
        raise InsufficientScheduleError(
            f"controllability test needs {n + 1} instants, got {len(t)}"
        )
    matrix = reachability_matrix(realization, schedule, tol)
    target = numerics.expm(realization.A, t[n]) @ np.asarray(x0, dtype=float).reshape(-1)
    return numerics.in_range(matrix.G, target, tol).contained


def cross_validate(
    system: Realization | PreparedSystem, schedule: SamplingSchedule
) -> OracleReport:
    """Run both routes and record whether every verdict matches.

    The direct rank tests use the singularity tolerance as rank tolerance.
    Disagreement is data for triage (the report carries the criterion report
    and both direct sigma ratios), not an error.  A plain realization is
    analysed with the default tolerances.
    """
    prepared = prepare(system)
    report = joint_verdict(prepared, schedule)
    realization = prepared.realization
    tol = prepared.tolerances.singularity
    reach = reachability_matrix(realization, schedule, tol)
    obs = reachability_matrix(realization.dual(), schedule, tol)
    n = realization.n
    reachable = reach.rank.rank == n
    observable = obs.rank.rank == n
    agrees = reachable == report.reachable and observable == report.observable
    return OracleReport(
        reachable=reachable,
        observable=observable,
        agrees_with_criterion=agrees,
        criterion=report,
        reachability_sigma_ratio=reach.rank.sigma_ratio,
        observability_sigma_ratio=obs.rank.sigma_ratio,
    )
