"""Reachability and observability of SISO systems under nonuniform sampling.

The package decides whether a minimal continuous-time SISO realization stays
jointly n-reachable and n-observable when sampled at freely chosen instants,
factors the decision determinant into its multiplicity, weighting and
mode-matrix parts, and cross-validates every verdict against a direct rank
test on the sampled input matrix.
"""

from .criterion import (
    CriterionReport,
    SamplingSchedule,
    ShiftedIntervals,
    factor_n1,
    factor_n2,
    full_determinant,
    joint_verdict,
    mode_matrix,
    schedule_conditioning,
    shifted_intervals,
)
from .errors import (
    AnalysisError,
    DimensionError,
    InfeasibleError,
    InsufficientScheduleError,
    MinimalityError,
    NotApplicableError,
    NumericRangeError,
    SingularScheduleError,
    SystemDocumentError,
    ToleranceError,
    UnsupportedOrderError,
)
from .experiments import (
    Trajectory,
    classify_case,
    deadbeat_inputs,
    reconstruct_state,
    simulate_impulse,
    simulate_zoh,
)
from .numerics import (
    RangeCheck,
    RankResult,
    Tolerances,
    eig_clustered,
    expm,
    in_range,
    numeric_rank,
)
from .oracle import (
    OracleReport,
    ReachabilityMatrixResult,
    controllable_direct,
    cross_validate,
    reachability_matrix,
)
from .system_model import (
    MinimalityReport,
    ModalDecomposition,
    ModeSet,
    Realization,
    check_minimal,
    modal_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "CriterionReport",
    "DimensionError",
    "ForbiddenSet",
    "InfeasibleError",
    "InsufficientScheduleError",
    "MinimalityError",
    "MinimalityReport",
    "ModalDecomposition",
    "ModeSet",
    "NotApplicableError",
    "NumericRangeError",
    "OracleReport",
    "RangeCheck",
    "RankResult",
    "ReachabilityMatrixResult",
    "Realization",
    "SamplingSchedule",
    "ScheduleSearchSpec",
    "ShiftedIntervals",
    "SingularScheduleError",
    "SystemDocumentError",
    "ToleranceError",
    "Tolerances",
    "Trajectory",
    "UniformValidation",
    "UnsupportedOrderError",
    "check_minimal",
    "classify_case",
    "controllable_direct",
    "cross_validate",
    "deadbeat_inputs",
    "eig_clustered",
    "expm",
    "factor_n1",
    "factor_n2",
    "forbidden_instants_order2",
    "full_determinant",
    "in_range",
    "joint_verdict",
    "modal_decompose",
    "mode_matrix",
    "numeric_rank",
    "reachability_matrix",
    "reconstruct_state",
    "schedule_conditioning",
    "shifted_intervals",
    "simulate_impulse",
    "simulate_zoh",
    "suggest_schedule",
    "validate_uniform",
]

# The schedule-search exports load nusamp.scheduler on first use, so that
# importing the package (and the CLI's analyze path) never compiles it.
_SCHEDULER_EXPORTS = frozenset({
    "ForbiddenSet",
    "ScheduleSearchSpec",
    "UniformValidation",
    "forbidden_instants_order2",
    "suggest_schedule",
    "validate_uniform",
})


def __getattr__(name):
    # Read from the module on every access, never cached here, so that
    # whatever is bound in nusamp.scheduler is what the package returns.
    if name in _SCHEDULER_EXPORTS:
        from . import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SCHEDULER_EXPORTS)
