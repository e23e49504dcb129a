"""Joint n-reachability / n-observability test for nonuniform sampling.

The decision statistic is the n-by-n mode matrix: characteristic modes
evaluated at the shifted intervals of the schedule.  Its nonsingularity is
equivalent to full rank of the sampled input matrix, and the two properties
hold or fail together, which is why a single verdict covers both.

Conventions, fixed here and relied on by every caller:

* a schedule is a strictly increasing list of absolute instants;
* shifted intervals are taken against the last of the first n instants:
  ``alpha_m = t[n-1] - t[n-1-m]``, so ``alpha_0 = 0`` and the alphas
  increase.  With an (n+1)-th instant present, ``alpha_n = t[n] - t[0]``;
* the mode matrix entry (m, i) is mode i evaluated at ``alpha_m``;
* singularity is judged on the sigma ratio of the column-normalized mode
  matrix rather than the raw determinant, whose scale swings wildly with
  ``exp(lam * alpha)``.  The determinant is still reported.

The determinant of the matrix whose columns are ``exp(J alpha_m) y0``
factors as ``N1 * N2 * det(mode matrix)`` with N1 a positive factorial
product over multiplicities and N2 a product of per-block anti-triangular
determinants in the y0 components; the identity is recomputed on every
verdict and its residual attached to the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite

import numpy as np

from . import numerics
from .errors import DimensionError, InsufficientScheduleError
from .system_model import ModalDecomposition, ModeSet, Realization


@dataclass(frozen=True)
class SamplingSchedule:
    """Strictly increasing finite instants in seconds, a tuple of floats."""

    instants: tuple

    def __post_init__(self):
        error = lambda: DimensionError("schedule instants must be a sequence of real numbers")
        try:
            instants = tuple(numerics.as_float(t, error) for t in self.instants)
        except TypeError:  # not iterable
            raise error() from None
        if len(instants) < 1:
            raise DimensionError("a schedule needs at least one instant")
        if not all(map(isfinite, instants)):
            raise DimensionError("schedule instants must be finite")
        if any(b <= a for a, b in zip(instants, instants[1:])):
            raise DimensionError("schedule instants must be strictly increasing")
        object.__setattr__(self, "instants", instants)

    def __len__(self) -> int:
        return len(self.instants)

    def shifted(self, delta: float) -> "SamplingSchedule":
        """The same schedule translated by delta, a finite real number."""
        error = lambda: DimensionError(f"shift delta must be a finite real number, got {delta!r}")
        shift = numerics.as_float(delta, error)
        if not isfinite(shift):
            raise error()
        return SamplingSchedule(tuple(t + shift for t in self.instants))


@dataclass(frozen=True)
class ShiftedIntervals:
    """Intervals alpha_0 = 0 < alpha_1 < ... relative to the reference instant."""

    alpha: tuple
    alpha_n: float | None = None


@dataclass(frozen=True)
class CriterionReport:
    """Everything the joint test computed for one (system, schedule) pair.

    ``reachable`` and ``observable`` always agree; they are separate fields
    because callers ask the two questions separately.  ``controllable`` /
    ``constructible`` stay None unless the schedule offered an extra instant.
    """

    mode_det: complex
    sigma_ratio: float
    n1: float
    n2: complex
    full_det: complex
    reachable: bool
    observable: bool
    controllable: bool | None
    constructible: bool | None
    membership_residual: float | None
    factorization_residual: float
    alphas: ShiftedIntervals
    tolerances: numerics.Tolerances


def shifted_intervals(schedule: SamplingSchedule, n: int) -> ShiftedIntervals:
    """Shifted intervals of the first n instants; alpha_n when one more exists."""
    t = schedule.instants
    alpha_n = (t[n] - t[0]) if len(t) > n else None
    return ShiftedIntervals(tuple(_alpha_rows(np.array(t), n).tolist()), alpha_n)


def _alpha_rows(t: np.ndarray, n: int) -> np.ndarray:
    """``alpha_m = t[n-1] - t[n-1-m]`` for m = 0..n-1, along the last axis."""
    if t.shape[-1] < n:
        raise InsufficientScheduleError(
            f"schedule has {t.shape[-1]} instants but the order-{n} test needs at least {n}"
        )
    return t[..., n - 1 : n] - t[..., n - 1 :: -1]


def mode_matrix(modes: ModeSet, alphas) -> np.ndarray:
    """Mode matrices: entry (..., m, i) = mode_i(alpha[..., m]).

    ``alphas`` is an array of shape (..., n); any leading axes are a batch
    of schedules, evaluated in one vectorized pass into shape (..., n, n).
    Raises NumericRangeError when any entry of the batch overflows.

    The eigenvalue and power arrays are the mode set's ``kernel``, built
    once per mode set.  A mode set of simple clusters has only power 0, so
    its matrices are ``exp(lam * alpha)`` with no power pass: ``alpha**0``
    is exactly 1, and the product with it would change at most the sign of
    a zero component.  A defective mode set multiplies by ``alpha**power``.
    """
    lams, powers, defective = modes.kernel
    n = lams.size
    a = np.asarray(alphas, dtype=float)
    if a.ndim == 0 or a.shape[-1] != n:
        raise DimensionError(
            f"mode matrix needs {n} intervals for {n} modes, got shape {a.shape}"
        )
    a = a[..., None]
    return numerics.finite(
        lambda: (a**powers) * np.exp(lams * a) if defective else np.exp(lams * a),
        "mode matrix overflowed; shrink the schedule window",
    )


def factor_n1(modes: ModeSet) -> float:
    """Product over the modes of 1/p! at power p; always positive."""
    value = 1.0
    for p in modes.kernel[1].tolist():
        value /= factorial(int(p))
    return value


def factor_n2(decomposition: ModalDecomposition) -> complex:
    """Product of the per-block anti-triangular determinants in y0.

    The block for a multiplicity-m eigenvalue has entry (p, q) equal to the
    (p+q)-th y0 component of the block when p + q < m and zero otherwise, so
    its determinant is ``(-1)**(m*(m-1)/2) * y_last**m``.  Nonzero exactly
    when the last y0 component of every block is nonzero.
    """
    y0 = decomposition.y0
    value = complex(1.0)
    offset = 0
    for _, m in decomposition.modes.roots:
        offset += m
        y_last = complex(y0[offset - 1])
        value *= (-1) ** (m * (m - 1) // 2) * y_last**m
    return value


def full_determinant(decomposition: ModalDecomposition, alphas: ShiftedIntervals) -> complex:
    """det of the matrix whose m-th column is exp(J alpha_m) y0, under the range rule."""
    n = decomposition.J.shape[0]
    if len(alphas.alpha) != n:
        raise DimensionError(
            f"full determinant needs {n} intervals, got {len(alphas.alpha)}"
        )
    vectors = _mode_space_vectors(decomposition, alphas.alpha)
    message = "determinant overflowed; shrink the schedule window or scale down b"
    return numerics.finite(lambda: complex(np.linalg.det(vectors.T)), message)


def schedule_conditioning(modes: ModeSet, schedules) -> float | np.ndarray:
    """Sigma ratio of the column-normalized mode matrix for each schedule.

    This is the verdict statistic of the joint test; it needs only the mode
    set, so schedule search and guard-band probing can call it cheaply.
    ``schedules`` is a SamplingSchedule, giving a float, or an unvalidated
    array of instants of shape (..., k), k >= n, giving shape (...) from one
    stacked mode-matrix and SVD pass (a float for a single row).
    """
    if isinstance(schedules, SamplingSchedule):
        schedules = schedules.instants
    alphas = _alpha_rows(np.asarray(schedules, dtype=float), modes.n)
    return numerics.column_normalized_sigma_ratio(mode_matrix(modes, alphas))


# ``schedule_screen``'s error bound is SCREEN_BOUND * n**2 * eps * (1 + 1/g)
# at estimate g.  Over 600 seeded mode sets at orders 1-12, 256 rows each
# with near-coincident instants included, the worst error measured was
# 0.36 * n**2 * eps * (1 + 1/g), some 180 times below it.
SCREEN_BOUND = 64.0
_EPS = np.finfo(float).eps


def schedule_screen(modes: ModeSet, schedules) -> np.ndarray:
    """An estimate of ``schedule_conditioning`` and a bound on its error, for
    an array of instants of shape (..., k), k >= n: shape (2, ...), the
    estimates first, so that ``estimate, bound = schedule_screen(...)``.

    Schedule search ranks its grid rows with it and runs the SVD only on the
    rows whose bound lets them make its cut.  The mode matrix is built and
    column-normalized as for the sigma ratio, then taken to its real form R:
    a conjugate pair of columns (u, conj u) becomes (sqrt(2) Re u,
    sqrt(2) Im conj u).  The mode set of a real A is exactly conjugate-closed
    (``numerics.eig_clustered``), so this is a unitary change of basis that
    keeps the singular values.  The estimate is ``g = sqrt(w_min / w_max)``
    over the eigenvalues w of the Gram matrix R^T R, at about half the cost
    of the SVD.  w_min carries an absolute error of order eps * w_max, so
    the bound, ``SCREEN_BOUND * n**2 * eps * (1 + 1/g)``, grows as g falls,
    to infinity at g = 0.  Row 0 is at alpha = 0, so a power-0 column is
    never zero, trace(R^T R) >= 1 and g is finite.  Shape and range errors
    are those of ``schedule_conditioning``.
    """
    n = modes.n
    imag = modes.kernel[0].imag
    alphas = _alpha_rows(np.asarray(schedules, dtype=float), n)
    unit = numerics._unit_columns(mode_matrix(modes, alphas))
    real = np.where(imag < 0.0, unit.imag, unit.real) * np.where(imag == 0.0, 1.0, np.sqrt(2.0))
    w = np.linalg.eigvalsh(np.swapaxes(real, -1, -2) @ real)
    estimate = np.sqrt(np.maximum(w[..., 0], 0.0) / w[..., -1])
    with np.errstate(divide="ignore"):
        bound = SCREEN_BOUND * n**2 * _EPS * (1.0 + 1.0 / estimate)
    return np.stack((estimate, bound))


def _mode_space_vectors(decomposition: ModalDecomposition, alphas) -> np.ndarray:
    """Rows exp(J alpha_k) y0, one per interval, from one batched expm."""
    message = "mode-space vectors overflowed; shrink the schedule window or scale down b"
    return numerics.finite(lambda: numerics.expm(decomposition.J, alphas) @ decomposition.y0, message)


def joint_verdict(system: Realization, schedule: SamplingSchedule) -> CriterionReport:
    """Run the joint n-reachability / n-observability test on a schedule.

    The realization must be minimal (MinimalityError otherwise, naming the
    failing rank test) and the schedule must supply at least n instants; the
    first n decide the verdict: reachable when the mode-matrix sigma ratio
    exceeds the singularity tolerance.  With n+1 or more instants the weaker
    controllability / constructibility pair is also reported: the mode-space
    vector at ``alpha_n = t[n] - t[0]`` must lie in the span of those at
    ``alpha_0 .. alpha_{n-1}``, a span truncated at the singularity
    tolerance and a membership judged by the residual tolerance.  A
    full-rank span holds every vector, so the pair holds whenever the
    schedule is reachable.  A mode matrix, mode-space vector, determinant, N2
    or residual that is not finite raises NumericRangeError (``numerics.finite``).
    """
    decomposition = system.decomposition
    tolerances = system.tolerances
    modes = decomposition.modes
    n = system.n
    alphas = shifted_intervals(schedule, n)

    phi = mode_matrix(modes, alphas.alpha)
    sigma_ratio = numerics.column_normalized_sigma_ratio(phi)
    verdict = sigma_ratio > tolerances.singularity

    # One batched exponential gives full_det (first n rows) and the membership
    # row at alpha_n; full_det stays independent of mode_det, so the
    # factorization identity keeps its strength.
    intervals = alphas.alpha if alphas.alpha_n is None else (*alphas.alpha, alphas.alpha_n)
    vectors = _mode_space_vectors(decomposition, intervals)
    n1 = factor_n1(modes)

    def determinants():
        mode_det, full_det = complex(np.linalg.det(phi)), complex(np.linalg.det(vectors[:n].T))
        n2 = factor_n2(decomposition)
        return mode_det, full_det, n2, abs(full_det - n1 * n2 * mode_det)

    mode_det, full_det, n2, factorization_residual = numerics.finite(
        determinants, "determinant overflowed; shrink the schedule window or scale down b"
    )

    controllable = constructible = None
    membership_residual = None
    if alphas.alpha_n is not None:
        membership = numerics.in_range(
            vectors[:n].T, vectors[n], tolerances.residual, tolerances.singularity
        )
        controllable = constructible = verdict or membership.contained
        membership_residual = membership.residual

    return CriterionReport(
        mode_det=mode_det,
        sigma_ratio=sigma_ratio,
        n1=n1,
        n2=n2,
        full_det=full_det,
        reachable=verdict,
        observable=verdict,
        controllable=controllable,
        constructible=constructible,
        membership_residual=membership_residual,
        factorization_residual=factorization_residual,
        alphas=alphas,
        tolerances=tolerances,
    )

