"""Dense matrix kernels for desk-scale systems (order <= 12).

Real matrices are treated as the imaginary-part-zero case of complex ones.
All functions are pure; nothing here keeps state.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, NumericRangeError, ToleranceError

MAX_ORDER = 12
# Size guards of the schedule-search module, defined here so that the CLI's
# help text can quote them without loading that module.
MAX_UNIFORM_HORIZON = 10_000  # the multiples one uniform validation scans
DEFAULT_UNIFORM_HORIZON = 10  # the multiples it scans when not told
MAX_SCHEDULE_INSTANTS = 100_000  # the instants one schedule search returns


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of one analysis, passed around as one value.

    ``singularity`` is the verdict threshold on the mode-matrix sigma ratio
    and the rank-truncation threshold of every span: the direct oracle's
    rank tests (``cross_validate`` and ``reachability_matrix``) and the
    spans of both range-membership tests; ``cluster`` merges eigenvalues
    into multiplicity clusters; ``rank`` decides the continuous-time Kalman
    rank tests of ``check_minimal``; ``residual`` is the membership
    tolerance of the joint verdict's controllability test and of
    ``controllable_direct``, relative to the vector tested whatever its
    scale.  Analyses read each field from the bundle of the realization
    they are given, and the kernels' keyword defaults from this class,
    which holds the only defaults.  Each must be a positive finite real
    (ToleranceError naming the field otherwise), stored as a float.
    """

    singularity: float = 1e-9
    cluster: float = 1e-7
    rank: float = 1e-9
    residual: float = 1e-9

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            error = lambda: ToleranceError(
                f"tolerance {field.name} must be a positive finite number, got {value!r}"
            )
            number = as_float(value, error)
            if not (math.isfinite(number) and number > 0.0):
                raise error()
            object.__setattr__(self, field.name, number)


_TINY, _HUGE = np.finfo(float).tiny, np.finfo(float).max  # the finite normal floats


def as_float(value, error) -> float:
    """``value`` as a float.  The one rule for real inputs: a number must be
    a ``numbers.Real`` that is not a bool (or a 0-d array of one), else
    ``error()`` is raised; an integer beyond the float range becomes +-inf.
    Finiteness, shape and sign are left to the caller."""
    if type(value) is float:
        return value
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error()
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def as_real(values, error) -> np.ndarray:
    """``values``, a number, an array or a nested sequence of numbers, as a
    new C-ordered float ndarray, each entry by ``as_float``'s rule."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        # C order whatever the input's layout: LAPACK's last bits follow it.
        return values.astype(float, order="C")
    if type(values) in (list, tuple) and all(type(x) is float for x in values):
        return np.array(values, dtype=float)
    try:
        entries = np.array(values, dtype=object)
    except ValueError:  # a ragged sequence
        raise error() from None
    return np.array([as_float(x, error) for x in entries.flat]).reshape(entries.shape)


def _numeric(values, name: str) -> np.ndarray:
    """``values`` as an ndarray of integer, real or complex dtype; a bool,
    string or object array raises DimensionError naming ``name``."""
    array = np.asarray(values)
    if array.dtype.kind not in "iufc":
        raise DimensionError(
            f"{name} must hold integer, real or complex numbers, got dtype {array.dtype}"
        )
    return array


def as_integer(value, error) -> int:
    """``value`` as an int if it is a ``numbers.Integral`` but no bool, else raise ``error()``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error()
    return int(value)


def finite(compute, message: str):
    """``compute()`` if every number in it (an array, a number or a tuple of them) is
    finite, else NumericRangeError(message): the one float-range rule.  numpy's overflow
    and invalid warnings are off inside; Python's OverflowError (a complex power, a huge
    modulus) counts as non-finite.  A fixed ``message`` costs nothing; an array repr would."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = compute()
        parts = value if type(value) is tuple else (value,)
        if all(np.isfinite(p).all() if isinstance(p, np.ndarray) else cmath.isfinite(p) for p in parts):
            return value
    except OverflowError:
        pass
    raise NumericRangeError(message)


class RankResult(NamedTuple):
    """Numerical rank plus the sigma_min/sigma_max diagnostic ratio."""

    rank: int
    sigma_ratio: float


class RangeCheck(NamedTuple):
    """Outcome of a rank-truncated range-membership test."""

    contained: bool
    residual: float


# Degree-13 Pade coefficients b_0..b_13 (Higham 2005, "The scaling and
# squaring method for the matrix exponential revisited"), divided by b_0 so
# that the denominator at a zero matrix is exactly the identity and t = 0
# gives the identity exactly.
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0
# Row i weighs (A^6, A^4, A^2, I) into W_i; then U = A (A^6 W_0 + W_1) and
# V = A^6 W_2 + W_3.
_PADE13_WEIGHTS = np.append(
    _PADE13[[[13, 11, 9], [7, 5, 3], [12, 10, 8], [6, 4, 2]]],
    [[0.0], [_PADE13[1]], [0.0], [_PADE13[0]]],
    axis=1,
)
# The 1-norm up to which the degree-13 approximant is accurate to double
# precision without scaling.
_THETA13 = 5.371920351148152


def expm(matrix, t=1.0) -> np.ndarray:
    """Return exp(matrix * t); for a 1-D array of times, the stack of them.

    A scalar ``t`` gives shape (n, n) and a 1-D ``t`` of k times gives
    (k, n, n), each slice bit-identical to the scalar call at that time.
    Degree-13 Pade approximant with scaling and squaring (Higham 2005): time
    t_k is scaled by its own power of two so that ``|t_k| * ||matrix||_1``
    drops below theta_13, and the approximant is squared back as often.  A
    diagonal matrix is exponentiated entry by entry.  No eigendecomposition
    is involved, so this path and the modal one can cross-check each other.

    Raises DimensionError for a matrix that is not square or not of
    integer, real or complex dtype, and NumericRangeError for a time that is
    not a finite real, a scaled norm that overflows, or a result that is not
    finite.
    """
    m = _numeric(matrix, "expm matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expm needs a square matrix, got shape {m.shape}")
    times = as_real(t, lambda: NumericRangeError("expm needs real times"))
    if times.ndim > 1:
        raise DimensionError(f"expm takes a scalar or a 1-D array of times, got shape {times.shape}")
    ts = times.reshape(-1)
    if not np.isfinite(ts).all():
        raise NumericRangeError("expm needs a finite time scale")
    n = m.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
            result = np.zeros((ts.size, n, n), dtype=np.result_type(m, float))
            index = np.arange(n)
            result[:, index, index] = np.exp(ts[:, None] * m.diagonal())
        else:
            norms = np.abs(ts) * np.abs(m).sum(axis=0).max()
            if not np.isfinite(norms).all():
                raise NumericRangeError(
                    f"matrix exponential out of range: |t| * ||A||_1 overflows for t={t!r}"
                )
            squarings = np.ceil(np.log2(np.maximum(norms, _THETA13) / _THETA13)).astype(int)
            scale = np.ldexp(ts, -squarings)[:, None, None]
            result = _pade13(scale * m)
            for k in range(squarings.max(initial=0)):  # square back times scaled more than k times
                pick = squarings > k
                result[pick] = result[pick] @ result[pick]
    if not np.isfinite(result).all():
        raise NumericRangeError(f"matrix exponential overflowed for t={t!r}")
    return result if times.ndim else result[0]


def _pade13(a: np.ndarray) -> np.ndarray:
    """Degree-13 Pade approximant of exp for a stack (k, n, n) of matrices."""
    powers = np.empty((4,) + a.shape, dtype=a.dtype)
    np.matmul(a, a, out=powers[2])
    np.matmul(powers[2], powers[2], out=powers[1])
    np.matmul(powers[1], powers[2], out=powers[0])
    powers[3] = np.eye(a.shape[-1])
    weighted = (_PADE13_WEIGHTS[:, :, None, None, None] * powers).sum(axis=1)
    halves = powers[0] @ weighted[0::2] + weighted[1::2]
    u = a @ halves[0]
    v = halves[1]
    return np.linalg.solve(v - u, v + u)


def eig_clustered(values, cluster_tol: float = Tolerances.cluster):
    """Eigenvalues merged into multiplicity clusters.

    ``values`` is the 1-D array of eigenvalues an eigensolver returned for
    one matrix.  Eigenvalues i and j join the same cluster when
    ``|l_i - l_j| <= cluster_tol * max(1, |l_i|, |l_j|)`` (single linkage, so
    clusters are the connected components of that relation).  Each cluster is
    reported as (mean value, member count), sorted by real part then
    imaginary part; exact ties keep the order of ``values``.

    The components come from a plain pairwise loop over the at most
    MAX_ORDER values, each labelled by its lowest member index; a cluster
    of one reports its eigenvalue exactly as given, a larger one the
    ``np.mean`` of its members.

    For a real matrix the cluster list is exactly conjugate-closed: LAPACK
    returns exact conjugate pairs, linkage is conjugation-invariant, and
    conjugate clusters sum their members in the same order.  A cluster with
    members on both sides of the real axis is its own conjugate, so a mean
    with an imaginary residue (numpy's pairwise sum of five or more complex
    members leaves a few ulps) is reported as its real part.
    """
    values = np.asarray(values)
    points = values.tolist()
    magnitude = [abs(value) for value in points]
    labels = list(range(len(points)))
    for i in range(len(points)):
        for j in range(i):
            if labels[i] != labels[j] and abs(points[i] - points[j]) <= cluster_tol * max(
                1.0, magnitude[i], magnitude[j]
            ):
                # Merge the two components under the lower label.
                old, new = max(labels[i], labels[j]), min(labels[i], labels[j])
                labels = [new if label == old else label for label in labels]
    members = {}
    for index, label in enumerate(labels):
        members.setdefault(label, []).append(index)
    clusters = []
    for label, group in members.items():
        if len(group) == 1:
            value = complex(points[group[0]])
        else:
            value = complex(np.mean(values[group]))
            if value.imag and values[group].imag.min() <= 0.0 <= values[group].imag.max():
                value = complex(value.real)
        clusters.append((value, len(group), label))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag, c[2]))
    return [(value, count) for value, count, _ in clusters]


def numeric_rank(matrix, rank_tol: float = Tolerances.rank) -> RankResult:
    """``numeric_ranks`` of one matrix; a matrix not of integer, real or
    complex dtype raises DimensionError."""
    m = np.atleast_2d(_numeric(matrix, "numeric_rank matrix"))
    return numeric_ranks((m,), rank_tol)[0]


def numeric_ranks(matrices, rank_tol: float = Tolerances.rank) -> list[RankResult]:
    """Rank (singular values above ``rank_tol * sigma_max``) and sigma_min /
    sigma_max of each of a sequence of same-shape real or complex matrices,
    (0, 0.0) for a zero or empty one, from one stacked SVD: the bits of one
    call per matrix."""
    results = []
    for sigma in np.linalg.svd(np.array(matrices), compute_uv=False):
        if sigma.size == 0 or sigma[0] == 0.0:
            results.append(RankResult(0, 0.0))
        else:
            rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
            results.append(RankResult(rank, float(sigma[-1] / sigma[0])))
    return results


def _pow2(x, k):
    """``x * 2**k`` as two exact factors, k an int or int array in [-1073, 1024]."""
    return x * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)


def _unit_peak(m: np.ndarray) -> tuple[np.ndarray, int]:
    """``(m * 2**-k, k)``, k putting the peak in [0.5, 1); 0 for a zero or non-finite peak."""
    k = math.frexp(float(np.abs(m).max(initial=0.0)))[1]
    return _pow2(m, -k), k


def _unit_columns(m: np.ndarray) -> np.ndarray:
    """``m`` with its nonzero columns (axis -2) scaled to unit 2-norm, the
    norms computed inline rather than by ``np.linalg.norm``.

    Total on finite input; real input stays real.  A column whose sum of
    squares is not a normal float (an entry past ~1e154, or all below
    ~1e-154) is first scaled by ``_pow2`` to a peak in [0.5, 1), a power of
    two per column; every other column keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.add.reduce((m.conj() * m).real, axis=-2, keepdims=True)
    if _TINY <= np.minimum.reduce(squares, None) and np.maximum.reduce(squares, None) <= _HUGE:
        return m / np.sqrt(squares)
    lost = ~((squares >= _TINY) & (squares <= _HUGE))
    shift = -np.frexp(np.abs(m).max(axis=-2, keepdims=True))[1]
    m = np.where(lost, _pow2(m, shift), m)
    norms = np.sqrt(np.add.reduce((m.conj() * m).real, axis=-2, keepdims=True))
    return m / np.where(norms > 0.0, norms, 1.0)


def column_normalized_sigma_ratio(matrix) -> float | np.ndarray:
    """sigma_min / sigma_max after scaling every column to unit norm.

    Column scales are where the wild magnitude swings live (exponentials of
    eigenvalue times interval), so this is the scale-free singularity
    statistic the verdicts compare against their tolerance.

    A stack of shape (..., rows, cols) is handled in one pass: column norms
    are taken along axis -2 and one stacked SVD covers every matrix, giving
    an array of shape (...).  A single 2-D matrix gives a float.
    """
    m = np.asarray(matrix)
    sigma = np.linalg.svd(_unit_columns(m), compute_uv=False)
    # Singular values are sorted and nonnegative: a zero sigma_max means a
    # zero matrix, whose ratio is 0, so divide it by 1 instead; adding the
    # boolean leaves every nonzero sigma_max exact.  Indexing the transpose
    # keeps a single matrix on numpy scalars (sigma[..., 0] would give 0-d
    # arrays, several times slower per operation); the final .T restores
    # the batch axis order.
    top = sigma.T[0]
    ratio = (sigma.T[-1] / (top + (top == 0.0))).T
    return float(ratio) if m.ndim == 2 else ratio


def vector_norm(vector) -> float:
    """2-norm of a vector, finite whenever the norm is: ``_unit_peak``'s, scaled back."""
    scaled, k = _unit_peak(np.asarray(vector))
    return _pow2(float(np.linalg.norm(scaled)), k)


def in_range(
    matrix,
    vector,
    residual_tol: float = Tolerances.residual,
    rank_tol: float = Tolerances.singularity,
) -> RangeCheck:
    """Whether vector lies in the numerical column span of matrix.

    The span is that of the left singular vectors of the column-normalized
    matrix whose singular values exceed ``rank_tol * sigma_max``, so a span
    the rank test calls dependent covers only its numerical rank.  Membership
    holds when the residual of the projection onto it is at most
    ``residual_tol * ||v||``, both taken on v scaled by ``_unit_peak``: the
    test is relative at every magnitude.  A matrix or vector that is not of
    integer, real or complex dtype raises DimensionError naming it, and a
    residual beyond the floating-point range NumericRangeError.
    """
    m = np.atleast_2d(_numeric(matrix, "in_range matrix"))
    v = _numeric(vector, "in_range vector").reshape(-1)
    if v.shape[0] != m.shape[0]:
        raise DimensionError(
            f"in_range got a vector of length {v.shape[0]} for a matrix with {m.shape[0]} rows"
        )
    u, sigma, _ = np.linalg.svd(_unit_columns(m), full_matrices=False)
    basis = u[:, sigma > rank_tol * sigma.max(initial=0.0)]
    scaled, k = _unit_peak(v)

    def residuals():  # of the scaled vector, and scaled back
        residual = float(np.linalg.norm(scaled - basis @ (basis.conj().T @ scaled)))
        return residual, _pow2(residual, k)

    unit, residual = finite(residuals, "membership residual overflowed; scale down b or x0")
    return RangeCheck(unit <= residual_tol * float(np.linalg.norm(scaled)), residual)
