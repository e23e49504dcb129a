"""Dense matrix kernels for desk-scale systems (order <= 12).

Real matrices are treated as the imaginary-part-zero case of complex ones.
All functions are pure; nothing here keeps state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DimensionError, NumericRangeError

MAX_ORDER = 12

DEFAULT_CLUSTER_TOL = 1e-7
DEFAULT_RANK_TOL = 1e-9
DEFAULT_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of one analysis, passed around as one value.

    ``singularity`` is the verdict threshold on the mode-matrix sigma ratio
    (also the range-membership tolerance of the joint verdict and the case
    taxonomy, and the rank tolerance of the direct oracle); ``cluster``
    merges eigenvalues into multiplicity clusters; ``rank`` decides the
    continuous-time Kalman rank tests; ``residual`` is the tolerance of the
    range-membership tests of the controllability verdict and the
    x0-specific oracle.
    """

    singularity: float = DEFAULT_RANK_TOL
    cluster: float = DEFAULT_CLUSTER_TOL
    rank: float = DEFAULT_RANK_TOL
    residual: float = DEFAULT_RESIDUAL_TOL

# Entry magnitudes beyond this are treated as overflow even when still finite.
OVERFLOW_LIMIT = 1e300


class RankResult(NamedTuple):
    """Numerical rank plus the sigma_min/sigma_max diagnostic ratio."""

    rank: int
    sigma_ratio: float


class RangeCheck(NamedTuple):
    """Outcome of a least-squares range-membership test."""

    contained: bool
    residual: float


def _require_square(matrix, op: str) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{op} needs a square matrix, got shape {m.shape}")
    return m


def expm(matrix, t: float = 1.0) -> np.ndarray:
    """Return exp(matrix * t).

    Uses scaling-and-squaring with a Pade rational approximant (scipy),
    deliberately independent of any eigendecomposition so the two paths can
    cross-check each other.
    """
    m = _require_square(matrix, "expm")
    if not np.isfinite(t):
        raise NumericRangeError("expm needs a finite time scale")
    with np.errstate(over="ignore", invalid="ignore"):
        result = scipy.linalg.expm(m * t)
    if not np.all(np.isfinite(result)) or np.max(np.abs(result)) > OVERFLOW_LIMIT:
        raise NumericRangeError(
            f"matrix exponential overflowed for t={t!r} (entries beyond {OVERFLOW_LIMIT:g})"
        )
    return result


def eig_clustered(matrix, cluster_tol: float = DEFAULT_CLUSTER_TOL):
    """Eigenvalues of a real square matrix merged into multiplicity clusters.

    Eigenvalues i and j join the same cluster when
    ``|l_i - l_j| <= cluster_tol * max(1, |l_i|)`` (single linkage, so
    clusters are the connected components of that relation).  Each cluster is
    reported as (mean value, member count), sorted by real part then
    imaginary part; exact ties keep the order the eigensolver produced.

    Complex eigenvalues of a real matrix come out in conjugate pairs, so the
    cluster list is conjugate-closed as well.
    """
    m = _require_square(matrix, "eig_clustered")
    if np.iscomplexobj(m):
        raise DimensionError("eig_clustered expects a real matrix")
    try:
        values = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc

    n = values.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(values[i] - values[j])
            scale = max(1.0, abs(values[i]), abs(values[j]))
            if gap <= cluster_tol * scale:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters = []
    for members in groups.values():
        mean = complex(np.mean(values[members]))
        clusters.append((mean, len(members), min(members)))
    clusters.sort(key=lambda c: (c[0].real, c[0].imag, c[2]))
    return [(value, count) for value, count, _ in clusters]


def numeric_rank(matrix, rank_tol: float = DEFAULT_RANK_TOL) -> RankResult:
    """Rank = number of singular values above rank_tol * sigma_max."""
    m = np.atleast_2d(np.asarray(matrix))
    sigma = np.linalg.svd(m, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return RankResult(0, 0.0)
    rank = int(np.count_nonzero(sigma > rank_tol * sigma[0]))
    return RankResult(rank, float(sigma[-1] / sigma[0]))


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
    if m.ndim < 2:
        m = np.atleast_2d(m)
    # Column 2-norms by the expression np.linalg.norm evaluates (same floats),
    # without its argument handling, which the scalar path pays per call.
    norms = np.sqrt(np.add.reduce((m.conj() * m).real, axis=-2, keepdims=True))
    sigma = np.linalg.svd(m / np.where(norms > 0.0, norms, 1.0), compute_uv=False)
    if sigma.shape[-1] == 0:
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[:-2])
    # Singular values are sorted and nonnegative: a zero sigma_max means a
    # zero matrix, whose ratio is 0, so divide it by 1 instead; adding the
    # boolean leaves every nonzero sigma_max exact.  Indexing the transpose
    # keeps a single matrix on numpy scalars (sigma[..., 0] would give 0-d
    # arrays, several times slower per operation); the final .T restores
    # the batch axis order.
    top = sigma.T[0]
    ratio = (sigma.T[-1] / (top + (top == 0.0))).T
    return float(ratio) if m.ndim == 2 else ratio


def in_range(matrix, vector, residual_tol: float = DEFAULT_RESIDUAL_TOL) -> RangeCheck:
    """Least-squares test of whether vector lies in the column span of matrix.

    Membership holds when the residual of ``min ||M x - v||`` stays below
    ``residual_tol * max(1, ||v||)``.
    """
    m = np.atleast_2d(np.asarray(matrix))
    v = np.asarray(vector).reshape(-1)
    if v.shape[0] != m.shape[0]:
        raise DimensionError(
            f"in_range got a vector of length {v.shape[0]} for a matrix with {m.shape[0]} rows"
        )
    solution, *_ = np.linalg.lstsq(m, v, rcond=None)
    residual = float(np.linalg.norm(m @ solution - v))
    threshold = residual_tol * max(1.0, float(np.linalg.norm(v)))
    return RangeCheck(residual <= threshold, residual)
