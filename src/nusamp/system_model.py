"""Continuous-time SISO realizations and their modal structure.

A realization is the triple (A, b, c) of a linear time-invariant system

    x'(t) = A x(t) + b u(t),        y(t) = c x(t),

with A real n-by-n and b, c real n-vectors.  Everything downstream consumes
the modal picture extracted here: the clustered eigenvalues, the ordered
characteristic modes ``t**k * exp(lam*t)``, and the Jordan-form data
(J, B, y0) with ``A = B J B^-1`` and ``y0 = B^-1 b``.

A realization carries the tolerances of its analyses and computes each of
these facts once, on first use.  Other tolerances make another realization,
``dataclasses.replace(r, tolerances=...)``, with facts of its own.

Conventions fixed once here:

* eigenvalue clusters are sorted by (real part, imaginary part) ascending;
* within a cluster the modes carry ascending polynomial powers;
* each distinct eigenvalue owns exactly one Jordan block.  Minimal SISO
  realizations have cyclic A, so this is not a restriction, and it keeps the
  module away from general (ill-posed) Jordan-structure detection.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionError, MinimalityError, ToleranceError
from .errors import UnsupportedOrderError


def _state_vector(values, n: int, name: str) -> np.ndarray:
    """``values`` as a new finite real vector of n entries, or DimensionError."""
    v = numerics.as_real(values, lambda: DimensionError(f"{name} must be a real array")).reshape(-1)
    if v.shape[0] != n:
        raise DimensionError(f"{name} has {v.shape[0]} entries, expected {n}")
    if not np.all(np.isfinite(v)):
        raise DimensionError(f"{name} must be finite")
    return v


@dataclass(frozen=True, eq=False)
class Realization:
    """Continuous-time SISO triple (A, b, c) of order n, with the tolerances
    of its analyses.

    A, b and c are read-only float copies (``numerics.as_real``).  The
    eigendecomposition, the minimality report, the mode set and the modal
    decomposition are computed on first use, at most once each, and shared
    by every analysis the realization is passed to; the mode set clusters
    the eigenvalues of ``eigen`` and the basis starts from its eigenvectors.
    Reading ``decomposition`` of a non-minimal realization raises
    MinimalityError naming the failed rank test.  Analyses that need only
    the mode set read ``modes``, which never triggers the decomposition.
    A ``tolerances`` that is not a ``Tolerances`` raises ToleranceError.
    Equality and hashing are by identity, as for any object with a cache.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    tolerances: numerics.Tolerances = numerics.Tolerances()

    def __post_init__(self):
        if not isinstance(self.tolerances, numerics.Tolerances):
            raise ToleranceError(f"tolerances must be a Tolerances, got {self.tolerances!r}")
        A = numerics.as_real(self.A, lambda: DimensionError("A must be a real array"))
        if not np.all(np.isfinite(A)):
            raise DimensionError("A contains non-finite entries")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if not 1 <= n <= numerics.MAX_ORDER:
            raise UnsupportedOrderError(
                f"order {n} outside the supported range 1..{numerics.MAX_ORDER}"
            )
        b = _state_vector(self.b, n, "b")
        c = _state_vector(self.c, n, "c")
        for arr in (A, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def dual(self) -> "Realization":
        """The dual realization (A^T, c^T, b^T), with the same tolerances."""
        return Realization(self.A.T, self.c, self.b, self.tolerances)

    @functools.cached_property
    def eigen(self):
        """(eigenvalues, eigenvectors) of A from one ``np.linalg.eig``."""
        return np.linalg.eig(self.A)

    @functools.cached_property
    def minimality(self) -> MinimalityReport:
        return check_minimal(self)

    @functools.cached_property
    def modes(self) -> ModeSet:
        return ModeSet(tuple(numerics.eig_clustered(self.eigen[0], self.tolerances.cluster)))

    @functools.cached_property
    def decomposition(self) -> ModalDecomposition:
        require_minimal(self)
        return modal_decompose(self)


@dataclass(frozen=True)
class ModeSet:
    """Clustered eigenvalues with multiplicities, in canonical order.

    Mode k (0-based) of the system is ``t**p * exp(lam*t)`` where
    ``(lam, p) = (kernel[0][k], kernel[1][k])``; blocks follow the
    eigenvalue order and powers ascend inside each block.  ``kernel`` holds
    the modes as the arrays every mode-matrix evaluation reads, built once
    per mode set.
    """

    roots: tuple

    @property
    def n(self) -> int:
        return sum(m for _, m in self.roots)

    @property
    def r(self) -> int:
        return len(self.roots)

    @functools.cached_property
    def kernel(self) -> tuple:
        """(eigenvalues, powers, defective) of the n ordered modes: a
        read-only complex array, a read-only float array, and whether any
        power is nonzero (a cluster of multiplicity above one)."""
        lams = np.array([lam for lam, m in self.roots for _ in range(m)], dtype=complex)
        powers = np.array([k for _, m in self.roots for k in range(m)], dtype=float)
        lams.setflags(write=False)
        powers.setflags(write=False)
        return lams, powers, bool(powers.any())

    @functools.cached_property
    def mates(self) -> np.ndarray:
        """Index of each mode's conjugate mate among the n ordered modes, a
        read-only int array: an involution on a mode set of distinct
        clusters, each real mode its own mate and a defective pair matched
        power by power.  A cluster whose exact conjugate, at the same
        multiplicity, is not in the set raises DimensionError."""
        starts = list(itertools.accumulate((m for _, m in self.roots), initial=0))
        mates = []
        for lam, m in self.roots:
            try:
                k = self.roots.index((lam.conjugate(), m))
            except ValueError:
                raise DimensionError(
                    f"mode set is not conjugate-closed: {lam} (multiplicity {m}) has no conjugate"
                ) from None
            mates += range(starts[k], starts[k] + m)
        mates = np.array(mates, dtype=np.intp)
        mates.setflags(write=False)
        return mates

    @functools.cached_property
    def real_form_gather(self) -> tuple:
        """How the real form of a mode matrix reads its columns from those of
        the modes on or above the real axis: their eigenvalues and powers,
        and for each of the n modes an index into the float view of their
        complex columns (2j + 1 is the imaginary part of column j) and a
        factor.  A real mode reads its real part times 1, a mode above the
        axis its real part times sqrt(2), and a mode below it the imaginary
        part of its mate's column times -sqrt(2).  Read-only arrays; a set
        that is not conjugate-closed raises DimensionError (``mates``)."""
        lams, powers, _ = self.kernel
        lower = lams.imag < 0.0
        position = np.cumsum(~lower) - 1  # of each upper mode among them
        columns = 2 * position[np.where(lower, self.mates, np.arange(self.n))] + lower
        factors = np.where(lams.imag == 0.0, 1.0, np.where(lower, -np.sqrt(2.0), np.sqrt(2.0)))
        arrays = lams[~lower], powers[~lower], columns, factors
        for array in arrays:
            array.setflags(write=False)
        return arrays


@dataclass(frozen=True)
class MinimalityReport:
    """Continuous-time Kalman rank tests for a realization."""

    controllable_ct: bool
    observable_ct: bool
    controllability_rank: numerics.RankResult
    observability_rank: numerics.RankResult

    @property
    def minimal(self) -> bool:
        return self.controllable_ct and self.observable_ct


@dataclass(frozen=True, eq=False)
class ModalDecomposition:
    """Jordan-form data of a realization: A = B J B^-1, y0 = B^-1 b.

    J is block diagonal with one Jordan block (unit superdiagonal) per
    distinct eigenvalue; B stacks the eigenvector / generalized-eigenvector
    chains as columns in the same order.  The components of y0 are the mode
    weighting coefficients; they follow the block layout of the mode set.
    """

    modes: ModeSet
    J: np.ndarray
    B: np.ndarray
    y0: np.ndarray


def check_minimal(realization: Realization) -> MinimalityReport:
    """Rank-test both Kalman matrices, [b, Ab, ..., A^(n-1) b] and
    [c; cA; ...; cA^(n-1)], at the bundle's ``rank`` tolerance.

    Column k of [b, Ab, ...] scales like s**k under A -> sA, a change of
    time unit, so each Kalman matrix is judged with its columns (rows) at
    unit norm: the report of (sA, b, c) is that of (A, b, c) up to
    rounding, and bit for bit when s is a power of two.  A, b and c are
    first scaled to a peak in [0.5, 1), so the products cannot overflow.
    """
    n, rank_tol = realization.n, realization.tolerances.rank
    A, b, c = (numerics._unit_peak(m)[0] for m in (realization.A, realization.b, realization.c))
    cols, rows = [b], [c]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
        rows.append(rows[-1] @ A)
    # Columns 0..n-1 are the controllability matrix, n..2n-1 the transposed
    # observability matrix, which has the same singular values.
    unit = numerics._unit_columns(np.array(cols + rows).T)
    ctrb, obsv = numerics.numeric_ranks((unit[:, :n], unit[:, n:]), rank_tol)
    return MinimalityReport(ctrb.rank == n, obsv.rank == n, ctrb, obsv)


def require_minimal(realization: Realization) -> ModeSet:
    """The mode set of a minimal realization, else MinimalityError naming each failed rank test."""
    report, n = realization.minimality, realization.n
    if not report.minimal:
        failed = []
        if not report.controllable_ct:
            failed.append(f"controllability rank {report.controllability_rank.rank} < {n}")
        if not report.observable_ct:
            failed.append(f"observability rank {report.observability_rank.rank} < {n}")
        raise MinimalityError("realization is not minimal: " + "; ".join(failed))
    return realization.modes


def _canonical_phase(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize each column and rotate it so its largest component is
    real positive."""
    magnitude = np.abs(vectors)
    pivot = vectors[magnitude.argmax(axis=0), np.arange(vectors.shape[1])]
    norm = np.sqrt(np.square(magnitude).sum(axis=0))
    return vectors * (np.conj(pivot) / (np.abs(pivot) * norm))


def _jordan_chain(A: np.ndarray, lam: complex, size: int, rcond: float):
    """Eigenvector chain for a defective cluster: (A - lam I) v_{k+1} = v_k.

    Only clusters of multiplicity above one come here; a simple cluster
    takes its eigenvector from the eigendecomposition of
    ``modal_decompose``.  The eigenvector comes from the smallest singular
    direction of ``A - lam I``; the generalized vectors are minimum-norm
    least-squares solutions with small singular values cut at ``rcond``
    (pseudo-inverse fallback for the nearly singular chain equations).  The
    whole chain is scaled together, so the unit-superdiagonal block
    structure survives.  One SVD serves both the eigenvector and the
    pseudo-inverse.
    """
    shifted = A - lam * np.eye(A.shape[0])
    u, sigma, vh = np.linalg.svd(shifted)
    chain = [_canonical_phase(vh[-1:].conj().T)[:, 0]]
    # The pseudo-inverse from the same SVD, cut at rcond as numpy cuts it.
    kept = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > rcond * sigma[0])
    pseudo_inverse = (vh.conj().T * kept) @ u.conj().T
    for _ in range(size - 1):
        chain.append(pseudo_inverse @ chain[-1])
    return chain


def modal_decompose(realization: Realization) -> ModalDecomposition:
    """Compute J, B and y0 = B^-1 b for a minimal realization.

    The mode set and the basis read the realization's one ``eigen``: a
    simple cluster holds its eigenvalue exactly as returned, so it takes
    that eigenvalue's eigenvector, in canonical phase.  Only a defective
    cluster runs ``_jordan_chain``.  The cluster list is exactly
    conjugate-closed (see ``numerics.eig_clustered``), so a mode below the
    real axis takes the conjugate of its mate's column (``ModeSet.mates``).
    One solve with B gives y0, which is then made exactly real on real modes
    and conjugate between mates, the symmetry it has in exact arithmetic.

    Minimality is not checked here: ``Realization.decomposition`` checks
    it first, and on a non-minimal realization the decomposition is only
    well defined when the eigenvalues are distinct.  The bundle's
    ``cluster`` tolerance also cuts the Jordan chains' pseudo-inverse; one
    wide enough to merge distinct eigenvalues can cut every direction, and
    the singular basis raises LinAlgError naming that tolerance.
    """
    modes = realization.modes
    values, vectors = realization.eigen
    vectors = _canonical_phase(vectors.astype(complex, copy=False))
    points = values.tolist()

    columns = []
    for lam, m in modes.roots:
        if lam.imag < 0.0:
            columns += [None] * m  # the conjugates of the mates' columns, below
        elif m > 1:
            columns += _jordan_chain(
                realization.A.astype(complex), lam, m, realization.tolerances.cluster
            )
        else:
            columns.append(vectors[:, points.index(lam)])
    mates = modes.mates
    basis = np.column_stack([
        columns[k].conj() if v is None else v for v, k in zip(columns, mates.tolist())
    ])
    # One Jordan block per cluster: the eigenvalue on the diagonal, a unit
    # superdiagonal inside each block and zero between blocks.
    lams, powers, _ = modes.kernel
    J = np.diag(lams)
    J += np.diag((powers[1:] > 0).astype(float), 1)

    try:
        y0 = np.linalg.solve(basis, realization.b.astype(complex))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"modal basis is singular at cluster tolerance {realization.tolerances.cluster:g};"
            " lower the cluster tolerance"
        ) from None
    # conj(B) is B with each column moved to its mate's place (up to
    # rounding), so the y0 of a real b has the same symmetry; impose it
    # exactly, which leaves N2 real up to the rounding of its own product.
    y0 = (y0 + y0[mates].conj()) / 2
    return ModalDecomposition(modes, J, basis, y0)
