"""Continuous-time SISO realizations and their modal structure.

A realization is the triple (A, b, c) of a linear time-invariant system

    x'(t) = A x(t) + b u(t),        y(t) = c x(t),

with A real n-by-n and b, c real n-vectors.  Everything downstream consumes
the modal picture extracted here: the clustered eigenvalues, the ordered
characteristic modes ``t**k * exp(lam*t)``, and the Jordan-form data
(J, B, y0) with ``A = B J B^-1`` and ``y0 = B^-1 b``.

An analysis receives the realization as a ``PreparedSystem``: the
realization with the tolerances of the analysis, which computes the
minimality report and the modal decomposition once and shares them with
every analysis it is passed to.

Conventions fixed once here:

* eigenvalue clusters are sorted by (real part, imaginary part) ascending;
* within a cluster the modes carry ascending polynomial powers;
* each distinct eigenvalue owns exactly one Jordan block.  Minimal SISO
  realizations have cyclic A, so this is not a restriction, and it keeps the
  module away from general (ill-posed) Jordan-structure detection.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionError, MinimalityError, UnsupportedOrderError

# Basis matrices with sigma ratios below this get a conditioning warning.
ILL_CONDITIONED_BASIS = 1e-10


def _as_real_array(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name} must be a real array: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Realization:
    """Continuous-time SISO triple (A, b, c) of order n."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = _as_real_array(self.A, "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if not 1 <= n <= numerics.MAX_ORDER:
            raise UnsupportedOrderError(
                f"order {n} outside the supported range 1..{numerics.MAX_ORDER}"
            )
        b = _as_real_array(self.b, "b").reshape(-1)
        c = _as_real_array(self.c, "c").reshape(-1)
        if b.shape[0] != n:
            raise DimensionError(f"b has {b.shape[0]} entries, expected {n}")
        if c.shape[0] != n:
            raise DimensionError(f"c has {c.shape[0]} entries, expected {n}")
        for arr in (A, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def dual(self) -> "Realization":
        """The dual realization (A^T, c^T, b^T)."""
        return Realization(self.A.T.copy(), self.c.copy(), self.b.copy())


@dataclass(frozen=True)
class ModeSet:
    """Clustered eigenvalues with multiplicities, in canonical order.

    Mode k (0-based) of the system is ``t**p * exp(lam*t)`` where
    ``(lam, p) = mode_params()[k]``; blocks follow the eigenvalue order and
    powers ascend inside each block.
    """

    roots: tuple

    @property
    def n(self) -> int:
        return sum(m for _, m in self.roots)

    @property
    def r(self) -> int:
        return len(self.roots)

    def mode_params(self):
        """(eigenvalue, power) pairs for the n ordered modes."""
        return tuple((lam, k) for lam, m in self.roots for k in range(m))


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


@dataclass(frozen=True)
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
    basis_sigma_ratio: float
    reconstruction_residual: float
    conditioning_warning: str | None = None


def controllability_matrix(realization: Realization) -> np.ndarray:
    """Kalman controllability matrix [b, Ab, ..., A^(n-1) b]."""
    cols = [realization.b]
    for _ in range(realization.n - 1):
        cols.append(realization.A @ cols[-1])
    return np.column_stack(cols)


def observability_matrix(realization: Realization) -> np.ndarray:
    """Kalman observability matrix [c; cA; ...; cA^(n-1)]."""
    rows = [realization.c]
    for _ in range(realization.n - 1):
        rows.append(rows[-1] @ realization.A)
    return np.vstack(rows)


def check_minimal(
    realization: Realization, rank_tol: float = numerics.DEFAULT_RANK_TOL
) -> MinimalityReport:
    """Rank-test both Kalman matrices of the continuous-time realization."""
    ctrb = numerics.numeric_rank(controllability_matrix(realization), rank_tol)
    obsv = numerics.numeric_rank(observability_matrix(realization), rank_tol)
    n = realization.n
    return MinimalityReport(ctrb.rank == n, obsv.rank == n, ctrb, obsv)


def require_minimal(report: MinimalityReport, n: int) -> None:
    """Raise MinimalityError naming each failed rank test of an order-n report."""
    if not report.minimal:
        failed = []
        if not report.controllable_ct:
            failed.append(f"controllability rank {report.controllability_rank.rank} < {n}")
        if not report.observable_ct:
            failed.append(f"observability rank {report.observability_rank.rank} < {n}")
        raise MinimalityError("realization is not minimal: " + "; ".join(failed))


def mode_set(
    realization: Realization, cluster_tol: float = numerics.DEFAULT_CLUSTER_TOL
) -> ModeSet:
    """Clustered eigenvalues of A, defining the ordered mode basis."""
    return ModeSet(tuple(numerics.eig_clustered(realization.A, cluster_tol)))


def eval_mode(modes: ModeSet, index: int, t: float) -> complex:
    """Evaluate mode ``index`` (0-based) at time t.

    Mode (lam, p) evaluates to ``t**p * exp(lam*t)``; at t = 0 that is 1 for
    p = 0 and 0 otherwise.
    """
    params = modes.mode_params()
    if not 0 <= index < len(params):
        raise IndexError(f"mode index {index} outside 0..{len(params) - 1}")
    lam, power = params[index]
    return (t**power) * cmath.exp(lam * t)


def _canonical_phase(vector: np.ndarray) -> np.ndarray:
    """Unit-normalize and rotate so the largest component is real positive."""
    norm = np.linalg.norm(vector)
    if norm == 0.0:
        return vector
    v = vector / norm
    pivot = int(np.argmax(np.abs(v)))
    phase = v[pivot] / abs(v[pivot])
    return v * np.conj(phase)


def _jordan_chain(A: np.ndarray, lam: complex, size: int, rcond: float):
    """Eigenvector chain for one Jordan block: (A - lam I) v_{k+1} = v_k.

    The eigenvector comes from the smallest singular direction of
    ``A - lam I``; the generalized vectors are minimum-norm least-squares
    solutions with small singular values cut at ``rcond`` (pseudo-inverse
    fallback for the nearly singular chain equations).  The whole chain is
    scaled together, so the unit-superdiagonal block structure survives.
    """
    shifted = A - lam * np.eye(A.shape[0])
    _, _, vh = np.linalg.svd(shifted)
    chain = [_canonical_phase(vh[-1].conj())]
    if size > 1:
        pinv = np.linalg.pinv(shifted, rcond=rcond)
        for _ in range(size - 1):
            chain.append(pinv @ chain[-1])
    return chain


def modal_decompose(
    realization: Realization,
    cluster_tol: float = numerics.DEFAULT_CLUSTER_TOL,
    rank_tol: float = numerics.DEFAULT_RANK_TOL,
    require_minimality: bool = True,
    modes: ModeSet | None = None,
) -> ModalDecomposition:
    """Compute J, B and y0 = B^-1 b for a (normally minimal) realization.

    Non-minimal input raises MinimalityError unless ``require_minimality`` is
    switched off for diagnostic use; in that case the decomposition is only
    well defined when the eigenvalues are distinct.  An ill-conditioned basis
    attaches a warning to the result instead of failing.  ``modes``, when
    given, is the realization's mode set at ``cluster_tol``, already
    clustered; otherwise it is computed here.
    """
    if require_minimality:
        require_minimal(check_minimal(realization, rank_tol), realization.n)
    if modes is None:
        modes = mode_set(realization, cluster_tol)
    A = realization.A.astype(complex)
    roots = modes.roots

    chains: dict[int, list[np.ndarray]] = {}
    for j, (lam, m) in enumerate(roots):
        if lam.imag < 0.0:
            continue
        chains[j] = _jordan_chain(A, lam, m, cluster_tol)
    for j, (lam, m) in enumerate(roots):
        if j in chains:
            continue
        partner = None
        for k, (other, mk) in enumerate(roots):
            if mk == m and abs(np.conj(other) - lam) <= cluster_tol * max(1.0, abs(lam)):
                partner = k
                break
        if partner is not None and partner in chains:
            chains[j] = [np.conj(v) for v in chains[partner]]
        else:
            chains[j] = _jordan_chain(A, lam, m, cluster_tol)

    basis = np.column_stack([v for j in range(len(roots)) for v in chains[j]])
    # One Jordan block per cluster: the eigenvalue on the diagonal, a unit
    # superdiagonal inside each block and zero between blocks.
    params = modes.mode_params()
    J = np.diag(np.array([lam for lam, _ in params], dtype=complex))
    J += np.diag([float(power > 0) for _, power in params[1:]], 1)

    sigma = np.linalg.svd(basis, compute_uv=False)
    sigma_ratio = float(sigma[-1] / sigma[0]) if sigma[0] > 0.0 else 0.0
    warning = None
    if sigma_ratio < ILL_CONDITIONED_BASIS:
        warning = (
            f"modal basis is ill conditioned (sigma ratio {sigma_ratio:.3e}); "
            "y0 computed by least squares"
        )
        y0, *_ = np.linalg.lstsq(basis, realization.b.astype(complex), rcond=None)
    else:
        y0 = np.linalg.solve(basis, realization.b.astype(complex))

    reconstructed = basis @ J @ np.linalg.pinv(basis)
    residual = float(
        np.linalg.norm(realization.A - reconstructed)
        / max(1.0, float(np.linalg.norm(realization.A)))
    )
    return ModalDecomposition(modes, J, basis, y0, sigma_ratio, residual, warning)


def check_y0_components(
    decomposition: ModalDecomposition, tol: float = numerics.DEFAULT_RANK_TOL
) -> bool:
    """True when the last y0 component of every Jordan block is nonzero.

    This is the modal restatement of the controllability half of minimality:
    the joint-criterion factor built from y0 is nonzero exactly when this
    check passes.
    """
    y0 = decomposition.y0
    scale = float(np.linalg.norm(y0))
    offset = 0
    for _, m in decomposition.modes.roots:
        if abs(y0[offset + m - 1]) <= tol * scale:
            return False
        offset += m
    return True


@dataclass(frozen=True)
class PreparedSystem:
    """A realization, the tolerances of its analysis, and the facts it needs.

    The minimality report, the mode set and the modal decomposition are
    computed on first use, at most once each, and shared by every analysis
    the prepared system is passed to; the decomposition is built on the mode
    set.  Reading ``decomposition`` of a non-minimal realization raises
    MinimalityError naming the failed rank test.  Analyses that need only the
    mode set read ``modes``, which checks no minimality and never triggers
    the decomposition.
    """

    realization: Realization
    tolerances: numerics.Tolerances = numerics.Tolerances()

    @functools.cached_property
    def minimality(self) -> MinimalityReport:
        return check_minimal(self.realization, self.tolerances.rank)

    @functools.cached_property
    def modes(self) -> ModeSet:
        return mode_set(self.realization, self.tolerances.cluster)

    @functools.cached_property
    def decomposition(self) -> ModalDecomposition:
        require_minimal(self.minimality, self.realization.n)
        return modal_decompose(
            self.realization,
            self.tolerances.cluster,
            require_minimality=False,
            modes=self.modes,
        )


def prepare(system: Realization | PreparedSystem) -> PreparedSystem:
    """The prepared form of an analysis argument; a plain realization gets
    the default tolerances."""
    return system if isinstance(system, PreparedSystem) else PreparedSystem(system)


def impulse_response(realization: Realization, t: float) -> float:
    """h(t) = c exp(A t) b, the sampled impulse response."""
    value = realization.c @ numerics.expm(realization.A, t) @ realization.b
    return float(value)
