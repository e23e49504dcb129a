"""Continuous-time SISO realizations and their modal structure.

A realization is the triple (A, b, c) of a linear time-invariant system

    x'(t) = A x(t) + b u(t),        y(t) = c x(t),

with A real n-by-n and b, c real n-vectors.  Everything downstream consumes
the modal picture extracted here: the clustered eigenvalues, the ordered
characteristic modes ``t**k * exp(lam*t)``, and the Jordan-form data
(J, B, y0) with ``A = B J B^-1`` and ``y0 = B^-1 b``.

An analysis receives the realization as a ``PreparedSystem``: the
realization with the tolerances of the analysis, which computes the one
eigendecomposition of A, the minimality report and the modal decomposition
once each and shares them with every analysis it is passed to.

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
import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConvergenceError, DimensionError, MinimalityError, UnsupportedOrderError

# Basis matrices with sigma ratios below this get a conditioning warning.
ILL_CONDITIONED_BASIS = 1e-10


def _as_real_array(values, name: str) -> np.ndarray:
    try:
        if np.iscomplexobj(values):  # a cast would drop the imaginary part
            raise DimensionError(f"{name} must be a real array")
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name} must be a real array: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite entries")
    return arr


def _state_vector(values, n: int, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.shape[0] != n:
        raise DimensionError(f"{name} has {v.shape[0]} entries, expected {n}")
    if not np.all(np.isfinite(v)):
        raise DimensionError(f"{name} must be finite")
    return v


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


def check_minimal(system: Realization | PreparedSystem) -> MinimalityReport:
    """Rank-test both Kalman matrices at the bundle's ``rank`` tolerance."""
    prepared = prepare(system)
    realization, rank_tol = prepared.realization, prepared.tolerances.rank
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


def mode_set(system: Realization | PreparedSystem) -> ModeSet:
    """Clustered eigenvalues of A, defining the ordered mode basis."""
    return prepare(system).modes


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
    # The pseudo-inverse from the same SVD, as np.linalg.pinv cuts it.
    kept = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > rcond * sigma[0])
    pinv = (vh.conj().T * kept) @ u.conj().T
    for _ in range(size - 1):
        chain.append(pinv @ chain[-1])
    return chain


def modal_decompose(system: Realization | PreparedSystem) -> ModalDecomposition:
    """Compute J, B and y0 = B^-1 b for a minimal realization.

    The mode set and the basis read the prepared system's one ``eigen``: a
    simple cluster holds its eigenvalue exactly as returned, so it takes
    that eigenvalue's eigenvector, in canonical phase.  Only a defective
    cluster runs ``_jordan_chain``.  A cluster whose conjugate partner
    already has its chain takes the conjugate chain.  One solve with B
    gives y0 and the B^-1 of the reconstruction residual
    ``||A - B J B^-1|| / max(1, ||A||)``; y0 is then made exactly real on
    real clusters and conjugate on conjugate ones, the symmetry it has in
    exact arithmetic.  An
    ill-conditioned basis (sigma ratio below ``ILL_CONDITIONED_BASIS``)
    falls back to least squares for y0 and the pseudo-inverse for the
    residual, and attaches a warning to the result instead of failing.

    Minimality is not checked here: ``PreparedSystem.decomposition`` checks
    it first, and on a non-minimal realization the decomposition is only
    well defined when the eigenvalues are distinct.  The bundle's
    ``cluster`` tolerance also pairs conjugate clusters and cuts the Jordan
    chains' pseudo-inverse.
    """
    prepared = prepare(system)
    realization = prepared.realization
    cluster_tol = prepared.tolerances.cluster
    modes = prepared.modes
    roots = modes.roots
    values, vectors = prepared.eigen
    vectors = _canonical_phase(vectors.astype(complex, copy=False))
    points = values.tolist()

    def chain(lam: complex, m: int) -> list:
        if m > 1:
            return _jordan_chain(realization.A.astype(complex), lam, m, cluster_tol)
        return [vectors[:, points.index(lam)]]

    chains: dict[int, list[np.ndarray]] = {}
    # mirror[j]: the cluster whose chain is the conjugate of cluster j's
    # (j itself when real, None while unknown).
    mirror = [j if lam.imag == 0.0 else None for j, (lam, _) in enumerate(roots)]
    for j, (lam, m) in enumerate(roots):
        if lam.imag < 0.0:
            continue
        chains[j] = chain(lam, m)
    for j, (lam, m) in enumerate(roots):
        if j in chains:
            continue
        partner = None
        for k, (other, mk) in enumerate(roots):
            if mk == m and abs(other.conjugate() - lam) <= cluster_tol * max(1.0, abs(lam)):
                partner = k
                break
        if partner is not None and partner in chains:
            chains[j] = [np.conj(v) for v in chains[partner]]
            mirror[j], mirror[partner] = partner, j
        else:
            chains[j] = chain(lam, m)

    basis = np.column_stack([v for j in range(len(roots)) for v in chains[j]])
    # One Jordan block per cluster: the eigenvalue on the diagonal, a unit
    # superdiagonal inside each block and zero between blocks.
    params = modes.mode_params()
    J = np.diag(np.array([lam for lam, _ in params], dtype=complex))
    J += np.diag([float(power > 0) for _, power in params[1:]], 1)

    sigma_ratio = numerics.numeric_rank(basis).sigma_ratio
    warning = None
    if sigma_ratio < ILL_CONDITIONED_BASIS:
        warning = (
            f"modal basis is ill conditioned (sigma ratio {sigma_ratio:.3e}); "
            "y0 computed by least squares"
        )
        y0, *_ = np.linalg.lstsq(basis, realization.b.astype(complex), rcond=None)
        inverse = np.linalg.pinv(basis)
    else:
        # One solve with the right-hand sides [b, I] gives y0 and B^-1.
        rhs = np.eye(len(basis), len(basis) + 1, 1, dtype=complex)
        rhs[:, 0] = realization.b
        solved = np.linalg.solve(basis, rhs)
        y0, inverse = solved[:, 0], solved[:, 1:]
    if all(k is not None and mirror[k] == j for j, k in enumerate(mirror)):
        # conj(B) is B with the conjugate blocks swapped (up to rounding), so
        # the y0 of a real b has the same symmetry; impose it exactly, which
        # leaves N2 real up to the rounding of its own product.
        starts = list(itertools.accumulate((m for _, m in roots), initial=0))
        swap = [starts[k] + p for k in mirror for p in range(roots[k][1])]
        y0 = (y0 + y0[swap].conj()) / 2
    residual = float(
        np.linalg.norm(realization.A - basis @ J @ inverse)
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

    The eigendecomposition, the minimality report, the mode set and the
    modal decomposition are computed on first use, at most once each, and
    shared by every analysis the prepared system is passed to; the mode set
    clusters the eigenvalues of ``eigen`` and the basis starts from its
    eigenvectors.  Reading ``decomposition`` of a non-minimal realization
    raises MinimalityError naming the failed rank test.  Analyses that need
    only the mode set read ``modes``, which never triggers the decomposition.
    """

    realization: Realization
    tolerances: numerics.Tolerances = numerics.Tolerances()

    @functools.cached_property
    def eigen(self):
        """(eigenvalues, eigenvectors) of A from one ``np.linalg.eig``."""
        try:
            return np.linalg.eig(self.realization.A)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc

    @functools.cached_property
    def minimality(self) -> MinimalityReport:
        return check_minimal(self)

    @functools.cached_property
    def modes(self) -> ModeSet:
        return ModeSet(tuple(numerics.eig_clustered(self.eigen[0], self.tolerances.cluster)))

    @functools.cached_property
    def decomposition(self) -> ModalDecomposition:
        require_minimal(self.minimality, self.realization.n)
        return modal_decompose(self)


def prepare(system: Realization | PreparedSystem) -> PreparedSystem:
    """The prepared form of an analysis argument; a plain realization gets
    the default tolerances."""
    return system if isinstance(system, PreparedSystem) else PreparedSystem(system)


def impulse_response(realization: Realization, t: float) -> float:
    """h(t) = c exp(A t) b, the sampled impulse response."""
    value = realization.c @ numerics.expm(realization.A, t) @ realization.b
    return float(value)
