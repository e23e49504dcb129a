"""Seeded inputs for the benchmark: realizations and sampling schedules.

Every draw comes from ``rng_for(seed, stream, index)``, so item ``index`` of a
stream is the same whatever else the run did before it.  Systems are built in
real modal form from an explicit eigenvalue structure and, unless a defective
block of size 3 or more is present, rotated by a random orthogonal basis.  A
draw is accepted as soon as ``check_minimal`` calls it minimal; there is no
extra conditioning filter, so systems up to order 12 come out and near-degenerate
ones stay in the sample.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from nusamp import Realization, SamplingSchedule, check_minimal

STRUCTURE_DRAWS = 50
VECTOR_DRAWS = 20
# Smallest distance between two eigenvalues of a drawn spectrum.
MIN_EIGEN_GAP = 0.15
# Smallest distance between two drawn sampling instants.
MIN_SPACING = 0.1


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent generator for item ``index`` of ``stream`` under ``seed``."""
    return np.random.default_rng([seed, stream, index])


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _modal_block(re: float, im: float, mult: int) -> np.ndarray:
    """Jordan block of a real eigenvalue, or block Jordan form of a pair."""
    if im == 0.0:
        return re * np.eye(mult) + np.diag(np.ones(mult - 1), 1)
    cell = np.array([[re, -im], [im, re]])
    block = np.kron(np.eye(mult), cell)
    block[:-2, 2:] += np.eye(2 * mult - 2)
    return block


def modal_matrix(structure) -> np.ndarray:
    """Block-diagonal real modal form of a list of (re, im, mult)."""
    return scipy.linalg.block_diag(*(_modal_block(re, im, m) for re, im, m in structure))


def eigen_structure(rng: np.random.Generator, n: int, *, defective: bool):
    """List of (re, im, mult); im > 0 marks a conjugate pair of 2*mult states."""
    while True:
        structure = []
        remaining = n
        while remaining > 0:
            choices = [("real", 1)]
            if remaining >= 2:
                choices.append(("pair", 2))
                if defective:
                    choices.append(("real", 2))
            if remaining >= 3 and defective:
                choices.append(("real", 3))
            if remaining >= 4 and defective:
                choices.extend([("real", 4), ("pair", 4)])
            kind, size = choices[rng.integers(len(choices))]
            re = float(rng.uniform(-2.0, 2.0))
            if kind == "real":
                structure.append((re, 0.0, size))
            else:
                structure.append((re, float(rng.uniform(0.3, 2.0)), size // 2))
            remaining -= size
        values = [complex(re, s * im) for re, im, _ in structure for s in ((1, -1) if im else (1,))]
        gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]]
        if not gaps or min(gaps) >= MIN_EIGEN_GAP:
            return structure


def random_system(rng: np.random.Generator, n: int) -> Realization:
    """Minimal realization of order n; defective blocks only up to order 4.

    A spectrum crowded into a small region can leave the Kalman matrices
    numerically rank deficient for every b, c; such a structure is redrawn.
    """
    for _ in range(STRUCTURE_DRAWS):
        structure = eigen_structure(rng, n, defective=n <= 4)
        a0 = modal_matrix(structure)
        # A dense similarity smears a defective block of size >= 3 beyond the
        # clustering tolerance, so those systems stay in modal form.
        rotate = not any((m >= 3 if im == 0.0 else m >= 2) for _, im, m in structure)
        for _ in range(VECTOR_DRAWS):
            b = rng.uniform(0.3, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            c = rng.uniform(0.3, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            if rotate:
                q = _orthogonal(rng, n)
                system = Realization(q @ a0 @ q.T, q @ b, c @ q.T)
            else:
                system = Realization(a0, b, c)
            if check_minimal(system).minimal:
                return system
    raise RuntimeError(f"no minimal order-{n} draw in {STRUCTURE_DRAWS} structures")


def random_schedule(rng: np.random.Generator, count: int) -> SamplingSchedule:
    """Strictly increasing instants at least ``MIN_SPACING`` apart.

    The window is (0, 3), as in the acceptance sweeps, widened for long
    schedules so that they still leave room to draw from.
    """
    window_end = max(3.0, 0.4 * count)
    cuts = np.sort(rng.uniform(0.0, window_end - (count - 1) * MIN_SPACING, size=count))
    return SamplingSchedule(tuple(float(t) for t in cuts + MIN_SPACING * np.arange(count)))
