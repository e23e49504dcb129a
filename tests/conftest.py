"""Shared fixtures and random-system generators for the test suite.

Systems are built in real modal form from an explicit eigenvalue structure,
then optionally rotated by a random orthogonal basis.  Defective blocks of
size 3 or more stay in exact modal form: a dense similarity perturbs their
eigenvalues by roughly eps**(1/m), which the default clustering tolerance
cannot absorb, and that ill-posedness is intrinsic, not an artifact of this
package.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter

import numpy as np
import pytest

from nusamp import Realization, SamplingSchedule, check_minimal, cli

# Sigma ratios in this band sit close enough to the singularity tolerance that
# the verdict can flip on rounding (a BLAS that rounds differently, or the
# oracle's raw route against the criterion's); checks of a verdict skip them.
AMBIGUITY_BAND = (1e-11, 1e-7)

# Values no real input accepts: refused by the one rule for real numbers
# (numerics.as_float), or made a non-finite float the caller then refuses.
BAD_REALS = [
    pytest.param(True, id="bool"),
    pytest.param("1", id="string"),
    pytest.param(1 + 1j, id="complex"),
    pytest.param(None, id="none"),
    pytest.param(10**400, id="beyond-float-range"),
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
]
# Numbers every real input accepts and stores as a float.
GOOD_REALS = [
    pytest.param(np.int64(3), id="numpy-int"),
    pytest.param(np.float32(0.5), id="numpy-float32"),
    pytest.param(3, id="int"),
    pytest.param(np.array(3.0), id="0-d-array"),
]


@pytest.fixture(autouse=True)
def _empty_analysis_memo():
    """Every test starts with ``cli.build_analysis`` holding no earlier system."""
    cli._memo.clear()


@pytest.fixture
def rotation_system():
    """Pure rotation: eigenvalues +-j, forbidden separations at multiples of pi."""
    return Realization([[0.0, -1.0], [1.0, 0.0]], [1.0, 0.0], [1.0, 0.0])


@pytest.fixture
def damped_rotation_system():
    """Eigenvalues -0.3 +- j: same rotation rate, shrinking amplitude."""
    return Realization([[-0.3, -1.0], [1.0, -0.3]], [1.0, 0.0], [1.0, 0.0])


@pytest.fixture
def diag_system():
    """Distinct real eigenvalues 0 and -1, both modes excited and observed."""
    return Realization([[0.0, 0.0], [0.0, -1.0]], [1.0, 1.0], [1.0, 1.0])


@pytest.fixture
def scalar_system():
    return Realization([[-1.0]], [1.0], [1.0])


def count_calls(monkeypatch, targets) -> Counter:
    """Count calls of each ``(module, name)`` function, by name, for one test."""
    calls = Counter()
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """Invertible transform with singular values in [0.5, 2]."""
    left = random_orthogonal(rng, n)
    right = random_orthogonal(rng, n)
    return left @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ right


def _real_modal_block(re: float, im: float, mult: int) -> np.ndarray:
    """Real modal-form block: Jordan block, or block Jordan for a pair."""
    if im == 0.0:
        block = re * np.eye(mult)
        if mult > 1:
            block += np.diag(np.ones(mult - 1), 1)
        return block
    cell = np.array([[re, -im], [im, re]])
    size = 2 * mult
    block = np.zeros((size, size))
    for k in range(mult):
        block[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = cell
        if k + 1 < mult:
            block[2 * k : 2 * k + 2, 2 * k + 2 : 2 * k + 4] = np.eye(2)
    return block


def _nonzero_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.3, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)


def random_eigen_structure(rng: np.random.Generator, n: int, *, allow_defective: bool, min_gap: float = 0.15):
    """List of (re, im, mult); im > 0 marks a conjugate pair (2*mult states)."""
    while True:
        structure = []
        remaining = n
        while remaining > 0:
            choices = [("real", 1)]
            if remaining >= 2:
                choices.append(("pair", 2))
                if allow_defective:
                    choices.append(("real", 2))
            if remaining >= 3 and allow_defective:
                choices.append(("real", 3))
            if remaining >= 4 and allow_defective:
                choices.extend([("real", 4), ("pair", 4)])
            kind, size = choices[rng.integers(len(choices))]
            re = float(rng.uniform(-2.0, 2.0))
            if kind == "real":
                structure.append((re, 0.0, size))
            else:
                structure.append((re, float(rng.uniform(0.3, 2.0)), size // 2))
            remaining -= size
        values = []
        for re, im, _ in structure:
            values.append(complex(re, im))
            if im > 0.0:
                values.append(complex(re, -im))
        gaps = [
            abs(values[i] - values[j])
            for i in range(len(values))
            for j in range(i + 1, len(values))
        ]
        if not gaps or min(gaps) >= min_gap:
            return structure


def build_system(rng: np.random.Generator, structure, *, transform: bool = True) -> Realization:
    """Real realization with the given eigenvalue structure, minimal by retry."""
    blocks = [_real_modal_block(re, im, m) for re, im, m in structure]
    n = sum(b.shape[0] for b in blocks)
    a0 = np.zeros((n, n))
    offset = 0
    for block in blocks:
        size = block.shape[0]
        a0[offset : offset + size, offset : offset + size] = block
        offset += size
    # Similarity transforms of defective blocks of size >= 3 smear the
    # spectrum beyond the clustering tolerance; keep those in modal form.
    use_transform = transform and not any(
        (m >= 3 if im == 0.0 else m >= 2) for _, im, m in structure
    )
    for _ in range(200):
        b0 = _nonzero_entries(rng, n)
        c0 = _nonzero_entries(rng, n)
        if use_transform:
            q = random_orthogonal(rng, n)
            system = Realization(q @ a0 @ q.T, q @ b0, c0 @ q.T)
        else:
            system = Realization(a0, b0, c0)
        report = check_minimal(system)
        if (
            report.minimal
            and report.controllability_rank.sigma_ratio > 1e-6
            and report.observability_rank.sigma_ratio > 1e-6
        ):
            return system
    raise AssertionError(f"could not draw a minimal system for {structure!r}")


def random_minimal_system(
    rng: np.random.Generator, n: int, *, allow_defective: bool = False, transform: bool = True
) -> Realization:
    """Minimal order-n realization; a structure on which ``build_system``
    gives up (a crowded defective spectrum) is replaced by a new draw."""
    for _ in range(50):
        structure = random_eigen_structure(rng, n, allow_defective=allow_defective)
        with contextlib.suppress(AssertionError):
            return build_system(rng, structure, transform=transform)
    raise AssertionError(f"could not draw a minimal order-{n} system")


def random_schedule(
    rng: np.random.Generator,
    count: int,
    *,
    window: tuple = (0.0, 3.0),
    min_spacing: float = 0.1,
) -> SamplingSchedule:
    """Strictly increasing instants inside the window with a spacing floor."""
    lo, hi = window
    slack = (hi - lo) - (count - 1) * min_spacing
    assert slack >= 0.0
    cuts = np.sort(rng.uniform(0.0, slack, size=count))
    instants = lo + cuts + min_spacing * np.arange(count)
    return SamplingSchedule(tuple(float(t) for t in instants))
