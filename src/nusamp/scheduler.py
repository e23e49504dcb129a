"""Sampling-schedule analysis and selection.

For second-order oscillatory systems the singular separations are isolated
points (integer multiples of pi over the eigenfrequency), so schedules can
be chosen almost freely; this module enumerates those points, specializes
the criterion to uniform sampling, and searches windows for schedules with
the best-conditioned mode matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import numerics
from .criterion import (
    CriterionReport,
    SamplingSchedule,
    joint_verdict,
    mode_matrix,
    schedule_conditioning,
)
from .errors import InfeasibleError, NotApplicableError, UnsupportedOrderError
from .system_model import ModeSet, PreparedSystem, Realization, prepare, require_minimal

# Guard so a careless search spec cannot ask for an astronomically large grid.
MAX_GRID_CANDIDATES = 2_000_000
MAX_FORBIDDEN_INSTANTS = 100_000  # the same guard for one forbidden-instant window

# Grid schedules evaluated per batched mode-matrix call.  Large enough that
# Python overhead per candidate is small, small enough that the stacked
# complex mode matrices stay a few hundred kilobytes even at order 12.
SEARCH_CHUNK = 256


@dataclass(frozen=True)
class ForbiddenSet:
    """Singular sampling instants t0 + k*pi/b of an oscillatory order-2 system.

    ``forbidden`` lists the members inside the queried window (including the
    degenerate k = 0 point t0 itself when covered).  ``guard_band`` is the
    empirically bisected half-width around a forbidden instant within which
    the joint verdict still fails at the given tolerance.
    """

    base_instant: float
    period: float
    forbidden: tuple
    guard_band: float


@dataclass(frozen=True)
class ScheduleSearchSpec:
    """Constraints for the schedule search.

    The objective is fixed: the sigma ratio of the column-normalized mode
    matrix, i.e. robust nonsingularity rather than bare nonsingularity.
    """

    window: tuple
    count: int
    min_spacing: float

    def __post_init__(self):
        lo, hi = (float(self.window[0]), float(self.window[1]))
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise InfeasibleError(f"window {self.window!r} is not a proper interval")
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise InfeasibleError(f"count must be an integer, got {self.count!r}")
        if self.count < 1:
            raise InfeasibleError("count must be at least 1")
        if not np.isfinite(self.min_spacing) or self.min_spacing <= 0.0:
            raise InfeasibleError(
                f"min_spacing must be positive and finite, got {self.min_spacing!r}"
            )
        if hi - lo < (self.count - 1) * self.min_spacing:
            raise InfeasibleError(
                f"window of length {hi - lo:g} cannot hold {self.count} instants "
                f"spaced at least {self.min_spacing:g}"
            )
        object.__setattr__(self, "window", (lo, hi))


@dataclass(frozen=True)
class UniformValidation:
    """Joint verdict of the n-instant uniform schedule at one interval.

    ``first_failing_multiple`` scans subsampled intervals j*T for
    j = 1..horizon and records the first j whose uniform schedule fails
    (None when all pass).
    """

    interval: float
    report: CriterionReport
    passes: bool
    first_failing_multiple: int | None
    first_failing_interval: float | None


def _oscillatory_frequency(modes: ModeSet) -> float:
    """Positive imaginary part b of the conjugate pair a +- jb, or raise."""
    if modes.r != 2 or modes.roots[0][1] != 1:
        raise NotApplicableError(
            "no forbidden instants: the eigenvalues are not a complex conjugate pair"
        )
    lam = modes.roots[1][0]
    if lam.imag <= numerics.DEFAULT_RANK_TOL * max(1.0, abs(lam)):
        raise NotApplicableError(
            "no forbidden instants: real distinct eigenvalues"
        )
    return float(lam.imag)


def forbidden_instants_order2(
    system: Realization | PreparedSystem, t0: float, window
) -> ForbiddenSet:
    """Enumerate the singular second instants for an order-2 oscillatory system.

    Given a first instant t0, the pair (t0, t1) fails the joint criterion
    exactly when ``b * (t1 - t0)`` is an integer multiple of pi, b being the
    imaginary part of the eigenvalue pair.  Damping (the real part) only
    stretches the mode-space vectors and never changes this set.  Only the
    mode set is needed, so minimality is not checked; the guard band is
    bisected against the singularity tolerance.  A non-finite t0 or window
    bound raises InfeasibleError, as does a window holding more than
    MAX_FORBIDDEN_INSTANTS of them.  A plain realization is analysed with
    the default tolerances.
    """
    prepared = prepare(system)
    n = prepared.realization.n
    if n != 2:
        raise UnsupportedOrderError(f"forbidden-instant analysis is defined for order 2, got {n}")
    modes = prepared.modes
    frequency = _oscillatory_frequency(modes)
    period = math.pi / frequency

    lo, hi = (float(window[0]), float(window[1]))
    if not all(np.isfinite((t0, lo, hi))):
        raise InfeasibleError(
            f"t0 and the window bounds must be finite, got t0={t0!r}, window={window!r}"
        )
    if hi < lo:
        lo, hi = hi, lo
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    k_first = max(0, math.ceil((lo - t0 - slack) / period))
    count = math.floor((hi + slack - t0) / period) - k_first + 1
    if count > MAX_FORBIDDEN_INSTANTS:
        raise InfeasibleError(
            f"window holds {count} forbidden instants, more than {MAX_FORBIDDEN_INSTANTS}"
        )
    points = []
    k = k_first
    while True:
        t = t0 + k * period
        if t > hi + slack:
            break
        if t >= lo - slack:
            points.append(t)
        k += 1

    guard = _bisect_guard_band(modes, t0, t0 + period, prepared.tolerances.singularity)
    return ForbiddenSet(float(t0), period, tuple(points), guard)


def _bisect_guard_band(modes: ModeSet, t0: float, t_star: float, tol: float) -> float:
    """Half-width around a forbidden instant within which the verdict fails,
    bisected in at most 60 halvings of a quarter period."""
    span = (t_star - t0) / 4.0

    def fails(offset: float) -> bool:
        schedule = SamplingSchedule((t0, t_star + offset))
        return schedule_conditioning(modes, schedule) <= tol

    low, high = 0.0, span
    if fails(high):
        return span
    for _ in range(60):
        mid = 0.5 * (low + high)
        if mid <= low or mid >= high:
            break
        if fails(mid):
            low = mid
        else:
            high = mid
    return high


def validate_uniform(
    system: Realization | PreparedSystem, interval: float, horizon: int = 10
) -> UniformValidation:
    """Joint verdict of the uniform schedule {0, T, ..., (n-1) T}.

    Also scans the subsampled intervals j*T for j up to ``horizon`` and
    reports the first one whose sigma ratio is at or below the singularity
    tolerance, which for an oscillatory order-2 system flags the smallest
    multiple of T hitting a forbidden separation.  A plain realization is
    analysed with the default tolerances.
    """
    prepared = prepare(system)
    if interval <= 0.0 or not np.isfinite(interval):
        raise InfeasibleError(f"sampling interval must be positive, got {interval!r}")
    if horizon < 1:
        raise InfeasibleError("horizon must be at least 1")
    n = prepared.realization.n
    report = joint_verdict(prepared, _uniform_schedule(interval, n))
    modes = prepared.modes
    first_failing = None
    for j in range(1, horizon + 1):
        ratio = schedule_conditioning(modes, _uniform_schedule(j * interval, n))
        if ratio <= prepared.tolerances.singularity:
            first_failing = j
            break
    return UniformValidation(
        interval=float(interval),
        report=report,
        passes=report.reachable,
        first_failing_multiple=first_failing,
        first_failing_interval=None if first_failing is None else first_failing * interval,
    )


def _uniform_schedule(interval: float, n: int) -> SamplingSchedule:
    return SamplingSchedule(tuple(i * interval for i in range(n)))


def _grid_blocks(lo: float, hi: float, spacing: float, step: float, head: int, tail: int):
    """Yield the search grid as arrays of rows of ``head`` instants.

    Rows come in lexicographic order.  The first instant is ``lo``; each
    later one starts at the first point of the grid ``lo + k * step`` at
    least ``spacing`` past its predecessor and advances by repeated
    addition of ``step``, leaving room for the instants after it.  Every
    level but the last is enumerated per prefix; the last is one array per
    prefix.
    """

    def chain(after: float, depth: int) -> np.ndarray:
        remaining = head - depth - 1 + tail
        first = lo + math.ceil((after + spacing - lo) / step - 1e-12) * step
        bound = hi - remaining * spacing + 1e-12
        # np.cumsum adds sequentially, so element k is exactly the float that
        # k repeated ``+= step`` updates of ``first`` produce.
        increments = np.full(max(2, math.floor((bound - first) / step) + 2), step)
        increments[0] = first
        values = np.cumsum(increments)
        # Far from zero each addition rounds, and the chain can fall short of
        # the estimate; continue it until it passes the bound or stalls.
        while values[-1] <= bound and values[-1] + step > values[-1]:
            increments[0] = values[-1]
            values = np.concatenate((values, np.cumsum(increments)[1:]))
        return values[values <= bound]

    if head == 1:
        yield np.array([[lo]])
        return
    prefixes = [(lo,)]
    for depth in range(1, head - 1):
        prefixes = [p + (t,) for p in prefixes for t in chain(p[-1], depth).tolist()]
    for prefix in prefixes:
        last = chain(prefix[-1], head - 1)
        block = np.empty((last.size, head))
        block[:, :-1] = prefix
        block[:, -1] = last
        yield block


def _chunks(blocks, size: int):
    """Regroup a stream of row blocks into arrays of ``size`` rows.

    Only the last array may be shorter.
    """
    pending, count = [], 0
    for block in blocks:
        pending.append(block)
        count += len(block)
        if count < size:
            continue
        rows = np.concatenate(pending)
        full = count - count % size
        for start in range(0, full, size):
            yield rows[start : start + size]
        pending, count = [rows[full:]], count - full
    if count:
        yield np.concatenate(pending)


def suggest_schedule(system: Realization | PreparedSystem, spec: ScheduleSearchSpec):
    """Search the window for the best-conditioned feasible schedule.

    Deterministic grid search (step = min_spacing / 4) followed by three
    coordinate-refinement passes with shrinking step; ties keep the
    lexicographically lowest schedule.  The grid is evaluated in chunks of
    ``SEARCH_CHUNK`` schedules, each one stacked mode-matrix and SVD call;
    the refinement probes one schedule at a time.  Returns (schedule,
    achieved sigma ratio), or raises InfeasibleError when that ratio does not
    exceed the singularity tolerance.  The realization must be minimal; only
    its mode set is computed, never the modal decomposition.  A plain
    realization is analysed with the default tolerances.

    The objective depends only on instant differences, so the first instant
    is pinned to the window start without loss of generality.
    """
    prepared = prepare(system)
    n = prepared.realization.n
    require_minimal(prepared.minimality, n)
    modes = prepared.modes
    if spec.count < n:
        raise InfeasibleError(
            f"count {spec.count} is below the system order {n}; "
            "the mode matrix needs n instants"
        )

    lo, hi = spec.window
    spacing = spec.min_spacing
    head = min(n, spec.count)
    tail = spec.count - head
    # Instants beyond the first n never move the objective; they are packed
    # at minimal spacing, so the head must leave room for them.
    head_limit = hi - tail * spacing

    def objective(instants) -> float:
        return schedule_conditioning(modes, SamplingSchedule(instants))

    step = spacing / 4.0
    grid_len = int(math.floor((head_limit - lo) / step)) + 1
    if head > 1 and grid_len ** (head - 1) > MAX_GRID_CANDIDATES:
        raise InfeasibleError(
            "search grid too large; increase min_spacing or shrink the window"
        )

    best_obj = -1.0
    best: tuple | None = None
    for rows in _chunks(_grid_blocks(lo, hi, spacing, step, head, tail), SEARCH_CHUNK):
        # alpha_m = t[n-1] - t[n-1-m], as shifted_intervals computes it.
        alphas = rows[:, -1:] - rows[:, ::-1]
        values = numerics.column_normalized_sigma_ratio(mode_matrix(modes, alphas))
        # argmax keeps the first maximum in the chunk and the strict > keeps
        # an earlier chunk's, so ties go to the lexicographically lowest row.
        k = int(np.argmax(values))
        if values[k] > best_obj:
            best_obj = float(values[k])
            best = tuple(rows[k].tolist())
    if best is None:  # pragma: no cover - ScheduleSearchSpec validation prevents this
        raise InfeasibleError("no feasible schedule in the window")

    refined = list(best)
    refine_step = step
    for _ in range(3):
        refine_step /= 4.0
        for i in range(1, head):
            lower = refined[i - 1] + spacing
            upper = hi - (head - 1 - i + tail) * spacing
            if i + 1 < head:
                upper = min(upper, refined[i + 1] - spacing)
            for _ in range(8):
                winner = None
                for candidate in (refined[i] - refine_step, refined[i] + refine_step):
                    if lower <= candidate <= upper:
                        trial = refined.copy()
                        trial[i] = candidate
                        value = objective(tuple(trial))
                        if value > best_obj:
                            best_obj = value
                            winner = candidate
                if winner is None:
                    break
                refined[i] = winner

    instants = list(refined)
    for _ in range(tail):
        instants.append(instants[-1] + spacing)
    schedule = SamplingSchedule(tuple(instants))
    if best_obj <= prepared.tolerances.singularity:
        raise InfeasibleError(
            f"no schedule in the window clears the singularity tolerance "
            f"(best sigma ratio {best_obj:.3e})"
        )
    return schedule, best_obj
