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

from .criterion import CriterionReport, SamplingSchedule, joint_verdict, schedule_conditioning
from .errors import InfeasibleError, NotApplicableError, UnsupportedOrderError
from .system_model import ModeSet, Realization, require_minimal

# Guard so a careless search spec cannot ask for an astronomically large grid.
MAX_GRID_CANDIDATES = 2_000_000
MAX_FORBIDDEN_INSTANTS = 100_000  # the same guard for one forbidden-instant window
MAX_UNIFORM_HORIZON = 10_000  # and for the multiples one uniform validation scans
MAX_SCHEDULE_INSTANTS = 100_000  # and for the instants one schedule search returns
# A forbidden-instant period must span more than this many float spacings at
# the query's largest magnitude; below it t0 + k*period rounds to repeated or
# unordered instants.
FORBIDDEN_SPACING_MARGIN = 16

# Grid schedules evaluated per batched mode-matrix call.  Large enough that
# Python overhead per candidate is small, small enough that the stacked
# complex mode matrices stay a few hundred kilobytes even at order 12.
SEARCH_CHUNK = 256

GUARD_SECTIONS = 16  # guard-band bracket sections per batched round

COARSE = 4  # the coarse search pass takes every COARSE-th point of each chain
KEEP = 8  # coarse rows kept, around which the fine pass searches
BOX = 4  # half-width of the fine pass's box, in grid steps on every instant


def _finite(name: str, value, pair: bool = False):
    """``value`` as a finite float, or with ``pair`` as a tuple (lo, hi) of
    two; anything else, a bool included, raises InfeasibleError naming
    ``name``."""

    def real(item) -> float:
        if isinstance(item, numbers.Real) and not isinstance(item, bool):
            try:
                return float(item)
            except OverflowError:  # an integer beyond the float range
                pass
        return math.nan

    try:
        items = tuple(map(real, value if pair else (value,)))
    except TypeError:  # a pair that is not iterable
        items = ()
    if len(items) != (2 if pair else 1) or not all(map(math.isfinite, items)):
        shape = ": a pair (lo, hi)" if pair else ""
        raise InfeasibleError(f"{name} must be finite and real{shape}, got {value!r}")
    return items if pair else items[0]


@dataclass(frozen=True)
class ForbiddenSet:
    """Singular sampling instants t0 + k*pi/b of an oscillatory order-2 system.

    ``forbidden`` lists the members inside the queried window (including the
    degenerate k = 0 point t0 itself when covered).  ``guard_band`` is the
    half-width past a forbidden separation within which the joint verdict
    still fails at the given tolerance; it does not depend on t0.
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
    ``count`` is an integer in 1..MAX_SCHEDULE_INSTANTS.
    """

    window: tuple
    count: int
    min_spacing: float

    def __post_init__(self):
        lo, hi = _finite("window", self.window, pair=True)
        if hi <= lo:
            raise InfeasibleError(f"window {self.window!r} is not a proper interval")
        if not math.isfinite(hi - lo):
            raise InfeasibleError(f"window {self.window!r} is too wide: its length overflows")
        if isinstance(self.count, bool) or not isinstance(self.count, numbers.Integral):
            raise InfeasibleError(f"count must be an integer, got {self.count!r}")
        if self.count < 1:
            raise InfeasibleError("count must be at least 1")
        if self.count > MAX_SCHEDULE_INSTANTS:
            raise InfeasibleError(f"count {self.count} is above the limit {MAX_SCHEDULE_INSTANTS}")
        spacing = _finite("min_spacing", self.min_spacing)
        if spacing <= 0.0:
            raise InfeasibleError(f"min_spacing must be positive, got {self.min_spacing!r}")
        if hi - lo < (self.count - 1) * spacing:
            raise InfeasibleError(
                f"window of length {hi - lo:g} cannot hold {self.count} instants "
                f"spaced at least {spacing:g}"
            )
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "min_spacing", spacing)


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
    # Clustering already kept the pair apart, and LAPACK returns the real
    # eigenvalues of a real matrix with an imaginary part of exactly 0.
    if lam.imag == 0.0:
        raise NotApplicableError("no forbidden instants: real distinct eigenvalues")
    return float(lam.imag)


def forbidden_instants_order2(system: Realization, t0: float, window) -> ForbiddenSet:
    """Enumerate the singular second instants for an order-2 oscillatory system.

    Given a first instant t0, the pair (t0, t1) fails the joint criterion
    exactly when ``b * (t1 - t0)`` is an integer multiple of pi, b being the
    imaginary part of the eigenvalue pair.  Damping (the real part) only
    stretches the mode-space vectors and never changes this set.  Only the
    mode set is needed, so minimality is not checked; the guard band is
    sectioned against the singularity tolerance on the separation alone.  A
    non-finite t0 or window bound raises InfeasibleError, as does a window
    too far from t0 to count, holding more than MAX_FORBIDDEN_INSTANTS of
    them, or holding any so far from zero that the period is not above
    FORBIDDEN_SPACING_MARGIN float spacings there.
    """
    n = system.n
    if n != 2:
        raise UnsupportedOrderError(f"forbidden-instant analysis is defined for order 2, got {n}")
    modes = system.modes
    frequency = _oscillatory_frequency(modes)
    period = math.pi / frequency

    t0 = _finite("t0", t0)
    lo, hi = sorted(_finite("window", window, pair=True))
    # A few float spacings at the query's largest magnitude absorb the
    # rounding of t0 + k*period at the window ends.
    scale = max(abs(t0), abs(lo), abs(hi))
    slack = 4 * math.ulp(scale)
    first, last = (lo - t0 - slack) / period, (hi + slack - t0) / period
    if not (math.isfinite(first) and math.isfinite(last)):
        raise InfeasibleError(
            f"window {window!r} is too far from t0={t0!r} to count its forbidden instants"
        )
    k_first = max(0, math.ceil(first))
    count = max(0, math.floor(last) - k_first + 1)
    if count > MAX_FORBIDDEN_INSTANTS:
        raise InfeasibleError(
            f"window holds {count} forbidden instants, more than {MAX_FORBIDDEN_INSTANTS}"
        )
    if count and period <= FORBIDDEN_SPACING_MARGIN * math.ulp(scale):
        raise InfeasibleError(
            f"forbidden instants {period:.6g} apart cannot be resolved near {scale:.6g}; "
            "move t0 and the window closer to zero"
        )
    # One k past the count absorbs a quotient rounded down at the window end.
    points = t0 + (k_first + np.arange(count + 1)) * period
    points = points[(points >= lo - slack) & (points <= hi + slack)]

    guard = _guard_band(modes, period, system.tolerances.singularity)
    return ForbiddenSet(float(t0), period, tuple(points.tolist()), guard)


def _guard_band(modes: ModeSet, period: float, tol: float) -> float:
    """Offset past the separation ``period`` where the verdict passes again,
    at most a quarter period, on the rows (0, period + offset); offset 0 is
    taken to fail.  Each round sections the bracket GUARD_SECTIONS ways in
    one call and keeps the section ending at the first passing offset; 15
    rounds narrow it by 16**15 = 2**60, as 60 halvings would."""
    span = period / 4.0
    if schedule_conditioning(modes, np.array([0.0, period + span])) <= tol:
        return span
    low, high = 0.0, span
    for _ in range(15):
        offsets = np.linspace(low, high, GUARD_SECTIONS + 1)
        offsets = offsets[(offsets > low) & (offsets < high)]
        if offsets.size == 0:
            break
        rows = np.column_stack((np.zeros(offsets.size), period + offsets))
        passes = np.concatenate(([False], schedule_conditioning(modes, rows) > tol, [True]))
        bracket = np.concatenate(([low], offsets, [high]))
        first = int(np.argmax(passes))
        low, high = bracket[first - 1], bracket[first]
    return float(high)


def validate_uniform(system: Realization, interval: float, horizon: int = 10) -> UniformValidation:
    """Joint verdict of the uniform schedule {0, T, ..., (n-1) T}.

    Also scans the subsampled intervals j*T for j up to ``horizon`` and
    reports the first one whose sigma ratio is at or below the singularity
    tolerance, which for an oscillatory order-2 system flags the smallest
    multiple of T hitting a forbidden separation.  The j = 1 ratio is the
    report's own; larger multiples are probed one at a time, up to the first
    failing one.  ``horizon`` must be an integer in 1..MAX_UNIFORM_HORIZON.
    """
    interval = _finite("interval", interval)
    if interval <= 0.0:
        raise InfeasibleError(f"sampling interval must be positive, got {interval!r}")
    if isinstance(horizon, bool) or not isinstance(horizon, numbers.Integral):
        raise InfeasibleError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise InfeasibleError("horizon must be at least 1")
    if horizon > MAX_UNIFORM_HORIZON:
        raise InfeasibleError(f"horizon {horizon} is above the limit {MAX_UNIFORM_HORIZON}")
    n = system.n
    report = joint_verdict(system, _uniform_schedule(interval, n))
    first_failing = None
    # Sequential on purpose: a multiple past the first failing one may
    # overflow the mode matrix, so it is never evaluated.
    for j in range(1, horizon + 1):
        ratio = report.sigma_ratio
        if j > 1:
            ratio = schedule_conditioning(system.modes, _uniform_schedule(j * interval, n))
        if ratio <= system.tolerances.singularity:
            first_failing = j
            break
    return UniformValidation(
        interval=interval,
        report=report,
        passes=report.reachable,
        first_failing_multiple=first_failing,
        first_failing_interval=None if first_failing is None else first_failing * interval,
    )


def _uniform_schedule(interval: float, n: int) -> SamplingSchedule:
    return SamplingSchedule(tuple(i * interval for i in range(n)))


def _chain_starts(after, lo: float, spacing: float, step: float) -> np.ndarray:
    """Lattice index k of the first grid point ``lo + k * step`` at least
    ``spacing`` past each instant of ``after``, as int64."""
    return np.ceil((after + spacing - lo) / step - 1e-12).astype(np.int64)


def _grid_rows(lo: float, hi: float, spacing: float, step: float, head: int, tail: int,
               chains: dict, stride: int = 1, boxes=None):
    """The search grid's rows of ``head`` instants as (lattice indices, rows).

    The first instant is ``lo``; each later one starts at the first point of
    the grid ``lo + k * step`` at least ``spacing`` past its predecessor and
    advances by repeated addition of ``step``, leaving room for the instants
    after it.  A chain depends only on its start index k and its depth, so
    each is built once into ``chains``, a memo the passes of one search
    share.  The rows grow a level at a time as whole arrays: one expression
    gives every row's chain start, and the new instants are gathered from
    the distinct chains by offset.

    ``stride`` keeps every stride-th point of each chain, counted from its
    start.  ``boxes``, lattice-index rows of ``head`` instants, keeps instead
    the points within BOX steps of a box row on every instant.  Either way
    the rows come in lexicographic order, each once.
    """

    def chain(start: int, depth: int) -> np.ndarray:
        if (start, depth) not in chains:
            remaining = head - depth - 1 + tail
            first = lo + start * step
            bound = hi - remaining * spacing + 1e-12
            # np.cumsum adds sequentially, so element k is exactly the float
            # that k repeated ``+= step`` updates of ``first`` produce.
            increments = np.full(max(2, math.floor((bound - first) / step) + 2), step)
            increments[0] = first
            values = np.cumsum(increments)
            # Far from zero each addition rounds, and the chain can fall short
            # of the estimate; continue it until it passes the bound or stalls.
            while values[-1] <= bound and values[-1] + step > values[-1]:
                increments[0] = values[-1]
                values = np.concatenate((values, np.cumsum(increments)[1:]))
            chains[start, depth] = values[values <= bound]
        return chains[start, depth]

    # A box row owns the rows grown inside its box; rows of several owners
    # are merged at the end.
    owners = 1 if boxes is None else len(boxes)
    owner = np.arange(owners)
    indices = np.zeros((owners, 1), np.int64)
    rows = np.full((owners, 1), lo)
    for depth in range(1, head):
        starts = _chain_starts(rows[:, -1], lo, spacing, step)
        distinct, which = np.unique(starts, return_inverse=True)
        table = [chain(start, depth) for start in distinct.tolist()]
        sizes = np.array([points.size for points in table], np.int64)
        first, last = np.zeros(len(rows), np.int64), sizes[which] - 1
        if boxes is not None:
            centers = boxes[owner, depth] - starts
            first, last = np.maximum(centers - BOX, 0), np.minimum(centers + BOX, last)
        counts = np.maximum((last - first) // stride + 1, 0)
        parent = np.repeat(np.arange(len(rows)), counts)
        rank = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        offsets = first[parent] + stride * rank
        at = (np.cumsum(sizes) - sizes)[which[parent]] + offsets
        indices = np.column_stack((indices[parent], starts[parent] + offsets))
        # A single chain, the first level's, may hold millions of points:
        # gather from it in place.
        flat = table[0] if len(table) == 1 else np.concatenate((np.empty(0), *table))
        rows = np.column_stack((rows[parent], flat[at]))
        owner = owner[parent]
    if owners > 1:
        # The mixed-radix codes of the lattice indices sort as the rows do;
        # the grid guard keeps their range far inside int64.
        codes = np.zeros(len(indices), np.int64)
        for column in indices.T:
            codes = codes * (int(column.max(initial=0)) + 1) + column
        _, once = np.unique(codes, return_index=True)
        indices, rows = indices[once], rows[once]
    return indices, rows


def _conditioning(modes: ModeSet, rows: np.ndarray) -> np.ndarray:
    """``schedule_conditioning`` of every row, SEARCH_CHUNK rows per call."""
    chunks = range(0, len(rows), SEARCH_CHUNK)
    return np.concatenate(
        [np.empty(0), *(schedule_conditioning(modes, rows[k : k + SEARCH_CHUNK]) for k in chunks)]
    )


def _best_first(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Order of the rows by value, best first, a tie going to the
    lexicographically lowest row and then to the earlier one."""
    return np.lexsort((*rows.T[::-1], -values))


def suggest_schedule(system: Realization, spec: ScheduleSearchSpec):
    """Search the window for the best-conditioned feasible schedule.

    Deterministic coarse-to-fine search of the grid of step min_spacing / 4,
    then three coordinate-refinement passes with shrinking step.  The coarse
    pass evaluates every COARSE-th point of each instant's chain and keeps
    the KEEP best rows; the fine pass evaluates the other grid rows within
    BOX lattice steps of a kept row on every instant.  Each pass builds its
    rows a level at a time as index and instant arrays, evaluates them
    ``SEARCH_CHUNK`` rows per stacked ``schedule_conditioning`` call and
    ranks them with one sort.  The best row of both passes wins, a tie going
    to the lexicographically lowest, so the result is the exhaustive grid
    search's whenever its winner lies in a box.  The refinement stays
    sequential on purpose: each step probes around the winner of the step
    before, so only its (at most two) probes share a call, and a probe
    replaces the winner only when strictly better.  Returns (schedule,
    achieved sigma ratio), or raises InfeasibleError when the grid holds no
    row or that ratio does not exceed the singularity tolerance.  The
    realization must be minimal; only its mode set is computed, never the
    modal decomposition.

    The objective depends only on instant differences, so the first instant
    is pinned to the window start without loss of generality.
    """
    n = system.n
    require_minimal(system.minimality, n)
    modes = system.modes
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

    step = spacing / 4.0
    grid_len = int(math.floor((head_limit - lo) / step)) + 1
    if head > 1 and grid_len ** (head - 1) > MAX_GRID_CANDIDATES:
        raise InfeasibleError(
            "search grid too large; increase min_spacing or shrink the window"
        )

    chains = {}
    # Far from zero a chain may start a step late, so its coarse points are
    # counted from its start, not from lo.
    indices, rows = _grid_rows(lo, hi, spacing, step, head, tail, chains, stride=COARSE)
    if not len(rows):
        raise InfeasibleError(
            f"the search grid holds no {spec.count} instants spaced {spacing!r} "
            f"in the window {spec.window!r}; widen the window"
        )
    values = _conditioning(modes, rows)
    best = _best_first(values, rows)[:KEEP]
    values, rows = values[best], rows[best]

    fine_indices, fine = _grid_rows(lo, hi, spacing, step, head, tail, chains, boxes=indices[best])
    # The coarse pass evaluated the rows whose every offset is coarse.
    offsets = fine_indices[:, 1:] - _chain_starts(fine[:, :-1], lo, spacing, step)
    fine = fine[np.any(offsets % COARSE, axis=1)]
    values = np.concatenate((values, _conditioning(modes, fine)))
    rows = np.concatenate((rows, fine))
    winner = _best_first(values, rows)[0]
    best_obj, refined = float(values[winner]), rows[winner].tolist()

    refine_step = step
    for _ in range(3):
        refine_step /= 4.0
        for i in range(1, head):
            lower = refined[i - 1] + spacing
            upper = hi - (head - 1 - i + tail) * spacing
            if i + 1 < head:
                upper = min(upper, refined[i + 1] - spacing)
            for _ in range(8):
                # Minus probe first: the strict > keeps the earlier of two ties.
                rows = np.array([refined, refined])
                rows[:, i] += (-refine_step, refine_step)
                rows = rows[(lower <= rows[:, i]) & (rows[:, i] <= upper)]
                if not len(rows):
                    break
                winner = None
                for row, value in zip(rows.tolist(), schedule_conditioning(modes, rows).tolist()):
                    if value > best_obj:
                        best_obj, winner = value, row[i]
                if winner is None:
                    break
                refined[i] = winner

    instants = list(refined)
    for _ in range(tail):
        instants.append(instants[-1] + spacing)
    schedule = SamplingSchedule(tuple(instants))
    if best_obj <= system.tolerances.singularity:
        raise InfeasibleError(
            f"no schedule in the window clears the singularity tolerance "
            f"(best sigma ratio {best_obj:.3e})"
        )
    return schedule, best_obj
