"""Sampling-schedule analysis and selection.

For second-order oscillatory systems the singular separations are isolated
points (integer multiples of pi over the eigenfrequency), so schedules can
be chosen almost freely; this module enumerates those points, specializes
the criterion to uniform sampling, and searches windows for schedules with
the best-conditioned mode matrix.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass

import numpy as np

from . import numerics
from .criterion import CriterionReport, SamplingSchedule, joint_verdict, schedule_conditioning
from .criterion import schedule_screen
from .errors import DimensionError, InfeasibleError, NotApplicableError, NumericRangeError
from .errors import UnsupportedOrderError
from .numerics import DEFAULT_UNIFORM_HORIZON, MAX_SCHEDULE_INSTANTS, MAX_UNIFORM_HORIZON
from .system_model import ModeSet, Realization, require_minimal

# Guard so a careless search spec cannot ask for an astronomically large grid.
MAX_GRID_CANDIDATES = 2_000_000
MAX_FORBIDDEN_INSTANTS = 100_000  # the same guard for one forbidden-instant window
# A forbidden-instant period must span more than this many float spacings at
# the query's largest magnitude; below it t0 + k*period rounds to repeated or
# unordered instants.
FORBIDDEN_SPACING_MARGIN = 16

# Grid schedules evaluated per batched mode-matrix call.  Large enough that
# Python overhead per candidate is small, small enough that the stacked
# complex mode matrices stay a few hundred kilobytes even at order 12.
SEARCH_CHUNK = 256

# The guard band of each realization, searched on its first forbidden query.
# Keyed by the object itself (Realization equality is identity), so a
# replaced copy or a realization built from the same matrices has its own.
_GUARD_BANDS = weakref.WeakKeyDictionary()

COARSE = 4  # the coarse search pass takes every COARSE-th grid point of each instant
KEEP = 8  # coarse rows kept, around which the fine pass searches
BOX = 4  # half-width of the fine pass's box, in grid steps on every instant


def _finite(name: str, value, pair: bool = False):
    """``value`` as a finite float, or with ``pair`` as a tuple (lo, hi) of
    two; anything else (see ``numerics.as_float``) raises InfeasibleError
    naming ``name``."""

    shape = ": a pair (lo, hi)" if pair else ""
    error = lambda: InfeasibleError(f"{name} must be finite and real{shape}, got {value!r}")
    try:
        items = tuple(numerics.as_float(item, error) for item in (value if pair else (value,)))
    except TypeError:  # a pair that is not iterable
        items = ()
    if len(items) != (2 if pair else 1) or not all(map(math.isfinite, items)):
        raise error()
    return items if pair else items[0]


def _count(name: str, value, limit: int) -> int:
    """``value`` as an int in 1..limit, or InfeasibleError naming ``name``."""
    error = lambda: InfeasibleError(f"{name} must be an integer, got {value!r}")
    count = numerics.as_integer(value, error)
    if count < 1:
        raise InfeasibleError(f"{name} must be at least 1")
    if count > limit:
        raise InfeasibleError(f"{name} {count} is above the limit {limit}")
    return count


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
        count = _count("count", self.count, MAX_SCHEDULE_INSTANTS)
        spacing = _finite("min_spacing", self.min_spacing)
        if spacing <= 0.0:
            raise InfeasibleError(f"min_spacing must be positive, got {self.min_spacing!r}")
        if hi - lo < (count - 1) * spacing:
            raise InfeasibleError(
                f"window of length {hi - lo:g} cannot hold {count} instants "
                f"spaced at least {spacing:g}"
            )
        object.__setattr__(self, "window", (lo, hi))
        object.__setattr__(self, "count", count)
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
    mode set is needed, so minimality is not checked.  The guard band
    depends on the separation alone, so it is computed once per
    realization, on its first query, and every later query reads it back.
    A non-finite t0 or window bound raises InfeasibleError, as does a window
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

    guard = _GUARD_BANDS.get(system)
    if guard is None:
        guard = _GUARD_BANDS[system] = _guard_band(modes, period, system.tolerances.singularity)
    return ForbiddenSet(float(t0), period, tuple(points.tolist()), guard)


def _guard_band(modes: ModeSet, period: float, tol: float) -> float:
    """Offset past the separation ``period`` where the verdict passes again,
    at most a quarter period, on the rows (0, period + offset); ``period``
    is taken to fail.  ``_last_true`` searches the floats of the second
    instant up to the quarter period, so ``period + offset`` is, exactly,
    the first passing float after the last failing one the search reaches,
    and the offset is exact too (Sterbenz).  Near a crossing the computed
    verdict can flip back and forth over a few hundred floats; the search
    then stops at one of those crossings."""
    span = period / 4.0
    if schedule_conditioning(modes, np.array([0.0, period + span])) <= tol:
        return span
    fails = lambda key: schedule_conditioning(modes, np.array([0.0, _key_float(key)])) <= tol
    last = _last_true(fails, _float_key(period), _float_key(period + span))
    return _key_float(last + 1) - period


def validate_uniform(
    system: Realization, interval: float, horizon: int = DEFAULT_UNIFORM_HORIZON
) -> UniformValidation:
    """Joint verdict of the uniform schedule {0, T, ..., (n-1) T}.

    Also scans the subsampled intervals j*T for j up to ``horizon`` and
    reports the first one whose sigma ratio is at or below the singularity
    tolerance, which for an oscillatory order-2 system flags the smallest
    multiple of T hitting a forbidden separation.  The j = 1 verdict is the
    report's own; larger multiples are evaluated in stacked blocks (see
    ``_first_failing_multiple``), with the first failing multiple and every
    error, which names the multiple and the interval, those of a scan one
    multiple at a time.  ``horizon`` must be an integer in 1..MAX_UNIFORM_HORIZON.
    """
    interval = _finite("interval", interval)
    if interval <= 0.0:
        raise InfeasibleError(f"sampling interval must be positive, got {interval!r}")
    horizon = _count("horizon", horizon, MAX_UNIFORM_HORIZON)
    try:
        report = joint_verdict(system, _uniform_schedule(interval, system.n))
    except (DimensionError, NumericRangeError) as exc:
        raise _at_multiple(exc, 1, interval) from exc
    tol = system.tolerances.singularity
    if not report.reachable:
        first_failing = 1
    else:
        first_failing = _first_failing_multiple(system.modes, interval, horizon, tol)
    return UniformValidation(
        interval=interval,
        report=report,
        passes=report.reachable,
        first_failing_multiple=first_failing,
        first_failing_interval=None if first_failing is None else first_failing * interval,
    )


def _first_failing_multiple(modes: ModeSet, interval: float, horizon: int, tol: float):
    """The first j in 2..horizon whose uniform schedule at j*interval has a
    sigma ratio at or below ``tol``, or None.

    Blocks of 16, 32, ... multiples, each at most SEARCH_CHUNK, go through one
    stacked ``schedule_conditioning`` call each, on the rows
    ``arange(n) * (j * interval)``: the floats of ``_uniform_schedule``.  A
    block with a non-finite instant, or whose call raises, is rescanned one
    multiple at a time up to its first failing one: a multiple past that
    may overflow the mode matrix, so only this scan says which error, if
    any, the sequential scan meets first.
    """
    n = modes.n
    start, size = 2, min(16, SEARCH_CHUNK)
    while start <= horizon:
        multiples = np.arange(start, min(start + size, horizon + 1))
        rows = lambda: np.arange(n) * (multiples[:, None] * interval)
        try:
            ratios = schedule_conditioning(modes, numerics.finite(rows, "uniform instants overflowed"))
        except (NumericRangeError, np.linalg.LinAlgError):
            for j in multiples.tolist():
                try:
                    ratio = schedule_conditioning(modes, _uniform_schedule(j * interval, n))
                except (DimensionError, NumericRangeError) as exc:
                    raise _at_multiple(exc, j, interval) from exc
                if ratio <= tol:
                    return j
        else:
            failing = np.flatnonzero(ratios <= tol)
            if failing.size:
                return int(multiples[failing[0]])
        start, size = start + size, min(2 * size, SEARCH_CHUNK)
    return None


def _uniform_schedule(interval: float, n: int) -> SamplingSchedule:
    return SamplingSchedule(tuple(i * interval for i in range(n)))


def _at_multiple(exc: Exception, j: int, interval: float) -> Exception:
    """``exc`` again, naming the multiple and interval of the schedule that raised it."""
    return type(exc)(f"uniform schedule at multiple {j} of interval {interval!r}: {exc}")


def _last_true(test, low: int, high: int) -> int:
    """The largest k in [low, high) with ``test(k)``, for a test that holds
    at ``low`` and, once false, stays false as k grows.  Strides double up
    from ``low`` until the test fails or would reach ``high``, and bisection
    closes the bracket: about 2 log2(k - low) tests, never one at ``high``.
    Whatever the test, the k returned is ``low`` or holds it, and k + 1
    fails it or is ``high``."""
    stride = 1
    while low + stride < high and test(low + stride):
        low, stride = low + stride, 2 * stride
    high = min(low + stride, high)
    while high - low > 1:
        middle = (low + high) // 2
        if test(middle):
            low = middle
        else:
            high = middle
    return low


def _window_end(lo: float, hi: float, spacing: float, unit: float) -> int:
    """The largest lattice index m with ``lo + m * unit <= hi``: the computed
    instant never decreases as m grows.  The search stops below four times
    the window, or MAX_GRID_CANDIDATES spacings when that is less, so a
    window too wide to count gets an end that no grid guard lets through."""
    high = 1024 * math.ceil(min((hi - lo) / spacing, MAX_GRID_CANDIDATES)) + 4
    return _last_true(lambda m: lo + m * unit <= hi, 0, high)


def _grid_rows(last: int, head: int, stride: int = 1, boxes=None) -> np.ndarray:
    """The search grid's rows of ``head`` instants as int64 indices in grid
    steps, grown a level at a time: 0 first, each later index at least 4 (one
    min_spacing) past its predecessor, the last at most ``last``.  ``stride``
    keeps every stride-th index of a level, counted from its earliest.
    ``boxes``, index rows of ``head`` instants, keeps instead the indices
    within BOX steps of a box row on every instant.  Either way the rows come
    in lexicographic order, each once."""
    # A box row owns the rows grown inside its box; rows of several owners
    # are merged at the end.
    owners = 1 if boxes is None else len(boxes)
    owner = np.arange(owners)
    rows = np.zeros((owners, 1), np.int64)
    for depth in range(1, head):
        first = rows[:, -1] + 4
        stop = last - 4 * (head - 1 - depth)
        if boxes is not None:
            centers = boxes[owner, depth]
            first, stop = np.maximum(first, centers - BOX), np.minimum(stop, centers + BOX)
        counts = np.maximum((stop - first) // stride + 1, 0)
        parent = np.repeat(np.arange(len(rows)), counts)
        rank = np.arange(parent.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack((rows[parent], first[parent] + stride * rank))
        owner = owner[parent]
    if owners > 1:
        # The mixed-radix codes of the rows sort as the rows do; they stay
        # below (last + 1) ** (head - 1), which the grid guard holds to at
        # most 68 ** 5 < 1.5e9 (order 6), far inside int64.
        codes = np.zeros(len(rows), np.int64)
        for column in rows.T:
            codes = codes * (int(column.max(initial=0)) + 1) + column
        rows = rows[np.unique(codes, return_index=True)[1]]
    return rows


def _chunks(rows: np.ndarray, lo: float, unit: float):
    """The instants ``lo + rows * unit`` of the lattice rows, SEARCH_CHUNK
    rows at a time."""
    return (lo + rows[k : k + SEARCH_CHUNK] * unit for k in range(0, len(rows), SEARCH_CHUNK))


def _conditioning(modes: ModeSet, rows: np.ndarray, lo: float, unit: float) -> np.ndarray:
    """``schedule_conditioning`` of every lattice row, one call per chunk."""
    values = (schedule_conditioning(modes, chunk) for chunk in _chunks(rows, lo, unit))
    return np.concatenate([np.empty(0), *values])


def _screened(
    modes: ModeSet, rows: np.ndarray, lo: float, unit: float, rank: int, floor: float = -math.inf
) -> np.ndarray:
    """The lattice rows that ``schedule_screen`` cannot rule out of the cut.

    Every row's sigma ratio lies within ``bound`` of its ``estimate``.  The
    cut is the rank-th largest lower bound ``estimate - bound``, or ``floor``
    when that is higher: at least ``rank`` rows have a sigma ratio at or
    above it.  So a row whose sigma ratio reaches the rank-th best of
    ``rows``, or ``floor``, has ``estimate + bound`` at or above the cut and
    is returned, the rows keeping their order.
    """
    screens = (schedule_screen(modes, chunk) for chunk in _chunks(rows, lo, unit))
    estimate, bound = np.concatenate([np.empty((2, 0)), *screens], axis=1)
    cut = floor
    if len(rows) >= rank:
        cut = max(cut, np.partition(estimate - bound, -rank)[-rank])
    return rows[estimate + bound >= cut]


def _best_first(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Order of the rows by value, best first, a tie going to the
    lexicographically lowest row and then to the earlier one."""
    return np.lexsort((*rows.T[::-1], -values))


def _meet_spec(instants: list, spec: ScheduleSearchSpec) -> list:
    """The instants moved until they meet the spec as computed in floats.

    The later instant of a gap below min_spacing rises, to the instant
    min_spacing from its neighbour or else a float step of the instant or of
    min_spacing, whichever is coarser, so that each move changes the
    computed gap.  Then the last instant is clamped to the window end, and
    walking back the earlier instant of a gap still short falls to the
    latest float that clears it.  A walk that moves the first instant is the
    greedy one from the window end, which bounds every schedule ending in
    the window from above, so a first instant pushed below the window start,
    which raises InfeasibleError, proves that no schedule meets the spec.
    """
    lo, hi = spec.window
    spacing = spec.min_spacing
    step = math.ulp(spacing)
    instants = list(instants)
    for i in range(1, len(instants)):
        while instants[i] - instants[i - 1] < spacing:
            up = math.nextafter(instants[i], math.inf)
            instants[i] = max(up, instants[i] + step, instants[i - 1] + spacing)
    instants[-1] = min(instants[-1], hi)
    for i in range(len(instants) - 1, 0, -1):
        if instants[i] - instants[i - 1] < spacing:
            instants[i - 1] = _latest_clearing(instants[i], spacing)
    if instants[0] < lo:
        raise InfeasibleError(
            f"the search grid holds no {spec.count} instants spaced {spacing!r} "
            f"in the window {spec.window!r}; widen the window"
        )
    return instants


def _float_key(x: float) -> int:
    """An integer that orders the floats as their values do, one per float
    (-0.0 and 0.0 share 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _key_float(key: int) -> float:
    value = struct.unpack("<d", struct.pack("<q", abs(key)))[0]
    return value if key >= 0 else -value


def _latest_clearing(later: float, spacing: float) -> float:
    """The latest float x with ``later - x >= spacing``.

    The computed gap never grows with x.  A guess g = ``later - spacing``
    that does not clear was rounded up, since a g at or below the exact
    difference has an exact gap of at least ``spacing``, which rounding
    keeps.  Rounded to nearest, the exact difference then lies at or above
    the float below g, so that float clears by the same argument and is
    the answer.  Otherwise ``_last_true`` searches upward from g over the
    keys of ``_float_key``, up to +inf, which never clears: a few gap
    evaluations when the answer lies near g, about 130 at most.
    """
    guess = later - spacing
    if later - guess < spacing:
        return math.nextafter(guess, -math.inf)
    clears = lambda key: later - _key_float(key) >= spacing
    return _key_float(_last_true(clears, _float_key(guess), _float_key(math.inf)))


def suggest_schedule(system: Realization, spec: ScheduleSearchSpec):
    """Search the window for the best-conditioned feasible schedule.

    The search runs on one integer lattice: index m is the instant
    ``lo + m * unit`` with ``unit = min_spacing / 256``, exact as a division
    by a power of two.  Instants 256 indices apart are min_spacing apart, and
    m is in the window when ``lo + m * unit <= hi``.  The grid takes every
    64th index.  Its coarse pass evaluates every COARSE-th grid point of each
    instant past its earliest and keeps the KEEP best rows; the fine pass
    evaluates the other grid rows within BOX grid steps of a kept row on
    every instant.  The best row of both passes wins, a tie going to the
    lexicographically lowest, so the winner is the exhaustive grid search's
    whenever it lies in a box.  Each pass screens its rows, ``SEARCH_CHUNK``
    per ``schedule_screen`` call, and sends through ``schedule_conditioning``
    only those whose error bound lets them reach the pass's cut (see
    ``_screened``): the KEEP-th best value for the coarse pass, the best for
    the fine pass.  The kept rows, the winner and its objective are those of
    evaluating every row, bit for bit.  Three refinement passes then
    probe one instant at a time 16, 4 and 1 units either way, sequentially
    on purpose: a probe replaces the winner only when strictly better.

    The returned schedule meets the spec as computed in floats (see
    ``_meet_spec``).  A window whose lattice holds no row may still hold a
    schedule: the walk back from its end, on the instants min_spacing apart
    from its start, then finds one.  Returns (schedule, achieved sigma
    ratio), or raises InfeasibleError when no schedule meets the spec, the
    grid is too large or that ratio does not exceed the singularity
    tolerance, and UnsupportedOrderError above order 6.  The realization
    must be minimal; only its mode set is computed, never the modal
    decomposition.
    The objective depends only on instant differences, so the first instant
    is pinned to the window start without loss of generality.
    """
    n = system.n
    modes = require_minimal(system)
    if spec.count < n:
        raise InfeasibleError(
            f"count {spec.count} is below the system order {n}; "
            "the mode matrix needs n instants"
        )

    lo, hi = spec.window
    unit = spec.min_spacing / 256.0
    end = _window_end(lo, hi, spec.min_spacing, unit)
    # Instants beyond the first n never move the objective; they are packed
    # at minimal spacing, so the first n must leave room for them.
    tail = spec.count - n
    last = (end - 256 * tail) // 64
    # The guard counts what the two passes can build: the coarse grid, and
    # KEEP boxes; from order 7 the boxes alone are too many.
    fine = KEEP * (2 * BOX + 1) ** (n - 1)
    if fine > MAX_GRID_CANDIDATES:
        raise UnsupportedOrderError(f"schedule search supports order 6 at most, got order {n}")
    if (last // COARSE + 1) ** (n - 1) + fine > MAX_GRID_CANDIDATES:
        raise InfeasibleError(
            "search grid too large; increase min_spacing or shrink the window"
        )

    rows = _grid_rows(last, n, stride=COARSE)
    if not len(rows):
        start = [lo + k * spec.min_spacing for k in range(spec.count)]
        schedule = SamplingSchedule(tuple(_meet_spec(start, spec)))
        return _cleared(system, schedule, schedule_conditioning(modes, schedule))
    rows = _screened(modes, rows, lo, 64 * unit, KEEP)
    values = _conditioning(modes, rows, lo, 64 * unit)
    best = _best_first(values, rows)[:KEEP]
    values, rows = values[best], rows[best]

    fine = _grid_rows(last, n, boxes=rows)
    # The coarse pass evaluated the rows whose every offset is coarse.
    fine = fine[np.any((np.diff(fine, axis=1) - 4) % COARSE, axis=1)]
    # A fine row that wins or ties reaches the best kept value.
    fine = _screened(modes, fine, lo, 64 * unit, 1, float(values.max()))
    values = np.concatenate((values, _conditioning(modes, fine, lo, 64 * unit)))
    rows = np.concatenate((rows, fine))
    winner = _best_first(values, rows)[0]
    best_obj, refined = float(values[winner]), (64 * rows[winner]).tolist()

    for refine_step in (16, 4, 1):
        for i in range(1, n):
            lower = refined[i - 1] + 256
            upper = refined[i + 1] - 256 if i + 1 < n else end - 256 * tail
            for _ in range(8):
                # Minus probe first: the strict > keeps the earlier of two ties.
                moves = [m for m in (refined[i] - refine_step, refined[i] + refine_step)
                         if lower <= m <= upper]
                if not moves:
                    break
                probes = np.array([refined[:i] + [m] + refined[i + 1 :] for m in moves])
                values = schedule_conditioning(modes, lo + probes * unit)
                winner = None
                for move, value in zip(moves, values.tolist()):
                    if value > best_obj:
                        best_obj, winner = value, move
                if winner is None:
                    break
                refined[i] = winner

    indices = refined + [refined[-1] + 256 * j for j in range(1, tail + 1)]
    instants = [lo + m * unit for m in indices]
    schedule = SamplingSchedule(tuple(_meet_spec(instants, spec)))
    if list(schedule.instants) != instants:
        best_obj = schedule_conditioning(modes, schedule)
    return _cleared(system, schedule, best_obj)


def _cleared(system: Realization, schedule: SamplingSchedule, objective: float):
    """(schedule, objective), or InfeasibleError when the objective does not
    exceed the singularity tolerance."""
    if objective <= system.tolerances.singularity:
        raise InfeasibleError(
            f"no schedule in the window clears the singularity tolerance "
            f"(best sigma ratio {objective:.3e})"
        )
    return schedule, objective
