"""Host-speed reference for the benchmark's timings.

On a shared host the CPU's own speed drifts.  On the 2-vCPU host this
benchmark was defined on, the same 300 analyses took 0.80-1.24 s from one
second to the next (CPU time tracking wall time), and 10-run medians of
unchanged code moved by up to 20% between sets taken minutes apart.  No
statistic inside one run removes that.  Every run therefore also times a
fixed numpy/scipy reference kernel, which does not touch nusamp, between
ops, and scales each timing to how it would read on a host where the kernel
takes ``REF_NOMINAL_NS``.  The scale of one timing comes from the kernel
samples just before and just after it: over eight-seed sets that tracked the
drift better than one scale per run.  An op that runs for seconds (the
largest schedule search takes 7-10 s) is sampled from inside as well, by a
SIGALRM handler in the same thread, and is scaled by the samples taken
during it; two samples seconds apart tracked its time poorly (IQR/median
0.21 over six seeds, against 0.07 with the samples inside).  The
uncorrected timings are printed as well.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np
import scipy.linalg

REF_EVERY_S = 0.25
# A timed op still running after this long is sampled from inside.
INSIDE_AFTER_S = 1.0
REF_NOMINAL_NS = 1_800_000
_REF_MATRIX = np.random.default_rng(12345).normal(size=(6, 6)) * 0.3


def reference_ns() -> int:
    """Duration of one pass of the reference kernel: small dense linear
    algebra and a Python loop, the instruction mix of a nusamp op."""
    t0 = time.perf_counter_ns()
    for k in range(20):
        m = _REF_MATRIX + 0.01 * k
        np.linalg.svd(m, compute_uv=False)
        scipy.linalg.expm(m)
        np.linalg.eigvals(m)
        sum(i * 0.5 for i in range(50))
    return time.perf_counter_ns() - t0


class HostSpeed:
    """Reference-kernel samples taken throughout one run, with their times."""

    def __init__(self):
        self.samples = []
        self.stamps = []  # perf_counter() at the middle of each sample
        self.last = -math.inf
        self.inside_ns = 0  # time taken by the samples inside timed ops

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_ns())
        self.last = time.perf_counter()
        self.stamps.append((start + self.last) / 2)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than REF_EVERY_S old."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def _sample_inside(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.sample()
        self.inside_ns += time.perf_counter_ns() - start

    @contextlib.contextmanager
    def inside(self):
        """Sample every REF_EVERY_S inside a timed op that runs longer than
        INSIDE_AFTER_S.  The caller takes the growth of ``inside_ns`` out of
        the op's time."""
        previous = signal.signal(signal.SIGALRM, self._sample_inside)
        signal.setitimer(signal.ITIMER_REAL, INSIDE_AFTER_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking a duration from ``start`` to ``end``
        (perf_counter seconds) here to the nominal host: nominal over the
        mean of the samples taken inside the duration or, when there are
        none, of the last one before it and the first one after it."""
        first = bisect.bisect_left(self.stamps, start)
        after = bisect.bisect_left(self.stamps, end)
        if after > first:
            near = self.samples[first:after]
        else:
            near = [self.samples[k] for k in (after - 1, after) if 0 <= k < len(self.samples)]
        return REF_NOMINAL_NS / statistics.fmean(near)

    def describe(self) -> str:
        return (
            f"median {statistics.median(self.samples) / 1e6:.4g} ms over {len(self.samples)} "
            f"samples, nominal {REF_NOMINAL_NS / 1e6:g} ms"
        )
