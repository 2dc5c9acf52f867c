"""Host-speed calibration for the benchmark's untraced runs.

On a shared host the speed of a vCPU drifts by tens of percent over a few
seconds, and whole minutes run faster or slower than others.  Taking the
fastest or the median repetition removes short hiccups but not that drift.
So an untraced run times a fixed calibration kernel, which uses none of
phs-forge's code, every ``period`` seconds while the program runs (from a
SIGALRM handler, so between two bytecodes of the main thread), and once
before and after that phase.  The program's time between two
calibrations is scaled by ``reference_s / mean(kernel time of the two)``:
the time it would have taken at the speed where the kernel takes
``reference_s``.  Calibration time itself is left out of every interval.
(Fresh-interpreter imports are not scaled: their time follows the loader
and the file system more than CPU speed, and scaling made them noisier.)

Each workload gets the kernel whose work is most like its own: exact
rational arithmetic for ``verify-suite``, small sparse steps driven from a
Python loop for ``sim-1d``, and triangular solves with a large sparse LU
factor for ``sim-2d``.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _laplacian_1d(n: int):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csc")


class FractionKernel:
    """Sums of products of small fractions: bigint gcd and normalisation,
    as in phs-forge's Poly arithmetic."""

    def __init__(self, terms: int = 1000):
        self.terms = terms

    def __call__(self) -> None:
        total = Fraction(0)
        for i in range(1, self.terms):
            total += Fraction(i, i + 7) * Fraction(3, i + 1)


class DispatchKernel:
    """Many cheap sparse steps from a Python loop: a matvec, an LU solve
    and a few reductions on a 1D system of a few hundred unknowns."""

    def __init__(self, n: int = 400, steps: int = 250):
        self.matrix = (_laplacian_1d(n) + sp.identity(n, format="csc")).tocsc()
        self.lu = spla.splu(self.matrix)
        self.x0 = np.linspace(0.0, 1.0, n)
        self.steps = steps

    def __call__(self) -> None:
        x = self.x0
        for _ in range(self.steps):
            y = self.matrix @ x
            x = self.lu.solve(y + 0.5 * x)
            float(x @ y)
            np.abs(x).max()


class SparseSolveKernel:
    """A triangular solve with the LU factor of a 2D grid Laplacian: memory
    traffic through a factor of about 2M entries, as in a large implicit
    step.  A factor that fits in cache tracks the program's speed badly:
    with a 96x96 grid the scaled step time still drifted by 7% (s.d. over
    1-second windows), with 160x160 by 2%."""

    def __init__(self, n: int = 160, solves: int = 1):
        lap, eye = _laplacian_1d(n), sp.identity(n, format="csc")
        matrix = (sp.kron(eye, lap) + sp.kron(lap, eye) + 0.1 * sp.identity(n * n)).tocsc()
        self.lu = spla.splu(matrix)
        self.rhs = np.ones(n * n)
        self.solves = solves

    def __call__(self) -> None:
        for _ in range(self.solves):
            self.lu.solve(self.rhs)


# Kernel per workload, and the kernel's time at the reference speed (the
# median measured on a 2-vCPU Intel Xeon VM when the benchmark was written).
# The reference only sets the scale of the reported seconds.
KERNELS = {
    "verify-suite": (FractionKernel, 8.0e-3),
    "sim-1d": (DispatchKernel, 8.0e-3),
    "sim-2d": (SparseSolveKernel, 8.0e-3),
}


class SpeedSampler:
    """Calibration events on one time line, and intervals scaled by them."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.events = []  # (start, end) of each kernel run
        self._busy = False
        self._knots = None

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            started = perf_counter()
            self.kernel()
            self.events.append((started, perf_counter()))
            self._knots = None
        finally:
            self._busy = False

    def periodic(self, period_s: float):
        return _Periodic(self, period_s)

    def kernel_times(self) -> list:
        return [end - start for start, end in self.events]

    def _build(self):
        """Knots of the cumulative program time (wall) and scaled time."""
        times, wall, scaled = [], [], []
        cost = self.kernel_times()
        w = s = 0.0
        for k, (start, end) in enumerate(self.events):
            if k:
                gap = start - self.events[k - 1][1]
                w += gap
                s += gap * self.reference_s / ((cost[k - 1] + cost[k]) / 2)
            times += [start, end]
            wall += [w, w]
            scaled += [s, s]
        self._knots = (np.array(times), np.array(wall), np.array(scaled))

    def _at(self, column: int, t: float) -> float:
        if self._knots is None:
            self._build()
        times = self._knots[0]
        if not times[0] <= t <= times[-1]:
            raise ValueError("interval outside the calibrated time line")
        return float(np.interp(t, times, self._knots[column]))

    def wall(self, interval) -> float:
        """Seconds of program time in ``(start, end)``, calibrations left out."""
        start, end = interval
        return self._at(1, end) - self._at(1, start)

    def scaled(self, interval) -> float:
        """Seconds the interval would have taken at the reference speed."""
        start, end = interval
        return self._at(2, end) - self._at(2, start)

    def summary(self) -> dict:
        cost = self.kernel_times()
        q1, q2, q3 = statistics.quantiles(cost, n=4) if len(cost) > 1 else (cost[0],) * 3
        return {"kernel_ms.median": q2 * 1e3, "kernel_ms.iqr_share": (q3 - q1) / q2,
                "kernel_runs": len(cost)}


class _Periodic:
    """Runs the sampler's kernel every ``period_s`` of wall time, from a
    SIGALRM handler, and once on entry and on exit."""

    def __init__(self, sampler: SpeedSampler, period_s: float):
        self.sampler = sampler
        self.period_s = period_s
        self._previous = None

    def _handler(self, signum, frame):
        self.sampler.calibrate()

    def __enter__(self):
        self.sampler.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self.sampler

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sampler.calibrate()
        return False
