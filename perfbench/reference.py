"""Fixed reference work that tracks the host's speed during a run.

The benchmark shares its host.  On the 2-vCPU host it was tuned on, the
host switches between two speeds about once a second, and in the slow one
the same Python and small-matrix numpy code takes 1.7-1.8x as long (dense
BLAS work 1.3-1.5x).  The share of time spent slow drifts from a few
percent to over half within minutes, which moved whole runs by 25-40%.

An untraced run therefore interleaves short slices of fixed reference work
with its checks and times them.  The reference uses the same kinds of
operations as the workload (small numpy matrices under Python loops, BLAS
on dense matrices, JSON and CSV text) but none of evolflow, so a change to
evolflow moves the checks and not the reference.  Each check's latency is
divided by the host factor around it: the mean time of the slice before
and the slice after it, over the slice's nominal time.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20220205)
_SMALL = [0.7 * _RNG.normal(size=(n, n)) for n in (2, 3, 4, 5) for _ in range(3)]
_DENSE = _RNG.normal(size=(200, 200)) / math.sqrt(200.0)
_ROWS = [[float(x) for x in _RNG.normal(size=17)] for _ in range(120)]


def _expm(A):
    """Scaling and squaring around a Pade(6, 6) approximant."""
    nrm = float(np.abs(A).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(nrm / 0.5))) if nrm > 0.5 else 0
    A = A / 2.0 ** s
    eye = np.eye(A.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (eye + A2 / 20.0 + A4 / 840.0 + A6 / 60480.0)
    V = eye + A2 * (3.0 / 10.0) + A4 / 168.0 + A6 / 11880.0
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def small_matrix() -> float:
    """Exponentials, determinants and entry loops on 2x2 to 5x5 matrices."""
    acc = 0.0
    for _ in range(10):
        for A in _SMALL:
            S = 0.5 * (A - A.T)
            E = _expm(S)
            acc += float(np.linalg.norm(E.T @ E - np.eye(len(E)), ord="fro"))
            acc += float(np.linalg.det(_expm(A)))
            acc += sum(abs(x) for x in E.ravel().tolist())
    return acc


def dense() -> float:
    """Exponentials, solves and determinants of one 200x200 matrix."""
    acc = 0.0
    for _ in range(2):
        E = _expm(_DENSE)
        F = np.linalg.solve(E, _DENSE @ E)
        sign, logdet = np.linalg.slogdet(E)
        acc += float(np.abs(F).sum()) + sign * logdet
    return acc


def text() -> float:
    """JSON encode and decode and CSV writing of a few thousand floats."""
    doc = json.loads(json.dumps({"samples": [{"t": r[0], "real": r[1:]} for r in _ROWS]}))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for sample in doc["samples"]:
        writer.writerow([sample["t"], *sample["real"]])
    return float(len(buf.getvalue()))


class HostSpeed:
    """Reference slices run between checks, at least `every_s` seconds apart."""

    def __init__(self, kernels, nominal_s: float, every_s: float, clock=time.perf_counter):
        self.kernels = kernels
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.clock = clock
        self.starts = []     # slice start times, increasing
        self.slices = []     # slice durations
        self._last = clock()

    def sample(self) -> None:
        start = self.clock()
        for kernel in self.kernels:
            kernel()
        end = self.clock()
        self.starts.append(start)
        self.slices.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        if self.clock() - self._last >= self.every_s:
            self.sample()

    def factor_at(self, start: float, end: float) -> float:
        """Host factor around [start, end]: above 1 while the host runs slow.

        The mean of the last slice begun before `start` and the first begun
        at or after `end`, over the nominal slice time; one of them alone at
        either end of the run.
        """
        i = bisect.bisect_left(self.starts, start) - 1
        j = bisect.bisect_left(self.starts, end)
        near = [self.slices[k] for k in (i, j) if 0 <= k < len(self.slices)]
        return statistics.fmean(near) / self.nominal_s

    def scaled(self, start: float, seconds: float) -> float:
        """Seconds at the nominal host speed for work timed from `start`."""
        return seconds / self.factor_at(start, start + seconds)

    def factor(self) -> float:
        """Mean slice time over nominal, over the whole run."""
        return statistics.fmean(self.slices) / self.nominal_s
