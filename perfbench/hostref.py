"""Host-speed reference: a fixed task timed around every measurement.

The benchmark runs on shared 2-core virtual machines whose speed drifts by
20-40% over minutes as neighbours load the same physical cores, and the
drift hits interpreter-bound code harder than memory-bound code.  On such
a host, wall times of one pass swing more between runs of the same code
than the changes the benchmark must detect.  So each set-up and each pass
is bracketed by a reference task of the same character as the workload,
and the reported time is

    measured time * nominal / mean(reference time before, after)

that is, the time the host would have taken at the reference's nominal
speed.  Raw wall times are printed next to the metrics.

The tasks call no motion_forge code and their inputs are fixed, so no
change to the library can move them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


class HostReference:
    """A reference task of one of two kinds:

    - "mixed": an interpreter-bound loop over small Python objects, einsum
      and norms over a few-MB working set, and small BLAS calls (the
      profile of the codec, the scheduler and the file loaders);
    - "memory": weighted sums streaming tens of MB and a mid-size GEMM
      (the profile of the TP-MoE kernels).

    On the probe host, per-pass times divided by the bracketing reference
    times spread 2-6x less across 15 s windows than raw times (IQR over
    median, six windows of 70 s runs): prefix-long 0.07 against 0.26,
    dataset-pass 0.05 against 0.32 and curriculum-2k 0.12 against 0.24 with
    "mixed"; moe-gen 0.05 against 0.09 with "memory", where "mixed" made it
    worse (0.19).
    """

    # reference time on a quiet host (2-core Intel Xeon VM, Python 3.11,
    # numpy 2.4, one BLAS thread); only a scale, so times read as seconds
    NOMINAL_S = {"mixed": 0.065, "memory": 0.020}

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = self.NOMINAL_S[kind]
        rng = np.random.default_rng(20261017)
        if kind == "mixed":
            self._pairs = [_Pair(float(a), float(b)) for a, b in rng.random((3000, 2))]
            self._points = rng.random((2000, 30, 3))
            self._rots = rng.random((2000, 3, 3))
            self._mat = rng.random((64, 64))
        else:
            self._stack = [rng.random((512, 1024)) for _ in range(6)]
            self._weights = (0.1, 0.2, 0.1, 0.3, 0.2, 0.1)
            self._x = rng.random((48, 512))

    def run(self) -> float:
        """Run the task once; returns its wall time in seconds."""
        t0 = perf_counter()
        if self.kind == "mixed":
            for _ in range(20):
                acc = 0.0
                for p in self._pairs:
                    acc += p.a * p.b
            for _ in range(10):
                np.einsum("tij,tbj->tbi", self._rots, self._points).sum()
                np.linalg.norm(self._points, axis=-1).mean()
            for _ in range(100):
                self._mat @ self._mat
        else:
            for _ in range(2):
                mixed = sum(w * m for w, m in zip(self._weights, self._stack))
                (self._x @ mixed).sum()
        return perf_counter() - t0

    def factor(self, before: float, after: float) -> float:
        """Scale from measured to nominal-host time for a stretch bracketed
        by reference runs of `before` and `after` seconds."""
        return self.nominal / (0.5 * (before + after))
