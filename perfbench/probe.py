"""A fixed probe of the machine's current speed.

The host the benchmark was sized on is shared: its speed moved by up to
75 % between quarter hours (see README.md).  The probe times a fixed mix
of pure Python, numpy and a SuperLU solve that calls no `pstokes` code.
The harness runs it interleaved with the measured work and multiplies its
timings by REFERENCE_S over the probe's median time in the run, giving
seconds of the reference machine: a change to the program moves them as
it moves wall time, a change in the load of the host cancels to the
extent it slows the probe alike.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Probe time on the reference machine (2 cores, Intel Xeon, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread) in a quiet period.  It only sets
# the scale of the figures.
REFERENCE_S = 0.025


class MachineProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        n = 40
        lap = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-n, -1, 0, 1, n], shape=(n * n, n * n))
        self._lu = spla.splu(lap.tocsc())
        self._rhs = rng.random((n * n, 4))
        self._a = rng.random((384, 6, 12))
        self._b = rng.random((384, 12, 12))
        self.times: list[float] = []

    def __call__(self) -> float:
        """Run the probe once; its wall time is recorded and returned."""
        t0 = perf_counter()
        acc = 0
        for i in range(80_000):
            acc += i * i
        for _ in range(30):
            np.einsum("tij,tjk->tik", self._a, self._b).sum()
            self._lu.solve(self._rhs)
        dt = perf_counter() - t0
        self.times.append(dt)
        return dt
