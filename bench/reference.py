"""A fixed computation, owned by the benchmark, timed between trace
simulations to follow the speed of a shared CPU.

On a machine shared with other tenants the same simulation can take 0.52 s
or 0.94 s minutes apart.  The reference mixes the two kinds of work the
simulator does (Python objects and dense LP-sized linear algebra), so its
time drifts with the simulator's.  Timings are reported scaled by
NOMINAL_S / (reference time measured next to them): seconds on a machine
where the reference takes NOMINAL_S.
"""

from __future__ import annotations

import time

import numpy as np

# Median reference time measured on the 2-core machine the benchmark was
# written on; only a scale, so a wrong value shifts every run alike.
NOMINAL_S = 0.06


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.random((150, 150)) + 150.0 * np.eye(150)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        table = {}
        for block in range(20):
            rows = []
            for i in range(block * 1000, block * 1000 + 1000):
                t = (i, i * 0.5, None)
                table[i % 251] = t
                rows.append(tuple(float(x) for x in t[:2]))
            rows.sort(key=lambda r: -r[1])
        for _ in range(15):
            np.linalg.inv(self.A)
        return time.perf_counter() - t0
