"""
Host-speed probe for the end-to-end times.

On a shared host, neighbouring tenants slow every instruction stream of
this process by up to 2x for seconds to minutes at a time: on a 2-core VM
(Xeon, 105 MiB L3) the same level-5 Stadler solve took 0.7 s and 1.3 s a
few minutes apart, with CPU time equal to wall time and no steal time, and
the median of 25-second runs spread by 30% over ten runs.  No statistic
over one run removes that, so every sample is paired with this probe, run
right before and right after it.  The probe is a fixed piece of sparse-LU,
NumPy and interpreter work that shares no code with sparseoc, so a change
to the package never moves it.  A sample's wall times are scaled by
PROBE_REF_S / (mean of its two probe times): they read as seconds on a host
where the probe takes PROBE_REF_S, the probe's time on the quiet VM above.
Over the same minutes the scaled solve times moved by 2-4% where the raw
ones moved by 50%.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

PROBE_REF_S = 0.055
_GRID = 48
_STEPS = 40


class HostProbe:
    """Times a fixed workload; each call returns its wall seconds."""

    def __init__(self):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.identity(_GRID)
        lap = sp.kron(eye, t) + sp.kron(t, eye)
        self._matrix = sp.bmat([[lap, lap], [-lap, lap + sp.identity(_GRID ** 2)]],
                               format="csc")
        self._start = np.linspace(0.0, 1.0, self._matrix.shape[0])

    def __call__(self):
        t0 = time.perf_counter()
        lu = splu(self._matrix)
        x = self._start.copy()
        total = 0.0
        for _ in range(_STEPS):
            z = self._matrix @ lu.solve(x)
            x = np.clip(z / (1.0 + np.abs(z).max()), -0.5, 0.5) \
                + 0.1 * self._start
            for v in x[:200]:           # interpreter-bound part
                total += v
        return time.perf_counter() - t0
