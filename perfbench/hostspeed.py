"""Host-speed probes, and the scaling of operation times to a reference speed.

The benchmark runs on a 2-vCPU VM of a shared host whose speed wanders by up
to 1.5x, in states that last from seconds to minutes.  A wall time measured
there says as much about the neighbours as about the program: ten runs of the
same code spread by 0.15-0.35 (IQR/median) on every time metric, however
long the runs.  So right before each operation the benchmark times a probe,
a fixed piece of its own work that uses the host the way the operation does
(a probe of another kind tracked the host's speed less closely), and scales
the operation's wall time by

    reference / (median of the WINDOW probes around that operation)

``reference`` is the probe's time on this host in its usual state, fixed
below, so a scaled time is the wall time the operation would have taken at
that speed.  The probe does not change when the program does, so a program
that gets faster or slower moves the scaled time by the same share as the
wall time.  The probe runs outside the operation's timed region.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

WINDOW = 5

# ``python -c pass`` in a fresh interpreter: the probe of cold commands and of
# the set-up imports, whose time is interpreter start, imports and page cache.
SPAWN_ARGV = ["-c", "pass"]
SPAWN_REFERENCE_S = 0.060


class EighProbe:
    """Probe of lambda0-scan: ``eigh`` of a fixed 200x200 matrix, the LAPACK
    call that the lambda0 solver makes at 400x400 (about 5 ms)."""

    REFERENCE_S = 0.0042

    def __init__(self):
        m = np.random.default_rng(0).normal(size=(200, 200))
        self.matrix = m + m.T

    def __call__(self) -> float:
        start = time.perf_counter()
        np.linalg.eigh(self.matrix)
        return time.perf_counter() - start


class NumpyLoopProbe:
    """Probe of frame-pipeline: a Python loop of small numpy calls, the shape
    of ``theory_trace``'s per-pixel quadrature (about 10 ms)."""

    REFERENCE_S = 0.0070

    def __init__(self):
        self.x = np.linspace(0.0, 1.0, 48)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += float(np.dot(self.x, np.sin(self.x * i)))
        return time.perf_counter() - start


PROBES = {"lambda0-scan": EighProbe, "frame-pipeline": NumpyLoopProbe}


def scaled(latencies: list[float], probes: list[float], reference: float) -> list[float]:
    """Each latency times reference / (median of the WINDOW probes centred on
    it, shifted inwards at the ends of the run)."""
    n = len(latencies)
    out = []
    for i, latency in enumerate(latencies):
        lo = max(0, min(i - WINDOW // 2, n - WINDOW))
        out.append(latency * reference / statistics.median(probes[lo:lo + WINDOW]))
    return out
