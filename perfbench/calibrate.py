"""A fixed probe that measures how fast this CPU runs, during the timed call.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent within seconds and between minutes, and CPU time drifts with wall
time, so a raw wall time cannot tell a slower program from a busier host.
``Sampler`` runs a short probe that does not depend on kantcheck every
``INTERVAL_S`` seconds of the timed call, from a ``SIGALRM`` handler, and
records how long each probe took.  The probe time is subtracted from the
call's wall time, and the mean probe time over its nominal ``REF_PROBE_S``
is the slowdown of the host during exactly that call.  ``run.py`` scales
the end-to-end times by it.

The probe mixes the kinds of work the workloads do: interpreted Python
(function calls, float arithmetic, dicts), numpy calls on small arrays
(eigendecomposition and reconstruction of 6x6 Hermitian matrices), a
2k-point vectorised scan, and LAPACK eigendecomposition and reconstruction
of complex Hermitian matrices at d = 48, which tracks the large-dimension
campaign much better than Python work alone does.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Nominal seconds of one probe: about its median on a 2-vCPU "Intel Xeon
# Processor" VM, Python 3.11, numpy 2.4, OpenBLAS 0.3 with one thread.
# Only ratios of measurements to it matter; it sets the scale at which the
# scaled metrics read like raw ones.
REF_PROBE_S = 0.003
INTERVAL_S = 0.1

_RNG = np.random.default_rng(20171010)
_SMALL = [(lambda a: a + a.T)(_RNG.standard_normal((6, 6))) for _ in range(4)]
_LARGE = [(lambda a: a + a.conj().T)(_RNG.standard_normal((48, 48))
                                     + 1j * _RNG.standard_normal((48, 48))) for _ in range(2)]
_GRID = np.linspace(1.0, 2.0, 2001)


def _scalar(x: float, y: int) -> float:
    return math.sqrt(x * x + y) if y > 0 else x


def probe() -> float:
    total = 0.0
    table = {}
    for i in range(4000):
        total += _scalar(i * 0.5, i % 7)
        table[i & 255] = total
    for m in _SMALL:
        for _ in range(5):
            w, v = np.linalg.eigh(m)
            total += float(((v * w) @ v.T)[0, 0])
    total += float((_GRID ** 1.7 - _GRID).max())
    for m in _LARGE:
        w, v = np.linalg.eigh(m)
        total += float(abs(((v * w) @ v.conj().T)[0, 0]))
    return total


def probe_seconds(samples: int) -> list:
    """Seconds of ``samples`` back-to-back probes, after one untimed probe."""
    probe()
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        probe()
        times.append(time.perf_counter() - started)
    return times


def slowdown(times: list) -> float:
    """How many times slower than the reference the CPU ran (mean)."""
    return statistics.fmean(times) / REF_PROBE_S


class Sampler:
    """Probe every ``INTERVAL_S`` seconds of wall time inside the block.

    ``times`` holds each probe's seconds; a probe due while a C call runs
    waits until it returns.  The previous ``SIGALRM`` handler and timer
    are restored on exit.
    """

    def __init__(self):
        self.times = []
        self._previous = None

    def _handler(self, signum, frame):
        started = time.perf_counter()
        probe()
        self.times.append(time.perf_counter() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
