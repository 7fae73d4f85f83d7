"""Host-speed scaling for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same command takes up to 1.5x longer while the host is busy, and such a
spell can last from seconds to minutes, so medians over a run do not
remove it. While a timed command runs, ``HostSpeed.wait`` wakes every
``INTERVAL_S`` and times one short chunk of a fixed kernel of harness-only
code on the same CPU (the benchmark pins itself and its children to one
CPU). The command's wall time is then scaled by the reference chunk time
over the mean chunk time measured during the command, a time average of
the host's speed. The highest and lowest tenth of the chunks are left out
of the mean, so a chunk that the command preempted does not count. The
kernel never calls imbloss, so a change to the program moves the scaled
times as it moves the raw ones; only the host's drift is divided out. The
chunks take about 2% of the CPU from the command, the same share on every
run. The raw times are printed and stored next to the scaled ones.
"""

from __future__ import annotations

import os
import select
import statistics
import time

# Mean chunk time, measured while a command runs, on the reference host:
# a 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, BLAS at one thread. Scaled
# times read as seconds on that host at that speed.
REFERENCE_CHUNK_S = 0.0008
CHUNK_REPS = 40      # kernel iterations per chunk
INTERVAL_S = 0.05    # between chunks while a command runs


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest tenth of ``values``, and at
    least without the extremes once there are three or more."""
    values = sorted(values)
    cut = max(1, len(values) // 10) if len(values) >= 3 else 0
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    """Times kernel chunks while commands run; see the module doc."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._scores = rng.standard_normal((64, 10))
        self._labels = rng.integers(0, 10, 64)
        self._rows = np.arange(64)
        self._chunk()  # warm-up
        self.chunks: list[float] = []

    def _chunk(self) -> float:
        """A mix like imbloss's hot path: small numpy ops on a 64x10 batch
        (a softmax cross-entropy gradient) and a Python-level loop."""
        np, x, y, rows = self._np, self._scores, self._labels, self._rows
        start = time.perf_counter()
        for _ in range(CHUNK_REPS):
            z = x - x.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[rows, y] -= 1.0
            total = 0.0
            for value in p[0].tolist():
                total += value * value
        return time.perf_counter() - start

    def wait(self, pid: int, start: float):
        """Reap child ``pid`` started at ``start``, timing chunks until it
        exits: (wait4 status, rusage, wall s, wall s at reference speed)."""
        fd = os.pidfd_open(pid)
        try:
            chunks = []
            while not select.select([fd], [], [], INTERVAL_S)[0]:
                chunks.append(self._chunk())
            wall = time.perf_counter() - start
        finally:
            os.close(fd)
        _, status, usage = os.wait4(pid, 0)
        if not chunks:  # ended within one interval
            chunks.append(self._chunk())
        self.chunks += chunks
        return status, usage, wall, \
            wall * REFERENCE_CHUNK_S / trimmed_mean(chunks)

    def factors(self) -> list[float]:
        """Reference over measured time, per chunk: 1 at reference speed,
        below 1 on a slower host."""
        return [REFERENCE_CHUNK_S / c for c in self.chunks]
