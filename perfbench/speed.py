"""Machine-speed references measured beside the timed work.

The benchmark's box is shared: its speed drifts by tens of percent in
regimes that last seconds, so raw wall times of two commits taken minutes
apart differ by more than a regression worth catching.  A speedometer
times a fixed reference beside the work, so it samples the same regimes,
and a pass's time is reported at a nominal speed: raw seconds times the
nominal reference time over the mean reference time during the pass.  No
reference calls qmsgap, so no change to the program can speed it up.

- ChunkSpeedometer, for in-process work: a small numpy/Python chunk every
  PERIOD_S seconds from a SIGALRM handler in the main thread (about 1.5%
  of the time, not subtracted).
- ProcessSpeedometer, for cold processes: a fresh interpreter importing
  numpy and scipy.linalg, run before every timed process and after the
  last, never beside one.

Neither is used where the program keeps the other core busy (threaded BLAS
on dense-d8): that slows an in-process reference too, and a scale taken
then would hide the program's own stalls.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.05
# Mean reference times on the 2-core box the baseline was taken on; any
# constants work, since only ratios between commits matter.
NOMINAL_CHUNK_S = 4.0e-4
NOMINAL_PROCESS_S = 0.35

_X = np.linspace(0.0, 1.0, 64)


def reference_chunk() -> None:
    """Interpreter work and small elementwise numpy, no BLAS or LAPACK, so
    that threads the program leaves behind in those libraries do not slow it."""
    y = _X
    for _ in range(100):
        y = np.sqrt(y * y + 1.0) - 0.5 * y
    table = {}
    for k in range(750):
        table[k % 17] = table.get(k % 17, 0) + k * k


def reference_process() -> None:
    subprocess.run(
        [sys.executable, "-c", "import numpy, scipy.linalg"],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class Speedometer:
    """Accumulates reference timings; ``scale(before, after)`` is the factor
    from raw seconds between two ``reading()`` snapshots to nominal ones."""

    nominal_s = 1.0

    def __init__(self):
        self.ref_s = 0.0
        self.refs = 0

    def _time(self, reference) -> None:
        start = time.perf_counter()
        reference()
        self.ref_s += time.perf_counter() - start
        self.refs += 1

    def between_items(self) -> None:
        """Called before each timed item and after the last one."""

    def reading(self) -> tuple[float, int]:
        return self.ref_s, self.refs

    def scale(self, before, after) -> float:
        """Nominal over mean reference time between the readings (over all
        references so far if none fell between)."""
        ref_s, refs = after[0] - before[0], after[1] - before[1]
        if refs == 0:
            ref_s, refs = self.ref_s, self.refs
        return self.nominal_s * refs / ref_s if refs else 1.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class ChunkSpeedometer(Speedometer):
    nominal_s = NOMINAL_CHUNK_S

    def _tick(self, signum, frame):
        reference_chunk()  # untimed: refills the caches the program evicted
        self._time(reference_chunk)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class ProcessSpeedometer(Speedometer):
    nominal_s = NOMINAL_PROCESS_S

    def between_items(self) -> None:
        self._time(reference_process)
