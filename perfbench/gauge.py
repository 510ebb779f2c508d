"""Machine-speed gauge for a noisy shared host.

On a shared 2-core machine the speed of the same code drifts by 20-30% over
minutes as neighbours come and go, and most of that drift is common to all
code.  The gauge times a fixed calibration chunk (Python bytecode, small numpy
calls and a 2500-point convolution; about 3 ms) every PERIOD_S of wall time,
from a SIGALRM handler in the main thread (no extra thread or process).  A
time measured while the gauge is open, scaled by
``CAL_REF_S / mean(chunk time)``, is that time at the reference speed.  The
benchmark reports the scaled value next to the raw one.

Python runs signal handlers between bytecodes, so during a long numpy call
the next sample waits until the call returns.  What the gauge cannot remove
is a per-process effect: the same deterministic oracle pass can run ~10%
slower in one process than in another, steadily for the process's life.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
EDGE_SAMPLES = 5  # taken on entry and on exit, outside the caller's timing
# about one calibration chunk on the 2-core Xeon the baseline was measured on
# (Python 3.11, numpy 2.4); any constant would do, it only fixes the unit of
# the scaled times, and changing it rescales every recorded wall_ref_s/setup_s
CAL_REF_S = 0.003

_ARR = np.arange(20_000, dtype=np.float64) * 1e-3
_KER = np.exp(-_ARR[:2_500])


def calibration_chunk():
    s = 0
    for i in range(20_000):
        s += i * i
    np.sqrt(np.exp(-_ARR)).sum()
    np.sort(_ARR[::-1])
    np.convolve(_KER, _KER)
    return s


def time_chunk():
    t0 = time.perf_counter()
    calibration_chunk()
    return time.perf_counter() - t0


class Gauge:
    """Context manager that samples the machine's speed while it is open.

    ``spent`` is the wall time the samples took; subtract it from a wall
    time measured around the block."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(time_chunk())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.sample_now(EDGE_SAMPLES)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample_now(EDGE_SAMPLES)
        return False

    def sample_now(self, n):
        """Take n samples at once (around work too short for the timer)."""
        for _ in range(n):
            self.samples.append(time_chunk())

    def scale(self):
        """Factor from this block's times to reference-speed times."""
        return CAL_REF_S / statistics.fmean(self.samples)
