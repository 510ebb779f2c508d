import contextlib
import signal

import pytest


class TimeLimitExceeded(Exception):
    pass


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` fails the test when the block runs longer than
    s seconds.  It interrupts the block with SIGALRM, so it bounds Python
    loops that never return; it works in the main thread only."""

    def on_alarm(signum, frame):
        raise TimeLimitExceeded("block ran past its time limit")

    @contextlib.contextmanager
    def limit(seconds):
        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    return limit
