import contextlib
import faulthandler
import os
import signal
import sys

import pytest

#: a test that has used this much CPU time has hung: it fails, and the run goes on
CPU_LIMIT_S = 300
#: a test still running after this long has hung without burning CPU: its stack is dumped and the run exits with 1
HANG_LIMIT_S = 900
#: a duplicate of the stderr descriptor, which output capturing leaves alone
_HANG_STDERR = pytest.StashKey[int]()


class CPULimitExceeded(BaseException):
    """Raised in a test past CPU_LIMIT_S; not an Exception, so that no ``except Exception``
    in the code under test keeps it."""


def pytest_configure(config):
    config.stash[_HANG_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_HANG_STDERR])


@pytest.fixture(autouse=True)
def hang_limit(pytestconfig):
    """Fail a test inside itself when it passes CPU_LIMIT_S of CPU time, and end the whole run,
    with every thread's stack on stderr, when it passes HANG_LIMIT_S of wall-clock time.

    The CPU limit is ITIMER_VIRTUAL's SIGVTALRM, whose handler raises where the test
    runs; the wall-clock backstop is faulthandler's watchdog thread.  Neither touches
    the SIGALRM of ``time_limit``."""

    def expire(signum, frame):
        raise CPULimitExceeded(f"past the {CPU_LIMIT_S} s CPU limit")

    old = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, CPU_LIMIT_S)
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=pytestconfig.stash[_HANG_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
    signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    signal.signal(signal.SIGVTALRM, old)


@pytest.fixture
def time_limit():
    """time_limit(seconds) is a context manager whose body raises TimeoutError after that long."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"past the {seconds} s alarm")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    return limit
