import contextlib
import faulthandler
import os
import signal
import sys

import pytest

#: a test still running after this long has hung: its stack is dumped and the run exits with 1
HANG_LIMIT_S = 300
#: a duplicate of the stderr descriptor, which output capturing leaves alone
_HANG_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_HANG_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_HANG_STDERR])


@pytest.fixture(autouse=True)
def hang_limit(pytestconfig):
    """End the whole run, with every thread's stack on stderr, when a test passes HANG_LIMIT_S.

    faulthandler's watchdog is a thread, so the SIGALRM of ``time_limit`` is untouched."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=pytestconfig.stash[_HANG_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


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
