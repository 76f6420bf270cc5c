import contextlib
import signal

import pytest


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
