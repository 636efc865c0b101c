import sys
from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def on_four_threads():
    """Run (function, *args) calls on four threads, switching between them
    as often as the interpreter allows; returns the results in order."""

    def run(calls):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(fn, *args) for fn, *args in calls]
                return [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(interval)

    return run
