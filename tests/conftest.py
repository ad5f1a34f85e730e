import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(f, *args): tracemalloc's peak over a second call of f, in bytes; the first call fills any cache."""

    def peak(f, *args):
        f(*args)
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
