import sys
import threading
import time

import pytest

from bosonbin.rng import _thread_map


def _scrambled(i: int) -> None:
    # uneven call lengths, so threads finish out of index order
    time.sleep(0.001 * (i * 7 % 3))


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_thread_map_returns_results_in_index_order(threads):
    calls = []
    names = set()

    def fn(i):
        calls.append(i)
        names.add(threading.current_thread().name)
        _scrambled(i)
        return i * i

    assert _thread_map(fn, 30, threads) == [i * i for i in range(30)]
    assert sorted(calls) == list(range(30))  # every index runs, once
    if threads == 1:  # in order, on the caller's thread
        assert calls == list(range(30)) and names == {threading.current_thread().name}
    else:
        assert threading.current_thread().name not in names and len(names) <= threads


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 3])
def test_thread_map_covers_short_ranges(threads, count):
    assert _thread_map(lambda i: -i, count, threads) == [-i for i in range(count)]


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_thread_map_raises_the_lowest_failing_index(threads):
    calls = []

    def fn(i):
        calls.append(i)
        # the later failure comes first in time on more than one thread
        time.sleep(0.02 if i == 5 else 0)
        if i in (5, 6, 11):
            raise ValueError(f"index {i}")
        return i

    with pytest.raises(ValueError, match="^index 5$"):
        _thread_map(fn, 20, threads)
    assert set(range(6)) <= set(calls)  # every index below the failure ran
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("threads", [2, 4])
def test_thread_map_leaves_no_thread_running(threads):
    before = threading.active_count()
    _thread_map(_scrambled, 12, threads)
    with pytest.raises(ZeroDivisionError):
        _thread_map(lambda i: 1 // (i - 3), 12, threads)
    assert threading.active_count() == before


def test_thread_map_loses_no_claim_under_fast_switching():
    # more threads than cores, switching as often as the interpreter allows:
    # a claim taken twice or lost shows as a repeated or missing index
    calls = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = _thread_map(lambda i: calls.append(i) or i, 5000, 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(5000))
    assert sorted(calls) == list(range(5000))
