"""Freed C-heap memory goes back to the operating system around the identity sweeps."""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from codim2flow import _heap, identities


def _has_malloc_trim():
    try:
        return hasattr(ctypes.CDLL(None), "malloc_trim")
    except (OSError, TypeError):
        return False


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


@pytest.mark.skipif(not _has_malloc_trim() or not Path("/proc/self/statm").exists(),
                    reason="needs glibc's malloc_trim and /proc")
def test_release_free_heap_returns_resident_holes():
    # Freeing one mapped 24 MB array raises glibc's mmap threshold, so the 8 MB
    # arrays below come from the heap.  The five freed ones stay resident:
    # together they are below the trim threshold, and the live one may pin them.
    np.ones(3 << 20)
    arrays = [np.ones(1 << 20) for _ in range(6)]
    del arrays[:-1]
    before = _rss_mb()
    _heap.release_free_heap()
    assert before - _rss_mb() >= 30


def test_releases_heap_runs_before_and_after_return_and_raise(monkeypatch):
    calls = []
    monkeypatch.setattr(_heap, "release_free_heap", lambda: calls.append(1))

    @_heap.releases_heap
    def f(x):
        """Doc."""
        if x < 0:
            raise ValueError(x)
        return 2 * x

    assert (f(3), f.__name__, f.__doc__, calls) == (6, "f", "Doc.", [1, 1])
    with pytest.raises(ValueError):
        f(-1)
    assert calls == [1, 1, 1, 1]


def test_identity_report_releases_the_heap_around_each_sweep(monkeypatch):
    calls = []
    monkeypatch.setattr(_heap, "release_free_heap", lambda: calls.append(1))
    assert identities.identity_report(0, 100)["pass"]
    assert len(calls) == 6
