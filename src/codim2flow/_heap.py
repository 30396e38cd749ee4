"""Hand freed heap memory back to the operating system around the identity sweeps.

glibc keeps freed heap blocks resident, and whether a sweep's multi-MB arrays
fit into the holes earlier calls left depends on the process's layout, so the
same certify/scan/identities loop peaked 25-30 MB higher in some working
directories than in others.  Trimming before and after each sweep removes
that dependence.  Without glibc's malloc_trim the release is a no-op.
"""

from __future__ import annotations

import ctypes
import functools


def release_free_heap() -> None:
    """Return every free page of the C heap to the operating system (glibc only)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim(0)


def releases_heap(fn):
    """Decorator: call release_free_heap() before fn runs and when it returns or raises."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        release_free_heap()
        try:
            return fn(*args, **kwargs)
        finally:
            release_free_heap()
    return wrapper
