"""Process-wide heap policy: freed NumPy temporaries stay in the heap.

An estimate's large NumPy temporaries (the analytic grid's closure,
the confidence replay's tables, ≈ 0.4–28 MB each) are allocated and
freed on every call.  Under glibc's dynamic thresholds each one either
gets a fresh ``mmap`` or lands at the heap top, which is trimmed back
to the kernel as soon as it is freed -- so the next estimate faults
the same pages in again (≈ 8 500 minor faults per ``oneshot`` step).

:func:`retain_freed_heap` fixes both thresholds once per process:

- ``M_MMAP_THRESHOLD`` = 32 MiB, the ceiling glibc's own dynamic
  threshold climbs to on 64-bit (``DEFAULT_MMAP_THRESHOLD_MAX``), so
  every temporary below it comes from the heap;
- ``M_TRIM_THRESHOLD`` = 64 MiB, twice the largest per-estimate
  transient measured (a 1 000-draw W = 100 replay, ≈ 28 MB of fresh
  pages), so freed temporaries stay mapped for the next estimate.

Both must be set: setting either one switches off glibc's dynamic
adjustment of the other.  The cost is resident memory -- RSS stays
near its high-water mark instead of dropping after each estimate; the
high-water mark itself does not grow.  Off glibc (no libc found, no
``mallopt``, or a refused value) nothing changes.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import logging

logger = logging.getLogger(__name__)

#: ``mallopt`` parameter numbers, from glibc's ``malloc.h``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


@functools.lru_cache(maxsize=None)
def retain_freed_heap() -> bool:
    """Set the two glibc thresholds (once per process).

    Returns whether glibc accepted both values.  Never raises: without
    a libc, without ``mallopt`` or on a refused value it returns False,
    and it logs one DEBUG line either way.
    """
    name = ctypes.util.find_library("c")
    if name is None:
        logger.debug("heap policy not applied: no C library found")
        return False
    try:
        mallopt = ctypes.CDLL(name).mallopt
    except (OSError, AttributeError) as error:
        logger.debug("heap policy not applied: %s", error)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    accepted = (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)
    logger.debug("heap policy %s: mmap threshold %d MiB, trim threshold "
                 "%d MiB", "applied" if accepted else "refused by mallopt",
                 MMAP_THRESHOLD_BYTES >> 20, TRIM_THRESHOLD_BYTES >> 20)
    return accepted
