"""Backend selection for the simulator's event loop.

The event loop in ``_kernels`` is compiled with numba when it is
installed (the ``jit`` extra); without it, or with the environment
variable ``REPLICAST_DISABLE_JIT=1`` set before import, the identical
source runs as plain Python.  The kernel sticks to numba's nopython
subset (numpy Generator arguments, lists, tuples and ``heapq``) so that
it can compile, but the compiled path is untested: the suite has only
run without numba.  ``fastmath`` stays off so that a compiled kernel
does the same floating-point operations.
"""

from __future__ import annotations

import os

_flag = os.environ.get("REPLICAST_DISABLE_JIT", "").strip().lower()
_disabled = _flag in ("1", "true", "yes", "on")

if not _disabled:
    try:
        from numba import njit as _njit
    except ImportError:  # pragma: no cover
        _disabled = True

JIT_ENABLED = not _disabled


def maybe_jit(func):
    if JIT_ENABLED:
        return _njit(cache=True, nogil=True)(func)
    return func
