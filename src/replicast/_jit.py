"""Backend selection for the hot kernels.

Kernels (the event loop in ``_kernels`` and the random streams in
``_rng``) are compiled with numba when it is installed (the ``jit`` extra);
without it they run as plain Python.  Setting the environment
variable ``REPLICAST_DISABLE_JIT=1`` before import selects a pure-Python
fallback that runs the identical source, so results are bit-for-bit the
same on both paths, just slower.  ``fastmath`` stays off on purpose: the
two backends must agree exactly.
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
