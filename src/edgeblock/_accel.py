"""Numba acceleration shim.

Hot kernels live in ``_kernels`` and are written once in nopython-compatible
style, then decorated with :func:`maybe_jit`.  Setting ``EDGEBLOCK_NO_NUMBA=1``
in the environment forces the plain-Python fallback path (same code, no
compilation); the fallback is also selected automatically when numba is not
installed.  Both paths produce bit-identical results.  Nothing here or in
``_kernels`` draws random numbers: every stream is a numpy Generator keyed
in ``seeding``, and cascades run on the plain-numpy live-edge primitive in
``cascade``.
"""

import os

DISABLE_ENV_VAR = "EDGEBLOCK_NO_NUMBA"

_disabled = os.environ.get(DISABLE_ENV_VAR, "").strip().lower() in {"1", "true", "yes"}

try:
    if _disabled:
        raise ImportError("numba disabled via environment flag")
    import numba as _numba

    NUMBA_ENABLED = True
except ImportError:
    _numba = None
    NUMBA_ENABLED = False


def maybe_jit(func):
    """``numba.njit(cache=True, nogil=True)`` when active, identity otherwise."""
    if NUMBA_ENABLED:
        return _numba.njit(cache=True, nogil=True)(func)
    return func
