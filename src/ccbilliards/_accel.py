"""Optional numba acceleration for the hot kernels.

The functions in :mod:`ccbilliards._kernels` are compiled with numba's
``@njit`` by default.  Setting the environment variable
``CCBILLIARDS_NUMBA=0`` (or running without numba installed) selects the
pure numpy/Python fallback: the same source is executed uncompiled, so
results agree bit-for-bit up to libm differences.

``benchmarks/bench_kernels.py`` times the two paths against each other.
numba is an optional dependency (the ``jit`` extra).  The kernels pass
3-vectors and side data as homogeneous float tuples, which are in numba's
nopython subset, but the compiled path has not been tested or timed:
every timing recorded for this package is for the fallback.

The batched engine in :mod:`ccbilliards._batch` (the ``find_periodic``
seed sweep) is plain numpy and is never compiled, whatever this flag says;
how it compares with a numba-compiled scalar sweep is unmeasured.
"""

import os

_flag = os.environ.get("CCBILLIARDS_NUMBA", "1").strip().lower()
NUMBA_REQUESTED = _flag not in ("0", "false", "off", "no")

NUMBA_ENABLED = False
_njit = None
if NUMBA_REQUESTED:
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - exercised via env flag instead
        NUMBA_ENABLED = False


def jit_kernel(func):
    """Compile ``func`` with numba when enabled, else return it unchanged."""
    if NUMBA_ENABLED:
        return _njit(cache=True)(func)
    return func
