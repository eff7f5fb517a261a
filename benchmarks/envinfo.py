"""Thread pinning and the environment record that goes with every result."""

import os
import platform

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """One BLAS/OpenMP thread, so the load uses no more threads than the machine has.

    Call before numpy is imported; child processes inherit the setting.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment():
    import numpy

    import ccbilliards

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "NUMBA_ENABLED": ccbilliards.NUMBA_ENABLED,
        "numba_note": ("numba path measured" if ccbilliards.NUMBA_ENABLED else
                       "numba not in use: every number is for the pure-Python "
                       "fallback; the numba path is unmeasured"),
    }
