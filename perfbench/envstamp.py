"""Process set-up shared by the benchmark's scripts, and the environment
stamp every result carries.

`prepare()` must run before NumPy is imported: it caps the BLAS thread
count at the number of usable cores and puts the checkout's `src/` first
on the import path, so the benchmark measures the sources next to it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no etide sources to measure."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    if not os.path.isfile(os.path.join(SRC, "etide", "__init__.py")):
        raise MissingSource(f"no etide package under {SRC}")
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    cores = nproc()
    for var in _THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, ""))
        except ValueError:
            wanted = 0
        if not 1 <= wanted <= cores:
            os.environ[var] = str(cores)
    sys.path.insert(0, SRC)


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS build loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def stamp(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.special  # noqa: F401  (loads SciPy's own BLAS, if any)

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "nproc": nproc(),
        "machine": platform.machine(),
        "seed": seed,
    }
