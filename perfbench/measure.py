"""Order statistics and the run's environment record."""

from __future__ import annotations

import ctypes
import math
import os
import platform


def percentile(values, q: float, min_above: int = 10):
    """Nearest-rank q-quantile and the number of samples strictly above its rank.

    The k-th smallest value with k = ceil(q N) is returned together with
    N - k.  Raises ValueError when fewer than `min_above` samples lie above
    the rank, since such a tail percentile rests on too few observations.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    xs = sorted(values)
    k = max(1, math.ceil(q * len(xs)))
    above = len(xs) - k
    if above < min_above:
        raise ValueError(
            f"{len(xs)} samples leave {above} above the {q:g} rank; need {min_above}"
        )
    return xs[k - 1], above


def min_samples(q: float, min_above: int = 10) -> int:
    """Fewest samples for which `percentile(values, q, min_above)` succeeds."""
    n = min_above + 1
    while n - max(1, math.ceil(q * n)) < min_above:
        n += 1
    return n


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads():
    # OpenBLAS reports its pool size through a C function; the symbol name
    # depends on how the library was built and suffixed.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    """Interpreter, numpy and BLAS versions, BLAS thread count and nproc."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "nproc": nproc(),
    }
