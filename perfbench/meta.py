"""Run metadata: cores, library versions, commit and BLAS threads.

The BLAS thread counts are read, never set: users inherit the default, and
the benchmark must see what they see.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Thread-count getter of the OpenBLAS copy bundled with NumPy (64-bit
# integer build) and with SciPy, keyed by the wheel's library directory.
OPENBLAS_GETTERS = {
    "numpy.libs": ("numpy", "scipy_openblas_get_num_threads64_"),
    "scipy.libs": ("scipy", "scipy_openblas_get_num_threads"),
}


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _loaded_openblas() -> list[str]:
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def openblas_threads() -> dict[str, int | None]:
    """Thread count of each bundled OpenBLAS copy, read through ctypes."""
    out: dict[str, int | None] = {owner: None for owner, _ in OPENBLAS_GETTERS.values()}
    for path in _loaded_openblas():
        for directory, (owner, symbol) in OPENBLAS_GETTERS.items():
            getter = getattr(ctypes.CDLL(path), symbol, None) if directory in path else None
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                out[owner] = int(getter())
    return out


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout at ``root``, read from its files, or None."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def collect(root: Path, cv_jobs: int | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cv_jobs": cv_jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "openblas_threads": openblas_threads(),
    }
