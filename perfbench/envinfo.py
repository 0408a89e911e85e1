"""Record of the software and hardware a benchmark run measured."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

# OpenBLAS entry points under the symbol prefixes numpy and scipy wheels use.
_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
_CONFIG_SYMBOLS = (
    "openblas_get_config",
    "openblas_get_config64_",
    "scipy_openblas_get_config",
    "scipy_openblas_get_config64_",
)


def _bundled_blas(module) -> list[dict]:
    """OpenBLAS libraries a wheel bundles next to its package, with the
    build string and thread count each reports about itself."""
    libs_dir = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    out = []
    for path in sorted(libs_dir.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        entry = {"library": path.name}
        for symbol in _CONFIG_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                entry["config"] = fn().decode()
                break
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                entry["threads"] = int(fn())
                break
        out.append(entry)
    return out


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _bundled_blas(np), "scipy": _bundled_blas(scipy)},
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
