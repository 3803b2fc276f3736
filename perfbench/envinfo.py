"""The numeric environment a result was measured in.

Two result files compare only when these match: interpreter, numpy, the
BLAS numpy links and how many threads it runs, whether numpy asks for huge
pages and what the kernel does with such requests, and the processor.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Optional

import numpy as np

# symbol names under which the OpenBLAS builds numpy ships report their state
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_",
                   "openblas_get_config")


def _loaded_blas() -> Optional[ctypes.CDLL]:
    """The OpenBLAS library mapped into this process, if there is one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    return ctypes.CDLL(paths[0]) if paths else None


def _call(lib: Optional[ctypes.CDLL], symbols, restype):
    for name in symbols:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _hugepage_madvise() -> object:
    """Whether numpy advises the kernel to back its large arrays with huge pages."""
    multiarray = getattr(getattr(np, "_core", None), "multiarray", None)
    query = getattr(multiarray, "_get_madvise_hugepage", None)
    return bool(query()) if query is not None else "unknown"


def _transparent_hugepages() -> str:
    try:
        return Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text().strip()
    except OSError:
        return "unknown"


def numeric_environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    lib = _loaded_blas()
    threads = _call(lib, _THREAD_SYMBOLS, ctypes.c_int)
    runtime = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_runtime": runtime.decode() if runtime else "unknown",
        "blas_threads": threads if threads is not None else "unknown",
        "numpy_hugepage_madvise": _hugepage_madvise(),
        "transparent_hugepages": _transparent_hugepages(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }
