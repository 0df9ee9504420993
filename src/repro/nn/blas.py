"""Read and set the thread count of the OpenBLAS libraries in this process.

The DDPG networks multiply matrices of at most 64×266, so the threads
OpenBLAS starts by default (one per core) save a tuning session no wall
time, double its CPU, and make concurrent sessions contend for cores.  The
service entry points pin BLAS to one thread per process; parallelism comes
from their session workers and shard processes instead.

Libraries are looked up at call time, never at import: on Linux every
shared object mapped into the process whose file name mentions
``openblas`` is opened with :mod:`ctypes` and probed for the
``openblas_``/``scipy_openblas_`` entry points (plain and ``64_``
suffixed, as ILP64 builds name them).  Where none is found both functions
return ``None`` and change nothing.
"""

from __future__ import annotations

import ctypes
import os
import sys
from typing import Callable, List, Optional, Tuple

__all__ = ["get_blas_threads", "set_blas_threads"]

_PREFIXES = ("openblas_", "scipy_openblas_")
_SUFFIXES = ("", "64_")

#: ``(get_num_threads, set_num_threads)`` of one loaded library.
_Library = Tuple[Callable[[], int], Callable[[int], None]]


def _mapped_openblas_paths() -> List[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    if not sys.platform.startswith("linux"):
        return []
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="surrogateescape") as maps:
            lines = maps.readlines()
    except OSError:
        return []
    paths: List[str] = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


def _thread_functions(library: ctypes.CDLL) -> Optional[_Library]:
    """``library``'s thread-count pair under the first name it exports."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                get = getattr(library, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(library, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


def _find_openblas() -> List[_Library]:
    """The thread-count functions of every OpenBLAS loaded in the process."""
    found: List[_Library] = []
    for path in _mapped_openblas_paths():
        try:
            # Already mapped, so dlopen hands back the loaded copy.
            library = ctypes.CDLL(path)
        except OSError:
            continue
        functions = _thread_functions(library)
        if functions is not None:
            found.append(functions)
    return found


def get_blas_threads() -> Optional[int]:
    """Thread count of the first OpenBLAS loaded, or ``None`` if none is."""
    libraries = _find_openblas()
    if not libraries:
        return None
    return int(libraries[0][0]())


def set_blas_threads(threads: int) -> Optional[int]:
    """Set every loaded OpenBLAS to ``threads`` threads.

    Returns the previous count (as :func:`get_blas_threads` read it), or
    ``None`` without doing anything when no OpenBLAS is loaded.  Forked
    children inherit the setting.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    libraries = _find_openblas()
    if not libraries:
        return None
    previous = int(libraries[0][0]())
    for _, set_threads in libraries:
        set_threads(int(threads))
    return previous
