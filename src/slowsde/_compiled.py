"""Build, cache and load the compiled stepping kernel in _em.c.

The library is built once by the system C compiler with FLAGS and kept in a
per-user cache directory, under a name that carries the sha256 of the
source, the flags and the compiler's `--version` output.  Nothing happens at
import: a Library builds and loads at the first call of `em_poly`.  When no
compiler works, or the library will not load, `em_poly` returns None and
the caller keeps to its NumPy loop.  The kernel is given arrays and numbers
only, never the drift's HornerPlan: see Library.em_poly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SOURCE = Path(__file__).with_name("_em.c")
# FMA contraction and -ffast-math (which also flushes subnormals to zero)
# change bits; -march=native would tie the cached library to one CPU
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# em_poly(out, n, width, coef, n_coef, cdt), as _em.c declares it
ARGTYPES = (ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t,
            ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double)


def default_cache_dir() -> Path:
    """$XDG_CACHE_HOME/slowsde, or ~/.cache/slowsde."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "slowsde"


class Library:
    """The compiled kernel, built by the compiler cc into cache_dir (or,
    when that is not writable, into a temporary directory removed once the
    library is loaded)."""

    def __init__(self, cc: str = "cc", cache_dir: Optional[Path] = None):
        self.cc = cc
        self.cache_dir = cache_dir  # default_cache_dir() at the first use
        self._lock = threading.Lock()
        self._tried = False
        self._step: Optional[Callable] = None

    def em_poly(self) -> Optional[Callable]:
        """step(out, coef, cdt), which steps the chunk out of
        sde._time_major in place by full Horner on coef, the drift's
        coefficient table with one row per step, and cdt = dt/eps; or None
        when the library cannot be built or loaded.  The first call builds
        and loads it; concurrent first calls wait for that one."""
        with self._lock:
            if not self._tried:
                lib = self._load()
                self._step = None if lib is None else _wrap(lib.em_poly)
                self._tried = True
        return self._step

    def path(self) -> Optional[Path]:
        """Where the library is cached, or None without a working cc."""
        import subprocess  # here, so that importing slowsde does not pay
        try:
            version = subprocess.run([self.cc, "--version"], check=True,
                                     capture_output=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        key = hashlib.sha256(SOURCE.read_bytes() + b"\0"
                             + " ".join(FLAGS).encode() + b"\0" + version)
        cache_dir = Path(self.cache_dir or default_cache_dir())
        return cache_dir / f"_em-{key.hexdigest()[:16]}.so"

    def _load(self) -> Optional[ctypes.CDLL]:
        import tempfile
        path = self.path()
        if path is None:
            return None
        try:
            return self._open(path)
        except OSError:  # the cache directory is not writable
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    return self._open(Path(tmp) / path.name)
                except OSError:
                    return None

    def _open(self, path: Path) -> Optional[ctypes.CDLL]:
        """Load path, building it first if it is missing or does not load
        (a truncated file, say); None if the build fails or the rebuilt
        library does not load either.  Raises OSError if path's directory
        is not writable."""
        import subprocess
        import tempfile
        if path.exists():
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                pass
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
        os.close(fd)
        try:
            subprocess.run([self.cc, *FLAGS, "-o", tmp, str(SOURCE)],
                           check=True, capture_output=True)
            os.replace(tmp, path)  # concurrent builds each replace whole
        except (OSError, subprocess.CalledProcessError):
            return None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            return None


def _wrap(fn) -> Callable:
    """The Python side of em_poly: checks what C relies on and passes
    pointers.  ctypes releases the GIL for the call."""
    fn.argtypes = ARGTYPES
    fn.restype = None

    def step(out: np.ndarray, coef: np.ndarray, cdt: float) -> None:
        coef = np.ascontiguousarray(coef, dtype=np.float64)
        if not (out.ndim == 2 and out.dtype == np.float64
                and out.flags.c_contiguous and out.flags.writeable
                and coef.ndim == 2 and coef.shape[0] == out.shape[0] - 1
                and coef.shape[1] >= 1):
            raise ValueError("em_poly: out must be a writeable C-contiguous "
                             "float64 matrix and coef (steps, >= 1)")
        fn(out.ctypes.data, coef.shape[0], out.shape[1], coef.ctypes.data,
           coef.shape[1], cdt)

    return step
