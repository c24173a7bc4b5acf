"""Build, cache and load the compiled kernels of _em.c.

The library is built once by the system C compiler with FLAGS and kept in a
per-user cache directory, under a name that carries the sha256 of the
source, the flags and the compiler's `--version` output.  Nothing happens at
import: LIBRARY, the one Library of the process, builds and loads at the
first call of its `get`.  Callers read LIBRARY at each call, so a test can
swap it.  When no compiler works, or the library will not load, every
kernel is None and each caller keeps to its NumPy or Python code, which the
kernel equals bit for bit and byte for byte.

ARGTYPES declares every exported function, and _WRAPPERS gives each one
its Python side, which checks what C relies on (dtype, shape, contiguity,
writeability) and raises ValueError before the call.  The kernels are given
arrays and numbers only; ctypes releases the GIL for each call.

  em_poly    Euler-Maruyama steps of a polynomial drift, path by path and
             in place over the increments, with the freezing at |x| > d
             (sde.em_batch)
  zeta_scan  the zeta recurrence z = z*E + w (envelope._scan_rates)
  zeta_rate  the rates m of that recurrence along rows of a path: cubic
             Hermite values and df/dx on the refined grid (envelope._rates)
  rk4_poly   RK4 rows of a polynomial drift (deterministic._rk4_rows)
  fmt_g17    %.17g CSV rows of a finite table (envelope.write_csv)
  philox_normal  Philox4x64-10 standard normals, as NumPy draws them
                 (noise.fill_increments)
  first_outside  each row's first node outside two bounds
                 (exits.first_exit_batch, exits.delay_times_batch)
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

_P, _N, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
# name: (argtypes, restype), as _em.c declares them
ARGTYPES = {
    # em_poly(out, rows, n, ld, coef, n_coef, cdt, cns, d, trunc, t0, dt, k0)
    "em_poly": ((_P, _N, _N, _N, _P, _N, _D, _D, _D, _P, _D, _D, _N), None),
    # zeta_scan(zeta, nodes, rows, e, w, substeps)
    "zeta_scan": ((_P, _N, _N, _P, _P, _N), None),
    # rk4_poly(out, rows, n, ld, h, c0, c1, c2, n_coef, inv, start, d, left)
    "rk4_poly": ((_P, _N, _N, _N, _P, _P, _P, _P, _N, _D, _P, _D, _P),
                 None),
    # fmt_g17(buf, cap, a, rows, cols)
    "fmt_g17": ((_P, _N, _P, _N, _N), _N),
    # philox_normal(out, rows, n, ld, state, scale)
    "philox_normal": ((_P, _N, _N, _N, _P, _D), None),
    # first_outside(x, rows, cols, ld, g1, g2, skip, first, side)
    "first_outside": ((_P, _N, _N, _N, _P, _P, _P, _P, _P), None),
    # zeta_rate(m, x, rows, n, ld, h, cf, n_cf, cd, n_cd, herm, substeps,
    #           eps, skip)
    "zeta_rate": ((_P, _P, _N, _N, _N, _P, _P, _N, _P, _N, _P, _N, _D, _P),
                  None),
}
# uint64 words of one Philox stream's state in philox_normal, the fields of
# NumPy's philox_state: counter[4], key[2], buffer[4] and buffer_pos
PHILOX_WORDS = 11
# rows fmt_g17 formats per call (write_csv hands it blocks of this many),
# and the bytes it may take per value: %.17g needs at most 24
# ("-1.2345678901234567e-308", _em.c's G17_LEN), plus the separator
FMT_BLOCK_ROWS = 4096
FMT_VALUE_BYTES = 25


def default_cache_dir() -> Path:
    """$XDG_CACHE_HOME/slowsde, or ~/.cache/slowsde."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "slowsde"


class Library:
    """The compiled kernels, built by the compiler cc into cache_dir (or,
    when that is not writable, into a temporary directory removed once the
    library is loaded).  cc=None stands for no compiler: every kernel is
    None."""

    def __init__(self, cc: Optional[str] = "cc",
                 cache_dir: Optional[Path] = None):
        self.cc = cc
        self.cache_dir = cache_dir  # default_cache_dir() at the first use
        self._lock = threading.Lock()
        self._kernels: Optional[dict] = None

    def get(self, name: str) -> Optional[Callable]:
        """The checked kernel name of ARGTYPES, or None when the library
        cannot be built or loaded.  The first call builds and loads it;
        concurrent first calls wait for that one."""
        with self._lock:
            if self._kernels is None:
                lib = self._load()
                self._kernels = {} if lib is None else {
                    n: _WRAPPERS[n](_declare(lib, n)) for n in ARGTYPES}
        return self._kernels.get(name)

    def path(self) -> Optional[Path]:
        """Where the library is cached, or None without a working cc."""
        import subprocess  # here, so that importing slowsde does not pay
        if self.cc is None:
            return None
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
            lib = self._open(path)
        except OSError:  # the cache directory is not writable
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    return self._open(Path(tmp) / path.name)
                except OSError:
                    return None
        if lib is not None:
            _prune(path)
        return lib

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


# the library of this process, built and loaded on first use
LIBRARY = Library()


def _prune(path: Path) -> None:
    """Remove the builds of other sources, flags or compilers in path's
    directory that are older than path, the build just loaded.  A process
    that has one of them loaded keeps it (unlinking a loaded library is safe
    on Linux); a newer one, of a checkout in use beside this one, stays."""
    try:
        mtime = path.stat().st_mtime_ns
        others = [p for p in path.parent.glob("_em-*.so") if p != path]
    except OSError:
        return
    for other in others:
        try:
            if other.stat().st_mtime_ns < mtime:
                other.unlink()
        except OSError:
            pass


def _declare(lib: ctypes.CDLL, name: str):
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = ARGTYPES[name]
    return fn


def _need(ok: bool, name: str, what: str) -> None:
    if not ok:
        raise ValueError(f"{name}: {what}")


def _array(a, ndim: int, dtype=np.float64, writeable: bool = False) -> bool:
    """a is a C-contiguous ndarray of ndim and dtype (and writeable)."""
    return (isinstance(a, np.ndarray) and a.ndim == ndim and a.dtype == dtype
            and a.flags.c_contiguous and (a.flags.writeable or not writeable))


_ITEM = np.dtype(np.float64).itemsize


def contiguous_rows(a, writeable: bool = True) -> bool:
    """a is a float64 matrix (writeable, unless writeable is False) whose
    rows are contiguous and do not overlap, so that row i starts
    a.strides[0] // _ITEM values after row 0: the whole of a C-contiguous
    matrix, or a slice of its columns."""
    if not (isinstance(a, np.ndarray) and a.ndim == 2
            and a.dtype == np.float64
            and (a.flags.writeable or not writeable)):
        return False
    rows, cols = a.shape
    return ((cols <= 1 or a.strides[1] == _ITEM)
            and (rows <= 1 or (a.strides[0] % _ITEM == 0
                               and a.strides[0] >= cols * _ITEM)))


def tail_columns(inc, out) -> bool:
    """inc is the view out[:, 1:] of the matrix out: the same rows, from
    out's second column on (or, when that is empty, of its shape)."""
    return (isinstance(inc, np.ndarray) and isinstance(out, np.ndarray)
            and inc.ndim == out.ndim == 2 and inc.dtype == out.dtype
            and out.shape[1] >= 1
            and inc.shape == (out.shape[0], out.shape[1] - 1)
            and (inc.size == 0
                 or (inc.strides == out.strides
                     and inc.ctypes.data == out.ctypes.data + out.strides[1])))


def _em_poly(fn) -> Callable:
    def step(out: np.ndarray, coef: np.ndarray, cdt: float, cns: float,
             d: float, trunc: np.ndarray, t0: float, dt: float,
             k0: int) -> None:
        """Step the rows of out (rows, n + 1) in place by Euler-Maruyama
        from column 0 on the increments in columns 1.., which the path
        replaces.  Full Horner on coef, the drift's coefficient table with
        one row per step, with cdt = dt/eps and cns = sigma/sqrt(eps).  Rows
        that leave |x| <= d freeze as sde._freeze freezes them, with trunc
        (rows,) updated in place and the grid t0 + dt * k from node k0.
        Each row of out must be contiguous; the rows may be a column slice
        of a larger matrix."""
        rows, cols = np.shape(out) if np.ndim(out) == 2 else (0, 0)
        _need(contiguous_rows(out) and cols >= 1, "em_poly", "out must be a "
              "writeable float64 (rows, n + 1) whose rows are contiguous and "
              "do not overlap")
        _need(_array(coef, 2) and coef.shape[0] == cols - 1
              and coef.shape[1] >= 1 and _array(trunc, 1, writeable=True)
              and trunc.shape == (rows,), "em_poly",
              "coef must be a C-contiguous float64 (n, >= 1) and trunc a "
              "writeable C-contiguous float64 (rows,)")
        fn(out.ctypes.data, rows, cols - 1, out.strides[0] // _ITEM,
           coef.ctypes.data, coef.shape[1], cdt, cns, d, trunc.ctypes.data,
           t0, dt, k0)

    return step


def _zeta_scan(fn) -> Callable:
    def scan(zeta: np.ndarray, e: np.ndarray, w: np.ndarray,
             substeps: int) -> None:
        """Fill rows 1.. of zeta (nodes, rows) from its row 0 by substeps
        steps z = z*e + w per node, e and w ((nodes - 1) * substeps,
        rows)."""
        nodes, rows = np.shape(zeta) if np.ndim(zeta) == 2 else (0, 0)
        _need(_array(zeta, 2, writeable=True) and nodes >= 1
              and substeps >= 1 and _array(e, 2) and _array(w, 2)
              and e.shape == w.shape == ((nodes - 1) * substeps, rows),
              "zeta_scan", "zeta must be a writeable C-contiguous float64 "
              "(nodes, rows) and e, w C-contiguous float64 "
              "((nodes - 1) * substeps, rows)")
        fn(zeta.ctypes.data, nodes, rows, e.ctypes.data, w.ctypes.data,
           substeps)

    return scan


def _rk4_poly(fn) -> Callable:
    def rk4(out: np.ndarray, h: np.ndarray, tables: tuple, inv: float,
            start: np.ndarray, d: float) -> np.ndarray:
        """Step the rows of out (rows, n + 1) in place, step j by h[j] on
        the coefficient tables (n, n_coef) at t, t + h/2 and t + h, and
        return per row the step that left |x| <= d, or n.  Each row of out
        must be contiguous; the rows may be a strided view."""
        rows, cols = np.shape(out) if np.ndim(out) == 2 else (0, 0)
        n = cols - 1
        _need(contiguous_rows(out) and n >= 0, "rk4_poly", "out must be a "
              "writeable float64 (rows, n + 1) whose rows are contiguous and "
              "do not overlap")
        _need(_array(h, 1) and h.shape == (n,) and len(tables) == 3
              and all(_array(c, 2) and c.shape[0] == n and c.shape[1] >= 1
                      and c.shape == tables[0].shape for c in tables)
              and _array(start, 1, np.intp) and start.shape == (rows,),
              "rk4_poly", "h must be a C-contiguous float64 (n,), the "
              "tables three C-contiguous float64 (n, >= 1) and start a "
              "C-contiguous intp (rows,)")
        left = np.empty(rows, dtype=np.intp)
        fn(out.ctypes.data, rows, n, out.strides[0] // _ITEM, h.ctypes.data,
           *(c.ctypes.data for c in tables), tables[0].shape[1], inv,
           start.ctypes.data, d, left.ctypes.data)
        return left

    return rk4


def _fmt_g17(fn) -> Callable:
    def write(fh, table: np.ndarray) -> None:
        """Write the rows of table (rows, cols) to the binary file fh as
        %.17g, comma-separated and newline-terminated, FMT_BLOCK_ROWS rows
        at a time through one buffer, with the bytes of Python's
        format(v, ".17g") under any locale.  A non-finite value raises
        before anything is written: C formats finite values only."""
        _need(_array(table, 2) and table.shape[1] >= 1, "fmt_g17",
              "table must be a C-contiguous float64 (rows, >= 1)")
        _need(bool(np.isfinite(table).all()), "fmt_g17",
              "table must be finite")
        rows, cols = table.shape
        buf = np.empty(min(rows, FMT_BLOCK_ROWS) * cols * FMT_VALUE_BYTES,
                       dtype=np.uint8)
        for lo in range(0, rows, FMT_BLOCK_ROWS):
            block = table[lo:lo + FMT_BLOCK_ROWS]
            size = fn(buf.ctypes.data, buf.size, block.ctypes.data,
                      len(block), cols)
            if size < 0:
                raise RuntimeError("fmt_g17: a row outgrew its buffer")
            fh.write(buf[:size])

    return write


def _philox_normal(fn) -> Callable:
    def fill(out: np.ndarray, state: np.ndarray, scale: float) -> None:
        """Fill each row of out (rows, n) with the next n standard normals
        of the Philox stream in the same row of state (rows, PHILOX_WORDS),
        each times scale, and advance state past them: the bits of
        Generator(Philox).standard_normal(out=row) followed by row *= scale.
        Each row of out must be contiguous; the rows may be a column slice
        of a larger matrix."""
        _need(contiguous_rows(out), "philox_normal", "out must be a "
              "writeable float64 (rows, n) whose rows are contiguous and do "
              "not overlap")
        rows, n = out.shape
        _need(_array(state, 2, np.uint64, writeable=True)
              and state.shape == (rows, PHILOX_WORDS), "philox_normal",
              f"state must be a writeable C-contiguous uint64 (rows, "
              f"{PHILOX_WORDS})")
        fn(out.ctypes.data, rows, n, out.strides[0] // _ITEM,
           state.ctypes.data, scale)

    return fill


def _first_outside(fn) -> Callable:
    def scan(x: np.ndarray, g1: np.ndarray, g2: np.ndarray,
             skip: Optional[np.ndarray] = None) -> tuple:
        """Per row of x (rows, cols), the first column k with x <= g1[k]
        (side -1) or else x >= g2[k] (side 1): (first, side), an intp and
        an int8 (rows,), with -1 and 0 for a row that stays inside and for
        a row whose skip (a bool (rows,), or None for none) is set, which is
        not read.  Each row of x must be contiguous; the rows may be a
        column slice of a larger matrix."""
        _need(contiguous_rows(x, writeable=False), "first_outside",
              "x must be a float64 (rows, cols) whose rows are contiguous "
              "and do not overlap")
        rows, cols = x.shape
        _need(_array(g1, 1) and _array(g2, 1)
              and g1.shape == g2.shape == (cols,), "first_outside",
              "g1 and g2 must be C-contiguous float64 (cols,)")
        _need(skip is None or (_array(skip, 1, np.bool_)
                               and skip.shape == (rows,)), "first_outside",
              "skip must be None or a C-contiguous bool (rows,)")
        first = np.empty(rows, dtype=np.intp)
        side = np.empty(rows, dtype=np.int8)
        fn(x.ctypes.data, rows, cols, x.strides[0] // _ITEM, g1.ctypes.data,
           g2.ctypes.data, None if skip is None else skip.ctypes.data,
           first.ctypes.data, side.ctypes.data)
        return first, side

    return scan


def _zeta_rate(fn) -> Callable:
    def rates(x: np.ndarray, h: np.ndarray, cf: np.ndarray, cd: np.ndarray,
              herm: np.ndarray, eps: float, skip: np.ndarray) -> np.ndarray:
        """The rates m ((n * substeps), rows), step-major, of the zeta
        recurrence along the rows of x (rows, n + 1): cells h (n,), the
        drift's coefficients cf (n + 1, >= 1) at the nodes and df/dx's cd
        (n * substeps + 1, >= 1) at the refined nodes, the Hermite weights
        herm (4, substeps), and NaN on the first skip[i] cells of row i,
        skip an intp (rows,) in [0, n].  Each row of x must be contiguous;
        the rows may be a strided view."""
        rows, cols = np.shape(x) if np.ndim(x) == 2 else (0, 0)
        n = cols - 1
        _need(contiguous_rows(x, writeable=False) and n >= 0, "zeta_rate",
              "x must be a float64 (rows, n + 1) whose rows are contiguous "
              "and do not overlap")
        substeps = herm.shape[1] if _array(herm, 2) else 0
        _need(_array(h, 1) and h.shape == (n,) and _array(herm, 2)
              and herm.shape[0] == 4 and substeps >= 1
              and _array(cf, 2) and cf.shape[0] == n + 1 and cf.shape[1] >= 1
              and _array(cd, 2) and cd.shape[0] == n * substeps + 1
              and cd.shape[1] >= 1, "zeta_rate",
              "h must be a C-contiguous float64 (n,), herm (4, >= 1), cf "
              "(n + 1, >= 1) and cd (n * substeps + 1, >= 1)")
        _need(_array(skip, 1, np.intp) and skip.shape == (rows,)
              and bool(np.all((skip >= 0) & (skip <= n))), "zeta_rate",
              "skip must be a C-contiguous intp (rows,) in [0, n]")
        m = np.empty((n * substeps, rows))
        fn(m.ctypes.data, x.ctypes.data, rows, n, x.strides[0] // _ITEM,
           h.ctypes.data, cf.ctypes.data, cf.shape[1], cd.ctypes.data,
           cd.shape[1], herm.ctypes.data, substeps, eps, skip.ctypes.data)
        return m

    return rates


_WRAPPERS = {"em_poly": _em_poly, "zeta_scan": _zeta_scan,
             "rk4_poly": _rk4_poly, "fmt_g17": _fmt_g17,
             "philox_normal": _philox_normal,
             "first_outside": _first_outside, "zeta_rate": _zeta_rate}
