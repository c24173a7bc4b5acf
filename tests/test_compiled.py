"""The compiled library of _em.c: it builds here and the run goes through
each of its kernels; each wrapper refuses arrays C cannot take before
calling it; fmt_g17 writes Python's %.17g bytes; and a missing compiler, a
broken cached library or an unwritable cache directory each fall back
without changing a byte."""

import ctypes
import io
import locale
import math
import os
import sys
import threading
import types
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from slowsde import _compiled, envelope, run_ensemble, sde, standard_pitchfork
from slowsde.cli import cmd_run
from slowsde.sde import em_batch, n_steps_for
from test_cli import SMALL_DELAY, write
from test_montecarlo import approach_path_steps, pinned_config


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A small delay config and the output files of its run through the
    compiled kernel."""
    tmp = tmp_path_factory.mktemp("reference")
    cfg = write(tmp, "cfg.json", SMALL_DELAY)
    assert sde.backend() == "c"
    assert cmd_run(cfg, out=str(tmp / "out")) == 0
    return cfg, outputs(tmp / "out")


def run_with(library, reference, tmp_path, monkeypatch):
    """Run the reference config with library as the process's library, and
    check its output files against the reference's."""
    monkeypatch.setattr(_compiled, "LIBRARY", library)
    cfg, want = reference
    assert cmd_run(cfg, out=str(tmp_path / "out")) == 0
    assert outputs(tmp_path / "out") == want


@pytest.fixture()
def loads(monkeypatch):
    """The paths ctypes.CDLL is asked to load."""
    seen, real = [], ctypes.CDLL

    def counting(name, *args, **kwargs):
        seen.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(_compiled.ctypes, "CDLL", counting)
    return seen


class Spy:
    """A library whose kernels record each call's arguments, then run the
    kernels of library; a kernel named in fail fails the test instead."""

    def __init__(self, library, fail=()):
        self.library, self.fail = library, fail
        self.calls = Counter()
        self.args = []

    def get(self, name):
        fn = self.library.get(name)
        if fn is None:
            return None

        def kernel(*args):
            if name in self.fail:
                pytest.fail(f"{name} was called")
            self.calls[name] += 1
            self.args.append((name, args))
            return fn(*args)

        return kernel


def steps_of(args) -> int:
    """The path-steps of the em_poly calls among a Spy's args: each steps
    the rows of its out (rows, n + 1) by n steps."""
    return sum(out.shape[0] * (out.shape[1] - 1)
               for name, (out, *_) in args if name == "em_poly")


def test_builds_and_steps_run_ensemble(tmp_path, monkeypatch):
    for name in _compiled.ARGTYPES:
        assert _compiled.LIBRARY.get(name) is not None, f"{name} did not build"
    assert sde.backend() == "c"
    spy = Spy(_compiled.LIBRARY)
    monkeypatch.setattr(_compiled, "LIBRARY", spy)
    cfg = pinned_config("delay")
    assert cfg.model.poly is not None
    run_ensemble(cfg)
    path_steps = cfg.n_paths * n_steps_for(cfg.t0, cfg.t_end, cfg.dt)
    assert steps_of(spy.args) == path_steps
    # every increment is drawn by the noise kernel
    assert sum(out.size for name, (out, *_) in spy.args
               if name == "philox_normal") == path_steps
    # the delay tag's scans run in C: the delay strip's in every chunk,
    # and region D's in the chunks that meet its window
    assert spy.calls["em_poly"] < spy.calls["first_outside"] \
        < 2 * spy.calls["em_poly"]
    # the envelope export takes the zeta rates and scans them in blocks of
    # 2048 cells (one row of the standard drift beside its seven coefficient
    # columns), and every CSV of the run, none with a blank cell, is
    # formatted in C, one call per block of FMT_BLOCK_ROWS rows
    assert cmd_run(write(tmp_path, "cfg.json", SMALL_DELAY),
                   out=str(tmp_path / "out")) == 0
    cells = n_steps_for(-1.0, 0.1, 2e-4)
    assert spy.calls["zeta_rate"] == spy.calls["zeta_scan"] \
        == -(-cells // 2048) == 3
    csvs = list((tmp_path / "out").glob("*.csv"))
    rows = [sum(not line.startswith(b"#") for line in p.read_bytes()
                .splitlines()) - 1 for p in csvs]
    assert len(csvs) == 7 and max(rows) > _compiled.FMT_BLOCK_ROWS
    assert spy.calls["fmt_g17"] \
        == sum(-(-r // _compiled.FMT_BLOCK_ROWS) for r in rows)
    # the approach tag steps each path once, up to where it retires, and
    # its post-exit family chunk by chunk beside the paths: the RK4 rows
    # and the zeta rates in C; a retired path draws no more normals
    spy.calls.clear()
    spy.args.clear()
    cfg = pinned_config("approach")
    report = run_ensemble(cfg)
    path_steps = approach_path_steps(cfg, report)
    assert steps_of(spy.args) == path_steps
    assert sum(out.size for name, (out, *_) in spy.args
               if name == "philox_normal") == path_steps
    assert path_steps < cfg.n_paths * n_steps_for(cfg.t0, cfg.t_end, cfg.dt)
    assert 1 < spy.calls["rk4_poly"] < spy.calls["em_poly"]
    assert spy.calls["rk4_poly"] <= spy.calls["zeta_rate"]


@pytest.fixture()
def unreached():
    """wrapped(name): the checked kernel name around a C function that
    fails the test if it is called."""
    def kernel(*args):
        pytest.fail("the kernel was called")

    return lambda name: _compiled._WRAPPERS[name](kernel)


def read_only(shape, dtype=np.float64):
    out = np.zeros(shape, dtype=dtype)
    out.flags.writeable = False
    return out


PATHS, INC, COEF, TRUNC = (np.zeros((3, 6)), np.zeros((3, 5)),
                           np.zeros((5, 4)), np.full(3, math.nan))
TAIL = None  # inc is out[:, 1:], the increments em_poly steps in place


def sharing_out():
    """A path matrix and increments inside it, one column early: any
    overlap but out[:, 1:] itself."""
    out = np.zeros((3, 6))
    return out, out[:, :-1]


@pytest.mark.parametrize("out,inc,coef,trunc", [
    (np.zeros((3, 12))[:, ::2], TAIL, COEF, TRUNC),  # not contiguous
    (np.zeros((6, 3)).T, TAIL, COEF, TRUNC),         # Fortran order
    (read_only((3, 6)), TAIL, COEF, TRUNC),
    (np.zeros((3, 6), dtype=np.float32), TAIL, COEF, TRUNC),
    (PATHS, TAIL, np.zeros((6, 4)), TRUNC),          # one row per node
    (PATHS, TAIL, np.zeros((4, 4)), TRUNC),
    (PATHS, TAIL, np.zeros((5, 0)), TRUNC),          # no coefficient
    (PATHS, TAIL, np.zeros(5), TRUNC),
    (PATHS, TAIL, np.zeros((5, 4), dtype=np.float32), TRUNC),
    (PATHS, TAIL, np.zeros((5, 8))[:, ::2], TRUNC),
    (PATHS, TAIL, [[0.0] * 4] * 5, TRUNC),           # not an ndarray
    (np.zeros((3, 0)), TAIL, np.zeros((0, 4)), TRUNC),
    (PATHS, np.zeros((2, 5)), COEF, TRUNC),
    (*sharing_out(), COEF, TRUNC),
    (PATHS, INC, COEF, TRUNC),                       # apart from out
    (PATHS, TAIL, COEF, read_only(3)),
    (PATHS, TAIL, COEF, np.full(2, math.nan)),
    (PATHS, TAIL, COEF, np.full(3, math.nan, dtype=np.float32)),
    (PATHS, TAIL, COEF, np.full(6, math.nan)[::2]),
    (PATHS, TAIL, COEF, [math.nan] * 3),
], ids=["strided", "fortran", "read-only", "float32", "rows+1", "rows-1",
        "no-columns", "1-d-coef", "float32-coef", "strided-coef",
        "list-coef", "no-nodes", "inc-rows", "inc-in-out", "inc-apart",
        "read-only-trunc", "trunc-length", "float32-trunc", "strided-trunc",
        "list-trunc"])
def test_step_rejects_what_c_cannot_take(unreached, monkeypatch, out, inc,
                                         coef, trunc):
    if inc is TAIL:
        with pytest.raises(ValueError, match="em_poly"):
            unreached("em_poly")(out, coef, 0.5, 0.1, 1.0, trunc, 0.0, 1e-3,
                                 0)
        return
    # em_poly takes no increments of its own: they are out's columns 1..,
    # and em_batch refuses any others before the kernel is reached
    monkeypatch.setattr(_compiled, "LIBRARY",
                        types.SimpleNamespace(get=unreached))
    with pytest.raises(ValueError, match="em_batch"):
        em_batch(standard_pitchfork(), 0.01, 0.1, 0.0, 0.1, 1e-3, inc, 0,
                 trunc, out)
    assert not out.any() and np.isnan(trunc).all()


def test_step_takes_its_workspace_tail(unreached):
    """The cases above differ from this call, which reaches the kernel,
    only in what they name."""
    with pytest.raises(pytest.fail.Exception, match="kernel was called"):
        unreached("em_poly")(np.zeros((3, 6)), COEF, 0.5, 0.1, 1.0, TRUNC,
                             0.0, 1e-3, 0)
    wide = np.zeros((3, 9))[:, :6]  # the row-strided last chunk
    with pytest.raises(pytest.fail.Exception, match="kernel was called"):
        unreached("em_poly")(wide, COEF, 0.5, 0.1, 1.0, TRUNC, 0.0, 1e-3, 0)


ZETA, SUB = np.zeros((5, 3)), np.zeros((16, 3))


@pytest.mark.parametrize("zeta,e,w,substeps", [
    (read_only((5, 3)), SUB, SUB, 4),
    (np.zeros((5, 3), dtype=np.float32), SUB, SUB, 4),
    (np.zeros((5, 6))[:, ::2], SUB, SUB, 4),
    (np.zeros(5), np.zeros(16), np.zeros(16), 4),
    (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), 4),
    (ZETA, np.zeros((15, 3)), SUB, 4),
    (ZETA, SUB, np.zeros((16, 2)), 4),
    (ZETA, SUB, SUB, 3),
    (ZETA, SUB, SUB, 0),
    (ZETA, np.zeros((32, 3))[::2], SUB, 4),
    (ZETA, SUB, np.zeros((16, 3), dtype=np.float32), 4),
    ([[0.0] * 3] * 5, SUB, SUB, 4),
], ids=["read-only", "float32", "strided", "1-d", "no-nodes", "e-rows",
        "w-columns", "substeps", "no-substeps", "strided-e", "float32-w",
        "list"])
def test_zeta_scan_rejects_what_c_cannot_take(unreached, zeta, e, w,
                                              substeps):
    with pytest.raises(ValueError, match="zeta_scan"):
        unreached("zeta_scan")(zeta, e, w, substeps)


TAB = np.zeros((4, 3))
TABS = (TAB, TAB, TAB)
STARTS = np.zeros(3, dtype=np.intp)


def overlapping_rows():
    base = np.zeros(12)
    return np.lib.stride_tricks.as_strided(base, (3, 5), (16, 8))


@pytest.mark.parametrize("out,h,tables,start", [
    (np.zeros((3, 10))[:, ::2], np.zeros(4), TABS, STARTS),
    (np.zeros((5, 3)).T, np.zeros(4), TABS, STARTS),
    (overlapping_rows(), np.zeros(4), TABS, STARTS),
    (read_only((3, 5)), np.zeros(4), TABS, STARTS),
    (np.zeros((3, 5), dtype=np.float32), np.zeros(4), TABS, STARTS),
    (np.zeros(5), np.zeros(4), TABS, STARTS),
    (np.zeros((3, 5)), np.zeros(5), TABS, STARTS),
    (np.zeros((3, 5)), np.zeros(4, dtype=np.float32), TABS, STARTS),
    (np.zeros((3, 5)), np.zeros(4), (TAB, TAB), STARTS),
    (np.zeros((3, 5)), np.zeros(4), (TAB, TAB, np.zeros((4, 2))), STARTS),
    (np.zeros((3, 5)), np.zeros(4), (TAB, TAB, np.zeros((5, 3))), STARTS),
    (np.zeros((3, 5)), np.zeros(4), (TAB, TAB, np.zeros((4, 6))[:, ::2]),
     STARTS),
    (np.zeros((3, 5)), np.zeros(4), (np.zeros((4, 0)),) * 3, STARTS),
    (np.zeros((3, 5)), np.zeros(4), TABS, np.zeros(3, dtype=np.int32)),
    (np.zeros((3, 5)), np.zeros(4), TABS, np.zeros(2, dtype=np.intp)),
    ([[0.0] * 5] * 3, np.zeros(4), TABS, STARTS),
], ids=["strided", "fortran", "overlapping", "read-only", "float32", "1-d",
        "h-length", "float32-h", "two-tables", "table-width", "table-rows",
        "strided-table", "no-coefficient", "int32-start", "start-length",
        "list"])
def test_rk4_poly_rejects_what_c_cannot_take(unreached, out, h, tables,
                                             start):
    with pytest.raises(ValueError, match="rk4_poly"):
        unreached("rk4_poly")(out, h, tables, 10.0, start, math.inf)


@pytest.mark.parametrize("table", [
    np.zeros((4, 2), dtype=np.float32),
    np.zeros(4),
    np.zeros((4, 4))[:, ::2],
    np.zeros((4, 0)),
    np.array([[1.0, math.nan]]),
    np.array([[1.0, -math.inf]]),
], ids=["float32", "1-d", "strided", "no-columns", "nan", "inf"])
def test_fmt_g17_rejects_what_c_cannot_take(unreached, table):
    fh = io.BytesIO()
    with pytest.raises(ValueError, match="fmt_g17"):
        unreached("fmt_g17")(fh, table)
    assert fh.getvalue() == b""


ROWS, STATE = np.zeros((3, 5)), np.zeros((3, _compiled.PHILOX_WORDS),
                                        dtype=np.uint64)


@pytest.mark.parametrize("out,state", [
    (np.zeros((3, 5), dtype=np.float32), STATE),
    (np.zeros((3, 10))[:, ::2], STATE),             # rows not contiguous
    (np.zeros((5, 3)).T, STATE),                    # Fortran order
    (overlapping_rows(), STATE),
    (read_only((3, 5)), STATE),
    (np.zeros(5), STATE[:1]),
    ([[0.0] * 5] * 3, STATE),
    (ROWS, np.zeros((3, 10), dtype=np.uint64)),
    (ROWS, np.zeros((2, _compiled.PHILOX_WORDS), dtype=np.uint64)),
    (ROWS, np.zeros(3 * _compiled.PHILOX_WORDS, dtype=np.uint64)),
    (ROWS, STATE.astype(np.int64)),
    (ROWS, np.zeros((3, 2 * _compiled.PHILOX_WORDS), dtype=np.uint64)[:, ::2]),
    (ROWS, read_only(STATE.shape, np.uint64)),
], ids=["float32", "strided", "fortran", "overlapping", "read-only", "1-d",
        "list", "state-words", "state-rows", "1-d-state", "int64-state",
        "strided-state", "read-only-state"])
def test_philox_normal_rejects_what_c_cannot_take(unreached, out, state):
    with pytest.raises(ValueError, match="philox_normal"):
        unreached("philox_normal")(out, state, 1.0)


BOUND = np.zeros(5)


@pytest.mark.parametrize("x,g1,g2", [
    (np.zeros((3, 10))[:, ::2], BOUND, BOUND),      # rows not contiguous
    (np.zeros((5, 3)).T, BOUND, BOUND),             # Fortran order
    (overlapping_rows(), BOUND, BOUND),
    (np.zeros((3, 5), dtype=np.float32), BOUND, BOUND),
    (np.zeros(5), BOUND, BOUND),
    ([[0.0] * 5] * 3, BOUND, BOUND),
    (ROWS, np.zeros(4), BOUND),
    (ROWS, BOUND, np.zeros(6)),
    (ROWS, np.zeros(10)[::2], BOUND),
    (ROWS, BOUND, np.zeros(5, dtype=np.float32)),
    (ROWS, np.zeros((1, 5)), BOUND),
    (ROWS, BOUND, [0.0] * 5),
], ids=["strided", "fortran", "overlapping", "float32", "1-d", "list",
        "g1-length", "g2-length", "strided-g1", "float32-g2", "2-d-g1",
        "list-g2"])
def test_first_outside_rejects_what_c_cannot_take(unreached, x, g1, g2):
    with pytest.raises(ValueError, match="first_outside"):
        unreached("first_outside")(x, g1, g2)


@pytest.mark.parametrize("skip", [
    np.zeros(3, dtype=np.uint8),
    np.zeros(3, dtype=np.int64),
    np.zeros(2, dtype=bool),
    np.zeros(4, dtype=bool),
    np.zeros(6, dtype=bool)[::2],
    np.zeros((3, 1), dtype=bool),
    [False] * 3,
], ids=["uint8", "int64", "short", "long", "strided", "2-d", "list"])
def test_first_outside_rejects_a_skip_c_cannot_take(unreached, skip):
    with pytest.raises(ValueError, match="first_outside"):
        unreached("first_outside")(ROWS, BOUND, BOUND, skip)


# zeta_rate on 3 rows of 5 nodes (4 cells), a cubic drift and its
# quadratic df/dx, 4 substeps
X5, H4, CF, CD = np.zeros((3, 5)), np.zeros(4), np.zeros((5, 4)), \
    np.zeros((17, 3))
HERM, SKIP = np.zeros((4, 4)), np.zeros(3, dtype=np.intp)


@pytest.mark.parametrize("x,h,cf,cd,herm,skip", [
    (np.zeros((3, 10))[:, ::2], H4, CF, CD, HERM, SKIP),
    (np.zeros((5, 3)).T, H4, CF, CD, HERM, SKIP),
    (overlapping_rows(), H4, CF, CD, HERM, SKIP),
    (np.zeros((3, 5), dtype=np.float32), H4, CF, CD, HERM, SKIP),
    (np.zeros(5), H4, CF, CD, HERM, SKIP[:1]),
    (np.zeros((3, 0)), np.zeros(0), CF[:0], CD[:1], HERM, SKIP),
    ([[0.0] * 5] * 3, H4, CF, CD, HERM, SKIP),
    (X5, np.zeros(5), CF, CD, HERM, SKIP),
    (X5, np.zeros(8)[::2], CF, CD, HERM, SKIP),
    (X5, H4, np.zeros((4, 4)), CD, HERM, SKIP),
    (X5, H4, np.zeros((5, 0)), CD, HERM, SKIP),
    (X5, H4, np.zeros((5, 8))[:, ::2], CD, HERM, SKIP),
    (X5, H4, CF, np.zeros((16, 3)), HERM, SKIP),
    (X5, H4, CF, np.zeros((17, 0)), HERM, SKIP),
    (X5, H4, CF, CD.astype(np.float32), HERM, SKIP),
    (X5, H4, CF, CD, np.zeros((3, 4)), SKIP),
    (X5, H4, CF, CD, np.zeros((4, 0)), SKIP),
    (X5, H4, CF, CD, np.zeros((4, 3)), SKIP),
    (X5, H4, CF, CD, HERM, np.zeros(3, dtype=np.int32)),
    (X5, H4, CF, CD, HERM, np.zeros(2, dtype=np.intp)),
    (X5, H4, CF, CD, HERM, np.array([0, -1, 0], dtype=np.intp)),
    (X5, H4, CF, CD, HERM, np.array([0, 5, 0], dtype=np.intp)),
    (X5, H4, CF, CD, HERM, np.zeros(6, dtype=np.intp)[::2]),
], ids=["strided", "fortran", "overlapping", "float32", "1-d", "no-nodes",
        "list", "h-length", "strided-h", "cf-rows", "cf-no-coefficient",
        "strided-cf", "cd-rows", "cd-no-coefficient", "float32-cd",
        "herm-rows", "herm-no-substeps", "herm-substeps", "int32-skip",
        "skip-length", "negative-skip", "skip-past-n", "strided-skip"])
def test_zeta_rate_rejects_what_c_cannot_take(unreached, x, h, cf, cd, herm,
                                              skip):
    with pytest.raises(ValueError, match="zeta_rate"):
        unreached("zeta_rate")(x, h, cf, cd, herm, 0.01, skip)


def g17_values(n):
    """3n finite doubles: uniform bit patterns; random mantissas with
    binary exponents from 2^-22 to 2^58, across the switches of %.17g
    between fixed and exponent form at 1e-5 and 1e17; exact ties of the
    17th digit, m/4 near 1e15 and m 2^-s; then every edge: +-0, subnormals,
    the normal boundary, +-max and the double below it, the largest double
    below 1e17 (the last one %.17g writes in fixed form) and each power of
    ten from 1e-8 to 1e18 with five neighbours either side.  A carry of the
    digits into the exponent is test_fmt_g17_carries_into_the_exponent's
    case."""
    rng = np.random.default_rng(20)
    values = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    mantissa = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    exponent = rng.integers(1023 - 22, 1023 + 59, n).astype(np.uint64)
    in_range = ((exponent << np.uint64(52)) | mantissa).view(np.float64)
    ties = np.concatenate([
        rng.integers(2 ** 50, 2 ** 53, n // 2) / 4.0,
        rng.integers(2 ** 52, 2 ** 53, n // 2)
        * 2.0 ** -rng.integers(1, 70, n // 2)])
    edges = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1e-310, np.finfo(float).max,
             np.nextafter(np.finfo(float).max, 0.0), np.nextafter(1e17, 0.0)]
    for k in range(-8, 19):
        v = up = down = 10.0 ** k
        edges.append(v)
        for _ in range(5):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, 0.0)
            edges += [up, down]
    values = np.concatenate([values[np.isfinite(values)], in_range, ties,
                             edges])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("cols", [1, 2, 3])
def test_fmt_g17_matches_python_format(cols):
    """Blocks of rows in C print the bytes of Python's format(v, ".17g"),
    over more rows than one block."""
    values = g17_values(2 * _compiled.FMT_BLOCK_ROWS)
    values = values[:len(values) // cols * cols].reshape(-1, cols)
    assert len(values) > _compiled.FMT_BLOCK_ROWS
    fh = io.BytesIO()
    _compiled.LIBRARY.get("fmt_g17")(fh, values)
    want = "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in values.tolist())
    assert fh.getvalue() == want.encode()


def test_fmt_g17_fits_the_longest_values():
    """A block of the longest %.17g values (24 bytes, with sign and a
    three-digit exponent) fills FMT_VALUE_BYTES per value exactly."""
    longest = -2.2250738585072014e-308
    assert len(format(longest, ".17g")) + 1 == _compiled.FMT_VALUE_BYTES
    table = np.full((_compiled.FMT_BLOCK_ROWS + 1, 2), longest)
    fh = io.BytesIO()
    _compiled.LIBRARY.get("fmt_g17")(fh, table)
    assert fh.getvalue() == (
        f"{longest:.17g},{longest:.17g}\n" * len(table)).encode()


def test_fmt_g17_checks_every_block_before_writing():
    table = np.ones((2 * _compiled.FMT_BLOCK_ROWS, 2))
    table[-1, 1] = math.nan
    fh = io.BytesIO()
    with pytest.raises(ValueError, match="finite"):
        _compiled.LIBRARY.get("fmt_g17")(fh, table)
    assert fh.getvalue() == b""


def assert_g17(values):
    """fmt_g17 prints each of values, one row each, as Python's
    format(v, ".17g")."""
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 1)
    fh = io.BytesIO()
    _compiled.LIBRARY.get("fmt_g17")(fh, values)
    got = fh.getvalue().decode().split("\n")
    want = [format(v, ".17g") for v in values[:, 0].tolist()] + [""]
    assert len(got) == len(want)
    assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []


def decimal_exponent(v: float) -> int:
    """k of v's 17 significant digits d.dddd 10^k: fmt_g17 takes them on
    its 128-bit path for -16 <= k <= 16 and on its exact path else."""
    return int(format(v, ".16e").split("e")[1])


def test_fmt_g17_matches_python_at_every_binary_exponent():
    """16 random mantissas at each binary exponent of a double, both signs:
    floor(log2 |v|) from -1074 (the least subnormal) to 1023."""
    rng = np.random.default_rng(31)
    top = np.repeat(np.arange(52, dtype=np.uint64), 16)
    subnormal = (np.uint64(1) << top) | (
        rng.integers(0, 2 ** 52, len(top), dtype=np.uint64)
        & ((np.uint64(1) << top) - np.uint64(1)))
    biased = np.repeat(np.arange(1, 2047, dtype=np.uint64), 16)
    normal = (biased << np.uint64(52)) | rng.integers(
        0, 2 ** 52, len(biased), dtype=np.uint64)
    values = np.concatenate([subnormal, normal]).view(np.float64)
    assert np.array_equal(np.unique(np.floor(np.log2(values))),
                          np.arange(-1074, 1024))
    assert_g17(np.concatenate([values, -values]))


def test_fmt_g17_matches_python_across_its_two_paths():
    """The switch between the 128-bit and the exact path, near 1e-16 and
    1e17: the 64 doubles either side of each and of the powers of two
    around them, where floor(log2 |v|) moves, and random values within a
    factor of 16."""
    rng = np.random.default_rng(32)
    step = np.arange(-64, 65)
    values = [(np.float64(x).view(np.int64) + step).view(np.float64)
              for x in (1e-16, 2.0 ** -54, 2.0 ** -53, 1e17, 2.0 ** 56,
                        2.0 ** 57)]
    values += [x * 16.0 ** rng.uniform(-1, 1, 1000) for x in (1e-16, 1e17)]
    values = np.concatenate(values)
    k = {decimal_exponent(v) for v in values.tolist()}
    assert {-17, -16, 16, 17} <= k
    assert_g17(np.concatenate([values, -values]))


def test_fmt_g17_rounds_ties_to_even():
    """Exact ties of the 17th digit, |v| 10^p = D + 1/2 with p = 16 - k,
    take the even D.  Ties exist for 1 <= p <= 24 only, all on the 128-bit
    path: v = j 2^-(p+1) with j = (2D + 1)/5^p odd and below 2^53, so 5^p
    must divide 2D + 1 < 2e17 < 5^25; for p <= 0 the odd part of v,
    (2D + 1) 5^-p, would be at least 2D + 1 > 2^54.  The exact path's
    rounding is checked instead on the doubles either side of a tie."""
    rng = np.random.default_rng(33)
    ties, odd = [], set()
    for p in range(1, 25):
        lo = -(-(2 * 10 ** 16 + 1) // 5 ** p) | 1
        hi = min(2 ** 53, (2 * 10 ** 17 - 1) // 5 ** p)
        for j in {int(x) | 1 for x in rng.integers(lo, hi, 32)}:
            v = math.ldexp(j, -(p + 1))
            twice_d = j * 5 ** p - 1
            assert Fraction(v) * 10 ** p == Fraction(twice_d + 1, 2)
            assert decimal_exponent(v) == 16 - p
            ties.append(v)
            odd.add(twice_d // 2 % 2)
    assert odd == {0, 1}  # rounding up and rounding down
    near = []
    for k in rng.choice(np.r_[-323:-16, 17:308], 400).tolist():
        d = int(rng.integers(10 ** 16, 10 ** 17))
        v = float(Fraction(2 * d + 1, 2) * Fraction(10) ** (k - 16))
        near += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    assert all(abs(decimal_exponent(v)) > 16 for v in near)
    values = np.array(ties + near)
    assert_g17(np.concatenate([values, -values]))


def test_fmt_g17_carries_into_the_exponent():
    """The two doubles below each power of ten 10^k: where their 17 digits
    round up to 10^k (at k = -14, -73, 98 and eleven more) the digits
    carry into the decimal exponent, on both paths."""
    values, carried = [], set()
    for k in range(-323, 309):
        v = float(Fraction(10) ** k)
        if Fraction(v) >= Fraction(10) ** k:
            v = math.nextafter(v, 0.0)
        for v in (v, math.nextafter(v, 0.0)):
            values.append(v)
            if Fraction(format(v, ".17g")) == Fraction(10) ** k:
                carried.add(k)
    assert {-14, -73, 98} <= carried
    values = np.array(values)
    assert_g17(np.concatenate([values, -values]))


def test_fmt_g17_formats_under_a_comma_decimal_point(tmp_path, monkeypatch):
    """fmt_g17 reads no locale: under a locale whose decimal point is ",",
    write_csv still calls it, and it writes Python's bytes, with "."."""
    table = envelope.EnvelopeTable(np.linspace(-1.0, 0.1, 50),
                                   np.linspace(0.5, 3.0, 50) / 3.0,
                                   np.zeros(50), "test", 0.01)
    with monkeypatch.context() as m:
        m.setattr(_compiled, "LIBRARY", _compiled.Library(None))
        table.to_csv(tmp_path / "py.csv")
    conv = locale.localeconv()
    monkeypatch.setattr(locale, "localeconv",
                        lambda: dict(conv, decimal_point=","))
    spy = Spy(_compiled.LIBRARY)
    monkeypatch.setattr(_compiled, "LIBRARY", spy)
    table.to_csv(tmp_path / "c.csv")
    assert spy.calls["fmt_g17"] == 1
    assert (tmp_path / "c.csv").read_bytes() == \
        (tmp_path / "py.csv").read_bytes()
    assert (tmp_path / "c.csv").read_bytes().splitlines()[2] == \
        b"-1,0.16666666666666666"


def test_missing_compiler_falls_back(reference, tmp_path, monkeypatch):
    library = _compiled.Library(cc=str(tmp_path / "no-such-cc"),
                                cache_dir=tmp_path / "cache")
    run_with(library, reference, tmp_path, monkeypatch)
    assert library.get("em_poly") is None and sde.backend() == "numpy"
    assert not (tmp_path / "cache").exists()


def test_truncated_library_is_rebuilt(tmp_path, loads):
    library = _compiled.Library(cache_dir=tmp_path / "cache")
    path = library.path()
    path.parent.mkdir()
    path.write_bytes(b"\x7fELF" + bytes(60))
    assert library.get("em_poly") is not None
    assert loads == [str(path)] * 2 and path.stat().st_size > 64
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_loading_prunes_older_builds(tmp_path):
    stale = tmp_path / "_em-0000000000000000.so"
    stale.write_bytes(b"\x7fELF" + bytes(60))
    os.utime(stale, ns=(0, 0))
    (tmp_path / "notes.txt").write_text("not a build")
    library = _compiled.Library(cache_dir=tmp_path)
    assert library.get("em_poly") is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([library.path().name, "notes.txt"])


def test_loading_keeps_newer_builds(tmp_path):
    """The build of a checkout in use beside this one, made after it, stays
    cached for that checkout."""
    path = _compiled.Library(cache_dir=tmp_path).path()
    assert _compiled.Library(cache_dir=tmp_path).get("em_poly") is not None
    newer = tmp_path / "_em-ffffffffffffffff.so"
    newer.write_bytes(b"\x7fELF" + bytes(60))
    mtime = path.stat().st_mtime_ns + 10 ** 9
    os.utime(newer, ns=(mtime, mtime))
    assert _compiled.Library(cache_dir=tmp_path).get("em_poly") is not None
    assert newer.exists()


def test_library_that_never_loads_falls_back(reference, tmp_path,
                                             monkeypatch):
    attempts = []

    def failing(name, *args, **kwargs):
        attempts.append(name)
        raise OSError(f"{name}: invalid ELF header")

    library = _compiled.Library(cache_dir=tmp_path)
    path = library.path()
    path.write_bytes(b"\x7fELF" + bytes(60))
    monkeypatch.setattr(_compiled.ctypes, "CDLL", failing)
    run_with(library, reference, tmp_path, monkeypatch)
    # the cached library failed to load, was rebuilt and failed again
    assert library.get("em_poly") is None
    assert attempts == [str(path)] * 2


def test_unwritable_cache_uses_a_temporary_directory(reference, tmp_path,
                                                     monkeypatch, loads):
    # a directory below a file cannot be made, even by root
    (tmp_path / "file").write_text("")
    library = _compiled.Library(cache_dir=tmp_path / "file" / "cache")
    run_with(library, reference, tmp_path, monkeypatch)
    assert library.get("em_poly") is not None and sde.backend() == "c"
    assert len(loads) == 1 and not loads[0].startswith(str(tmp_path))


def test_concurrent_first_calls_load_one_library(tmp_path, monkeypatch,
                                                 loads):
    library = _compiled.Library(cache_dir=tmp_path)
    monkeypatch.setattr(_compiled, "LIBRARY", library)
    model = standard_pitchfork()
    dw = np.random.default_rng(5).standard_normal((16, 500)) * 1e-2
    barrier = threading.Barrier(2)
    got = []

    def first_step():
        barrier.wait(timeout=30)
        got.append(em_batch(model, 0.01, 1e-3, -0.5, 0.0, 1e-4, dw)[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_step) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 2 and np.array_equal(got[0], got[1])
    assert len(loads) == 1 and sde.backend() == "c"
    assert len(list(tmp_path.iterdir())) == 1
