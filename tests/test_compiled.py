"""The compiled stepping kernel of _em.c: it builds here and run_ensemble
steps through it; its wrapper refuses arrays C cannot take before calling
it; and a missing compiler, a broken cached library or an unwritable cache
directory each fall back without changing a byte."""

import ctypes
import sys
import threading

import numpy as np
import pytest

from slowsde import _compiled, run_ensemble, sde, standard_pitchfork
from slowsde.cli import cmd_run
from slowsde.sde import em_batch, n_steps_for
from test_cli import SMALL_DELAY, write
from test_montecarlo import pinned_config


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
    """Run the reference config with sde stepping through library, and
    check its output files against the reference's."""
    monkeypatch.setattr(sde, "_LIBRARY", library)
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


def test_builds_and_steps_run_ensemble(monkeypatch):
    step = sde._LIBRARY.em_poly()
    assert step is not None, "the C kernel did not build or load here"
    assert sde.backend() == "c"
    path_steps = []

    def counting(out, coef, cdt):
        path_steps.append((out.shape[0] - 1) * out.shape[1])
        step(out, coef, cdt)

    monkeypatch.setattr(sde._LIBRARY, "em_poly", lambda: counting)
    cfg = pinned_config("delay")
    assert cfg.model.poly is not None
    run_ensemble(cfg)
    assert sum(path_steps) == cfg.n_paths * n_steps_for(cfg.t0, cfg.t_end,
                                                        cfg.dt)


@pytest.fixture()
def unreached():
    """The wrapped step of a kernel that fails the test if it is called."""
    def kernel(*args):
        pytest.fail("the kernel was called")

    return _compiled._wrap(kernel)


def read_only(shape):
    out = np.zeros(shape)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("out,coef", [
    (np.zeros((6, 9))[:, ::2], np.zeros((5, 4))),   # not contiguous
    (np.zeros((9, 5)).T, np.zeros((5, 4))),          # Fortran order
    (read_only((6, 5)), np.zeros((5, 4))),
    (np.zeros((6, 5), dtype=np.float32), np.zeros((5, 4))),
    (np.zeros((6, 5)), np.zeros((6, 4))),            # one row per node
    (np.zeros((6, 5)), np.zeros((4, 4))),
    (np.zeros((6, 5)), np.zeros((5, 0))),            # no coefficient
    (np.zeros((6, 5)), np.zeros(5)),
], ids=["strided", "fortran", "read-only", "float32", "rows+1", "rows-1",
        "no-columns", "1-d-coef"])
def test_step_rejects_what_c_cannot_take(unreached, out, coef):
    with pytest.raises(ValueError, match="em_poly"):
        unreached(out, coef, 0.5)


def test_missing_compiler_falls_back(reference, tmp_path, monkeypatch):
    library = _compiled.Library(cc=str(tmp_path / "no-such-cc"),
                                cache_dir=tmp_path / "cache")
    run_with(library, reference, tmp_path, monkeypatch)
    assert library.em_poly() is None and sde.backend() == "numpy"
    assert not (tmp_path / "cache").exists()


def test_truncated_library_is_rebuilt(tmp_path, loads):
    library = _compiled.Library(cache_dir=tmp_path / "cache")
    path = library.path()
    path.parent.mkdir()
    path.write_bytes(b"\x7fELF" + bytes(60))
    assert library.em_poly() is not None
    assert loads == [str(path)] * 2 and path.stat().st_size > 64
    assert [p.name for p in path.parent.iterdir()] == [path.name]


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
    assert library.em_poly() is None
    assert attempts == [str(path)] * 2


def test_unwritable_cache_uses_a_temporary_directory(reference, tmp_path,
                                                     monkeypatch, loads):
    # a directory below a file cannot be made, even by root
    (tmp_path / "file").write_text("")
    library = _compiled.Library(cache_dir=tmp_path / "file" / "cache")
    run_with(library, reference, tmp_path, monkeypatch)
    assert library.em_poly() is not None and sde.backend() == "c"
    assert len(loads) == 1 and not loads[0].startswith(str(tmp_path))


def test_concurrent_first_calls_load_one_library(tmp_path, monkeypatch,
                                                 loads):
    library = _compiled.Library(cache_dir=tmp_path)
    monkeypatch.setattr(sde, "_LIBRARY", library)
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
