"""The Philox normals of noise.fill_increments, drawn by the compiled
library's philox_normal and by NumPy's Generators, against
Generator(Philox(key=[master_seed, index])).standard_normal bit for bit:
over millions of draws, which reach the ziggurat's tail and wedges; in
chunks that split a block of 4 Philox words; on column slices, mirrored; at
the largest keys; across a carry of the Philox counter; for rows that enter
with words in the buffer; and where a tail or wedge draw takes its words
across the end of a block."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slowsde import _compiled
from slowsde.noise import fill_increments, path_generators

# the ziggurat's right edge: a normal beyond it came from the tail
ZIG_R = 3.6541528853610088


def generator(master_seed, index, counter=None):
    # a list counter goes through float64 in Philox, so pass uint64 words
    if counter is not None:
        counter = np.array(counter, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(
        key=np.array([master_seed, index], dtype=np.uint64), counter=counter))


def reference(master_seed, indices, n):
    return np.stack([generator(master_seed, i).standard_normal(n)
                     for i in indices])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def state_words(bit_generator):
    """NumPy's philox_state of a Philox as philox_normal keeps it."""
    s = bit_generator.state
    return np.concatenate([s["state"]["counter"], s["state"]["key"],
                           s["buffer"], [np.uint64(s["buffer_pos"])]])


def test_millions_of_draws(kernels):
    """4 paths x 2^20 draws in chunks of 2^18: about 1000 tail draws and
    some 27000 wedge tests; the streams end in NumPy's states."""
    indices, n, chunk = [0, 1, 2, 3], 2 ** 20, 2 ** 18
    for kernel in kernels():
        gens = path_generators(5, indices)
        want = [generator(5, i) for i in indices]
        out, tail = np.empty((len(indices), chunk)), 0
        for _ in range(n // chunk):
            fill_increments(out, 5, indices, 1.0, gens=gens)
            ref = np.stack([g.standard_normal(chunk) for g in want])
            assert np.array_equal(bits(out), bits(ref)), kernel
            tail += int(np.sum(np.abs(ref) > ZIG_R))
        assert 800 < tail < 1300
        if kernel == "c":
            for row, g in zip(gens, want):
                assert np.array_equal(row, state_words(g.bit_generator))


@pytest.mark.parametrize("length", [1, 3, 1021])
def test_chunks_that_split_a_block(kernels, length):
    """Column slices of a wider buffer, filled length values at a time and
    mirrored, continue each path's stream across the chunks."""
    indices, n, dt = [3, 70, 9], 2100, 1e-3
    want = reference(11, indices, n) * -math.sqrt(dt)
    for kernel in kernels():
        gens = path_generators(11, indices)
        buf = np.full((len(indices), 1024), np.nan)
        got = []
        for lo in range(0, n, length):
            part = buf[:, :min(length, n - lo)]
            fill_increments(part, 11, indices, dt, True, gens)
            got.append(part.copy())
        assert np.array_equal(bits(np.hstack(got)), bits(want)), kernel
        assert np.isnan(buf[:, length:]).all()


def test_largest_keys(kernels):
    seed, indices = 2 ** 64 - 1, [2 ** 32, 2 ** 63 + 5, 2 ** 64 - 1]
    want = reference(seed, indices, 500)
    for kernel in kernels():
        out = np.empty((len(indices), 500))
        fill_increments(out, seed, indices, 1.0)
        assert np.array_equal(bits(out), bits(want)), kernel


@pytest.mark.parametrize("carry", [1, 3], ids=["one-word", "three-words"])
def test_counter_carry(carry):
    """A counter whose low words are all ones carries into the next word
    on the first block, as NumPy's Philox(counter=...) does."""
    counter = [2 ** 64 - 1] * carry + [0] * (4 - carry)
    g = generator(2, 6, counter)
    want = g.standard_normal(100)
    state = path_generators(2, [6])
    state[0, :4] = counter
    out = np.empty((1, 100))
    _compiled.LIBRARY.get("philox_normal")(out, state, 1.0)
    assert np.array_equal(bits(out[0]), bits(want))
    assert np.array_equal(state[0], state_words(g.bit_generator))
    assert list(state[0, 1:4]) == [0] * (carry - 1) + [1] + [0] * (3 - carry)


def words_used(bit_generator):
    """The words of a Philox stream used so far: 4 per block drawn, less
    those still in its buffer."""
    s = bit_generator.state
    return 4 * int(s["state"]["counter"][0]) - 4 + s["buffer_pos"]


def draw_past_the_stored_words(kind, master_seed=21):
    """By seeded search, (index, n): a path one of whose first n normals,
    drawn from an empty buffer, is a tail draw (kind "tail") or a wedge
    test ("wedge") that takes word n - 1, the last of a block (n a multiple
    of 4), and then words of the next block."""
    for index in range(1000):
        g = generator(master_seed, index)
        for _ in range(20000):
            before = words_used(g.bit_generator)
            x = g.standard_normal()
            after = words_used(g.bit_generator)
            end = (after - 1) // 4 * 4  # the last block start before after
            if end > before and (abs(x) > ZIG_R) == (kind == "tail"):
                return index, end
    raise AssertionError("no such row")


def final_states(gens):
    """Each stream's philox_state words, whichever fill holds them."""
    if isinstance(gens, np.ndarray):
        return [row.copy() for row in gens]
    return [state_words(g.bit_generator) for g in gens]


@pytest.mark.parametrize("kind", ["wedge", "tail"])
def test_draw_past_the_stored_words(kernels, kind):
    """A normal whose extra words run from the end of one block into the
    next, among the row's last words: the bits and the final state are
    NumPy's."""
    index, n = draw_past_the_stored_words(kind)
    g = generator(21, index)
    want = g.standard_normal(n)
    for kernel in kernels():
        gens = path_generators(21, [index])
        out = np.full((1, n), np.nan)
        fill_increments(out, 21, [index], 1.0, gens=gens)
        assert np.array_equal(bits(out[0]), bits(want)), kernel
        assert np.array_equal(final_states(gens)[0],
                              state_words(g.bit_generator)), kernel


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023])
def test_rows_that_enter_with_buffered_words(kernels, n):
    """Rows whose buffers hold 3, 2, 1 and 0 words on entry: the buffered
    words go first, then new blocks, with NumPy's bits and states."""
    indices = [4, 5, 6, 7]
    # how many normals leave each stream with buffer_pos 1, 2, 3 and 4
    skip = []
    for index, pos in zip(indices, (1, 2, 3, 4)):
        g, k = generator(9, index), 0
        while k == 0 or g.bit_generator.state["buffer_pos"] != pos:
            g.standard_normal()
            k += 1
        skip.append(k)
    refs = [generator(9, i) for i in indices]
    for g, k in zip(refs, skip):
        g.standard_normal(k)
    want = np.stack([g.standard_normal(n) for g in refs])
    for kernel in kernels():
        gens = path_generators(9, indices)
        for b, k in enumerate(skip):
            fill_increments(np.empty((1, k)), 9, indices[b:b + 1], 1.0,
                            gens=gens[b:b + 1])
        out = np.full((len(indices), n), np.nan)
        fill_increments(out, 9, indices, 1.0, gens=gens)
        assert np.array_equal(bits(out), bits(want)), kernel
        for got, g in zip(final_states(gens), refs):
            assert np.array_equal(got, state_words(g.bit_generator)), kernel


def test_benchmark_script_bit_identical():
    """benchmarks/bench_noise.py runs and finds the library's fill equal to
    NumPy's."""
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_noise.py"), "64",
         "1021", "3"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bit-identical" in proc.stdout.splitlines()
