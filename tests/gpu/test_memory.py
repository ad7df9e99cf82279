"""Unit tests for global memory and its NVM persistence domain."""

import numpy as np
import pytest

from repro.errors import AllocationError, OutOfBoundsError
from repro.gpu.memory import GlobalMemory
from repro.nvm.model import WritebackReason


def make_memory(capacity_lines=4):
    return GlobalMemory(line_size=128, cache_capacity_lines=capacity_lines)


def test_alloc_shapes_and_views():
    mem = make_memory()
    buf = mem.alloc("a", (4, 8), np.float32)
    assert buf.array.shape == (4, 8)
    assert buf.nvm_array.shape == (4, 8)
    assert buf.size == 32
    assert "a" in mem


def test_alloc_with_init_is_persisted_at_birth():
    mem = make_memory()
    data = np.arange(16, dtype=np.int32)
    buf = mem.alloc("a", (16,), np.int32, init=data)
    assert np.array_equal(buf.array, data)
    assert np.array_equal(buf.nvm_array, data)


def test_alloc_duplicate_name_rejected():
    mem = make_memory()
    mem.alloc("a", (4,))
    with pytest.raises(AllocationError):
        mem.alloc("a", (4,))


def test_alloc_bad_shape_rejected():
    mem = make_memory()
    with pytest.raises(AllocationError):
        mem.alloc("bad", (0, 4))


def test_init_shape_mismatch_rejected():
    mem = make_memory()
    with pytest.raises(AllocationError):
        mem.alloc("a", (4,), np.int32, init=np.zeros(5, dtype=np.int32))


def test_write_updates_volatile_not_nvm():
    mem = make_memory(capacity_lines=64)
    buf = mem.alloc("a", (32,), np.int32)
    mem.write(buf, np.array([0, 1]), np.array([7, 8]))
    assert buf.array[0] == 7
    assert buf.nvm_array[0] == 0  # still volatile


def test_eviction_pushes_line_to_nvm():
    mem = make_memory(capacity_lines=1)
    buf = mem.alloc("a", (128,), np.int32)  # 4 lines of 32 ints
    mem.write(buf, np.array([0]), np.array([1]))    # line 0 dirty
    mem.write(buf, np.array([32]), np.array([2]))   # line 1; evicts line 0
    assert buf.nvm_array[0] == 1
    assert buf.nvm_array[32] == 0
    assert mem.write_stats.by_reason[WritebackReason.EVICTION] == 1


def test_drain_persists_everything():
    mem = make_memory(capacity_lines=64)
    buf = mem.alloc("a", (32,), np.int32)
    mem.write(buf, np.arange(32), np.arange(32))
    n = mem.drain()
    assert n >= 1
    assert np.array_equal(buf.nvm_array, np.arange(32))


def test_crash_discards_dirty_lines():
    mem = make_memory(capacity_lines=64)
    buf = mem.alloc("a", (32,), np.int32, init=np.full(32, 5, np.int32))
    mem.write(buf, np.arange(32), np.arange(100, 132))
    report = mem.crash()
    assert report.n_lost >= 1
    assert np.all(buf.array == 5)       # volatile restored to NVM image
    assert np.all(buf.nvm_array == 5)


def test_crash_partial_persistence_is_seeded():
    def run(seed):
        mem = make_memory(capacity_lines=64)
        buf = mem.alloc("a", (256,), np.int32)
        mem.write(buf, np.arange(256), np.arange(256))
        mem.crash(persist_fraction=0.5, rng=np.random.default_rng(seed))
        return buf.array.copy()

    assert np.array_equal(run(3), run(3))
    # Roughly half the lines survive.
    survived = np.count_nonzero(run(3))
    assert 0 < survived < 256


def test_crash_zeroes_scratch_buffers():
    mem = make_memory()
    buf = mem.alloc("scratch", (8,), np.int32, persistent=False)
    buf.data[:] = 9
    mem.crash()
    assert np.all(buf.array == 0)


def test_scratch_buffers_have_no_nvm_view():
    mem = make_memory()
    buf = mem.alloc("scratch", (8,), np.int32, persistent=False)
    with pytest.raises(AllocationError):
        _ = buf.nvm_array


def test_out_of_bounds_write_rejected():
    mem = make_memory()
    buf = mem.alloc("a", (8,), np.int32)
    with pytest.raises(OutOfBoundsError):
        mem.write(buf, np.array([8]), np.array([1]))
    with pytest.raises(OutOfBoundsError):
        mem.read(buf, np.array([-1]))


def test_write_stats_attribute_per_buffer():
    mem = make_memory(capacity_lines=64)
    a = mem.alloc("a", (32,), np.int32)
    b = mem.alloc("__lp_table", (32,), np.int32)
    mem.write(a, np.array([0]), np.array([1]))
    mem.write(b, np.array([0]), np.array([1]))
    mem.drain()
    assert mem.write_stats.lines_for_buffer("a") == 1
    assert mem.write_stats.lines_for_buffers("__lp_") == 1


def test_free_discards_dirty_lines():
    mem = make_memory(capacity_lines=64)
    buf = mem.alloc("a", (32,), np.int32)
    mem.write(buf, np.array([0]), np.array([1]))
    mem.free("a")
    assert "a" not in mem
    assert mem.cache.n_dirty == 0
    # Freed names can be reused.
    mem.alloc("a", (8,), np.int32)


def test_free_unknown_name_rejected():
    mem = make_memory()
    with pytest.raises(AllocationError):
        mem.free("ghost")


def test_clean_lines_always_match_shadow():
    """Invariant: a line not in the dirty set has data == shadow."""
    mem = make_memory(capacity_lines=2)
    buf = mem.alloc("a", (512,), np.int32)
    rng = np.random.default_rng(0)
    for _ in range(50):
        idx = rng.integers(0, 512, size=8)
        mem.write(buf, idx, rng.integers(0, 100, size=8).astype(np.int32))
    dirty = set(mem.cache.dirty_lines)
    line_ints = 128 // 4
    for line in range(buf.n_lines):
        if buf.first_line + line in dirty:
            continue
        lo = line * line_ints
        hi = min(lo + line_ints, buf.size)
        assert np.array_equal(buf.data[lo:hi], buf.shadow[lo:hi])


def test_buffers_are_line_aligned_and_disjoint():
    mem = make_memory()
    a = mem.alloc("a", (3,), np.int8)     # tiny, pads to one line
    b = mem.alloc("b", (3,), np.int8)
    assert a.base_addr % 128 == 0
    assert b.base_addr % 128 == 0
    assert b.first_line >= a.first_line + a.n_lines


@pytest.mark.parametrize("capacity_lines", [0, 1, 3, 64])
def test_write_interleaved_equals_the_store_by_store_sequence(capacity_lines):
    """Key word, value word, next request: a multi-word record's rows
    land through ``write_rows`` as the store-by-store sequence would,
    with room in the cache and without it."""

    def build():
        mem = make_memory(capacity_lines)
        keys = mem.alloc("k", (256,), np.uint64)
        vals = mem.alloc("v", (256,), np.uint64)
        scratch = mem.alloc("s", (256,), np.uint64, persistent=False)
        return mem, [keys, vals, scratch]

    rng = np.random.default_rng(4)
    idx = np.stack([rng.choice(256, size=9, replace=False)
                    for _ in range(6)])
    words = rng.integers(1, 1 << 40, size=(6, 9, 3), dtype=np.uint64)

    ref_mem, ref_bufs = build()
    got_mem, got_bufs = build()
    for row in range(idx.shape[0]):
        for e in range(idx.shape[1]):
            for c, buf in enumerate(ref_bufs):
                ref_mem.write(buf, idx[row, e:e + 1], words[row, e:e + 1, c])
    got_mem.write_rows(6, [(tuple(got_bufs), idx, words, None)])

    for ref, got in zip(ref_bufs, got_bufs):
        assert np.array_equal(ref.data, got.data)
        if ref.persistent:
            assert np.array_equal(ref.shadow, got.shadow)
    assert ref_mem.cache.dirty_lines == got_mem.cache.dirty_lines
    assert ref_mem.cache.evictions == got_mem.cache.evictions
    assert ref_mem.write_stats.by_buffer == got_mem.write_stats.by_buffer


@pytest.mark.parametrize("n_lines", [3, 4, 5])
def test_write_rows_at_the_edge_of_the_cache_room(n_lines):
    """One row per fresh line against four lines of room: up to four the
    pass cannot evict, the fifth must evict the first and write it back
    holding what its row stored."""

    def build():
        mem = make_memory(capacity_lines=6)
        buf = mem.alloc("a", (32 * 8,), np.int32)  # 8 lines of 32 words
        mem.write(buf, np.array([7 * 32, 6 * 32]), np.array([1, 2]))
        return mem, buf

    idx = 32 * np.arange(n_lines)[:, None] + np.array([[0, 5]])
    values = (idx + 100).astype(np.int32)
    ref_mem, ref_buf = build()
    for row in range(n_lines):
        ref_mem.write(ref_buf, idx[row], values[row])
    got_mem, got_buf = build()
    got_mem.write_rows(n_lines, [(got_buf, idx, values, None)])

    assert np.array_equal(got_buf.data, ref_buf.data)
    assert np.array_equal(got_buf.shadow, ref_buf.shadow)
    assert got_mem.cache.dirty_lines == ref_mem.cache.dirty_lines
    assert got_mem.write_stats.to_dict() == ref_mem.write_stats.to_dict()
    assert got_mem.cache.evictions == ref_mem.cache.evictions \
        == max(0, n_lines - 4)
