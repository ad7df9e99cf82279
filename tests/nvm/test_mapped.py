"""Unit tests for the durable mmap-backed NVM heap."""

import numpy as np
import pytest

from repro.errors import (
    AllocationError,
    HeapCorruptError,
    HeapError,
    HeapFormatError,
    HeapFullError,
    HeapLayoutError,
    HeapTruncatedError,
    HeapVersionError,
)
from repro.gpu.memory import GlobalMemory
from repro.nvm.mapped import (
    _DIR_OFFSET,
    _HEADER,
    JOURNAL_CAPACITY,
    MAGIC,
    MappedShadow,
)


@pytest.fixture
def heap_path(tmp_path):
    return tmp_path / "heap.lpnv"


def _filled_heap(path):
    """A heap with one drained buffer; returns (expected image, path)."""
    heap = MappedShadow.create(path)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    buf = mem.alloc("x", (300,), np.float64)
    mem.write(buf, np.arange(300), np.arange(300, dtype=np.float64) * 1.5)
    mem.drain()
    expected = np.asarray(buf.shadow).copy()
    heap.close()
    return expected


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def test_drain_reopen_roundtrip_is_bit_identical(heap_path):
    expected = _filled_heap(heap_path)
    with MappedShadow.open(heap_path) as heap:
        assert list(heap.entries) == ["x"]
        entry = heap.entries["x"]
        assert entry.dtype == np.float64
        assert entry.shape == (300,)
        assert entry.role == "data"
        assert np.array_equal(heap.view("x"), expected)
        assert heap.torn is None


def test_table_buffers_get_table_role(heap_path):
    heap = MappedShadow.create(heap_path)
    mem = GlobalMemory(shadow=heap)
    mem.alloc("__lp_k_lanes", (64,), np.uint32)
    mem.alloc("plain", (64,), np.uint32)
    assert heap.entries["__lp_k_lanes"].role == "table"
    assert heap.entries["plain"].role == "data"
    heap.close()


def test_alloc_init_is_persisted_immediately(heap_path):
    heap = MappedShadow.create(heap_path)
    mem = GlobalMemory(shadow=heap)
    init = np.arange(40, dtype=np.int32)
    mem.alloc("x", (40,), np.int32, init=init)
    heap.close()
    with MappedShadow.open(heap_path) as reopened:
        assert np.array_equal(reopened.view("x"), init)


def test_scratch_buffers_stay_out_of_the_heap(heap_path):
    heap = MappedShadow.create(heap_path)
    mem = GlobalMemory(shadow=heap)
    mem.alloc("scratch", (32,), np.float32, persistent=False)
    assert "scratch" not in heap.entries
    heap.close()


def test_free_detaches_from_directory(heap_path):
    heap = MappedShadow.create(heap_path)
    mem = GlobalMemory(shadow=heap)
    mem.alloc("x", (32,), np.int32)
    mem.free("x")
    heap.close()
    with MappedShadow.open(heap_path) as reopened:
        assert "x" not in reopened.entries


def test_duplicate_attach_rejected(heap_path):
    heap = MappedShadow.create(heap_path)
    mem = GlobalMemory(shadow=heap)
    buf = mem.alloc("x", (32,), np.int32)
    with pytest.raises(AllocationError):
        heap.attach(buf)
    heap.close()


def test_heap_grows_past_initial_capacity(heap_path):
    heap = MappedShadow.create(heap_path, data_capacity=4096)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    big = mem.alloc("big", (100_000,), np.float64)
    mem.write(big, np.arange(100_000),
              np.arange(100_000, dtype=np.float64))
    mem.drain()
    heap.close()
    with MappedShadow.open(heap_path) as reopened:
        assert np.array_equal(reopened.view("big"),
                              np.arange(100_000, dtype=np.float64))


def test_grow_repoints_live_buffer_views(heap_path):
    heap = MappedShadow.create(heap_path, data_capacity=4096)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    first = mem.alloc("first", (16,), np.int64,
                      init=np.arange(16, dtype=np.int64))
    mem.alloc("big", (100_000,), np.float64)
    # first's shadow must now be a view into the *new* mapping.
    mem.write(first, np.arange(16), np.arange(16, dtype=np.int64) * 7)
    mem.drain()
    heap.close()
    with MappedShadow.open(heap_path) as reopened:
        assert np.array_equal(reopened.view("first"),
                              np.arange(16, dtype=np.int64) * 7)


def test_line_size_mismatch_rejected(heap_path):
    heap = MappedShadow.create(heap_path, line_size=256)
    with pytest.raises(AllocationError):
        GlobalMemory(line_size=128, shadow=heap)
    heap.close()


def test_directory_full_raises_and_rolls_back(heap_path):
    heap = MappedShadow.create(heap_path, dir_capacity=16)
    mem = GlobalMemory(shadow=heap)
    with pytest.raises(HeapFullError):
        mem.alloc("x", (32,), np.int32)
    assert "x" not in heap.entries
    heap.close()


def test_closed_heap_refuses_use(heap_path):
    heap = MappedShadow.create(heap_path)
    heap.close()
    heap.close()  # idempotent
    with pytest.raises(HeapError):
        heap.view("x")


# ---------------------------------------------------------------------------
# Typed open() errors — no silent garbage reads
# ---------------------------------------------------------------------------

def test_open_missing_file_is_typed(tmp_path):
    with pytest.raises(HeapTruncatedError):
        MappedShadow.open(tmp_path / "nope.lpnv")


def test_open_short_file_is_typed(heap_path):
    heap_path.write_bytes(b"LPNVHEAP but far too short")
    with pytest.raises(HeapTruncatedError):
        MappedShadow.open(heap_path)


def test_open_bad_magic_is_typed(heap_path):
    _filled_heap(heap_path)
    with open(heap_path, "r+b") as fh:
        fh.write(b"NOTAHEAP")
    with pytest.raises(HeapFormatError):
        MappedShadow.open(heap_path)


def test_open_version_mismatch_is_typed(heap_path):
    _filled_heap(heap_path)
    with open(heap_path, "r+b") as fh:
        fh.seek(len(MAGIC))
        fh.write((99).to_bytes(4, "little"))
    with pytest.raises(HeapVersionError):
        MappedShadow.open(heap_path)


def test_open_corrupt_directory_is_typed(heap_path):
    _filled_heap(heap_path)
    with open(heap_path, "r+b") as fh:
        fh.seek(_DIR_OFFSET + 2)
        fh.write(b"\xff")
    with pytest.raises(HeapCorruptError):
        MappedShadow.open(heap_path)


def test_open_truncated_data_region_is_typed(heap_path):
    _filled_heap(heap_path)
    # Keep the header + directory but cut the data region short.
    with open(heap_path, "r+b") as fh:
        fh.truncate(_DIR_OFFSET + _HEADER.size)
    with pytest.raises(HeapTruncatedError):
        MappedShadow.open(heap_path)


def test_open_nonsensical_geometry_is_typed(heap_path):
    _filled_heap(heap_path)
    # line_size = 0 in the header.
    with open(heap_path, "r+b") as fh:
        fh.seek(len(MAGIC) + 4)
        fh.write((0).to_bytes(4, "little"))
    with pytest.raises(HeapFormatError):
        MappedShadow.open(heap_path)


# ---------------------------------------------------------------------------
# Adopt
# ---------------------------------------------------------------------------

def _layout(shapes):
    mem = GlobalMemory(cache_capacity_lines=4)
    for name, shape, dtype in shapes:
        mem.alloc(name, shape, dtype)
    return mem


def test_adopt_swaps_shadows_and_resets_volatile(heap_path):
    expected = _filled_heap(heap_path)
    heap = MappedShadow.open(heap_path)
    mem = _layout([("x", (300,), np.float64)])
    # Volatile state diverges pre-adopt; adopt is a reboot.
    mem.buffers["x"].data[:] = -1.0
    heap.adopt(mem)
    assert np.array_equal(mem.buffers["x"].data, expected)
    assert mem.shadow_backend is heap
    # Post-adopt write-backs land in the file.
    buf = mem.buffers["x"]
    mem.write(buf, np.arange(10), np.full(10, 9.0))
    mem.drain()
    assert np.array_equal(np.asarray(heap.view("x")[:10]),
                          np.full(10, 9.0))
    heap.close()


@pytest.mark.parametrize("shapes", [
    [],                                         # missing buffer
    [("x", (300,), np.float32)],                # dtype diverged
    [("x", (299,), np.float64)],                # shape diverged
    [("x", (300,), np.float64),
     ("extra", (8,), np.int32)],                # extra persistent buffer
])
def test_adopt_layout_mismatch_is_typed(heap_path, shapes):
    _filled_heap(heap_path)
    with MappedShadow.open(heap_path) as heap:
        with pytest.raises(HeapLayoutError):
            heap.adopt(_layout(shapes))


def test_adopt_line_size_mismatch_is_typed(heap_path):
    _filled_heap(heap_path)
    with MappedShadow.open(heap_path) as heap:
        mem = GlobalMemory(line_size=256, cache_capacity_lines=4)
        mem.alloc("x", (300,), np.float64)
        with pytest.raises(HeapLayoutError):
            heap.adopt(mem)


# ---------------------------------------------------------------------------
# Torn-write journal
# ---------------------------------------------------------------------------

def _abandon(heap):
    """Simulate sudden death: flush the mapping, never commit/close."""
    heap._mm.flush()
    heap._file.close()


def test_armed_journal_surfaces_as_torn_window(heap_path):
    _filled_heap(heap_path)
    heap = MappedShadow.open(heap_path)
    heap.arm([2, 3, 7])
    _abandon(heap)
    with MappedShadow.open(heap_path) as reopened:
        assert reopened.torn is not None
        assert reopened.torn.exact
        assert reopened.torn.lines == (2, 3, 7)
        assert reopened.torn_lines() == [2, 3, 7]
        assert reopened.torn_by_buffer() == {"x": 3}
    # The journal is consumed: a second open sees a clean heap.
    with MappedShadow.open(heap_path) as again:
        assert again.torn is None


def test_committed_writeback_leaves_no_torn_window(heap_path):
    _filled_heap(heap_path)
    heap = MappedShadow.open(heap_path)
    heap.arm([2, 3])
    heap.commit(2)
    assert heap.lines_written == 2
    _abandon(heap)
    with MappedShadow.open(heap_path) as reopened:
        assert reopened.torn is None


def test_oversized_writeback_journals_as_range(heap_path):
    _filled_heap(heap_path)
    heap = MappedShadow.open(heap_path)
    lines = list(range(5, 5 + JOURNAL_CAPACITY + 10))
    heap.arm(lines)
    _abandon(heap)
    with MappedShadow.open(heap_path) as reopened:
        assert reopened.torn is not None
        assert not reopened.torn.exact
        assert reopened.torn.lines[0] == 5
        assert reopened.torn.lines[-1] == lines[-1]


def test_writeback_listener_fires_inside_the_torn_window(heap_path):
    heap = MappedShadow.create(heap_path)
    mem = GlobalMemory(cache_capacity_lines=2, shadow=heap)
    buf = mem.alloc("x", (512,), np.float64)
    seen = []

    def listener(cumulative):
        # The journal must still be armed while the listener runs —
        # that is what makes a kill here a torn write.
        seen.append((cumulative, heap._read_journal() is not None))

    heap.writeback_listener = listener
    mem.write(buf, np.arange(512), np.arange(512, dtype=np.float64))
    mem.drain()
    assert seen
    assert all(armed for _, armed in seen)
    assert seen[-1][0] == heap.lines_written
    heap.close()
