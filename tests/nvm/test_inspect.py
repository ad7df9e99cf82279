"""Unit tests for the offline read-only heap inspector."""

import numpy as np
import pytest

from repro.errors import (
    HeapCorruptError,
    HeapFormatError,
    HeapTruncatedError,
)
from repro.gpu.memory import GlobalMemory
from repro.nvm import copy_heap, create_heap, diff_paths, inspect_path, open_heap
from repro.nvm.layout import DIR_OFFSET, JOURNAL_CAPACITY
from repro.nvm.mapped import MappedShadow
from repro.obs.schema import load_schema, validate

#: ``create_heap``'s ``shards`` for the three layouts one report shape
#: covers: a plain file, a 1-shard manifest, a 4-shard manifest.
LAYOUTS = pytest.mark.parametrize("shards", [0, 1, 4],
                                  ids=["plain", "1-shard", "4-shard"])


def inspect_heap(path):
    """The single extent of a plain heap file's report."""
    report = inspect_path(path)
    validate(report.to_dict(), load_schema("heap_inspect"))
    assert report.manifest is None and report.n_shards == 0
    (extent,) = report.extents
    return extent


@pytest.fixture
def heap_path(tmp_path):
    return tmp_path / "heap.lpnv"


def _heap_with_data(path, names=("x",), shards=0):
    heap = create_heap(path, shards)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    for i, name in enumerate(names):
        buf = mem.alloc(name, (300,), np.float64)
        mem.write(buf, np.arange(300),
                  np.arange(300, dtype=np.float64) * (i + 1.5))
    mem.drain()
    return heap, mem


def test_report_decodes_header_directory_occupancy(heap_path):
    heap, _ = _heap_with_data(heap_path, names=("x", "y"))
    heap.close()

    report = inspect_heap(heap_path)
    assert report.header.version == 1
    assert report.header.line_size == heap.line_size
    assert [e.name for e in report.entries] == ["x", "y"]
    assert not report.journal.armed
    buffers = [s for s in report.occupancy if s.kind == "buffer"]
    assert [s.name for s in buffers] == ["x", "y"]
    # drained data: every line of both buffers holds nonzero bytes
    assert all(s.nonzero_lines == s.n_lines for s in buffers)


def test_freed_buffer_leaves_a_gap_segment(heap_path):
    heap, mem = _heap_with_data(heap_path, names=("x", "y"))
    mem.free("x")
    heap.close()

    report = inspect_heap(heap_path)
    kinds = [s.kind for s in report.occupancy]
    assert kinds == ["gap", "buffer"]
    assert report.occupancy[1].name == "y"


def test_armed_exact_journal_is_reported_and_never_cleared(heap_path):
    heap, _ = _heap_with_data(heap_path)
    heap.arm([0, 1, 5])
    heap.sync()

    report = inspect_heap(heap_path)
    assert report.journal.armed and report.journal.mode_name == "EXACT"
    assert report.torn.by_buffer == {"x": 3}
    assert report.torn.unattributed == 0

    # the inspector is read-only: a second inspect still sees the arm,
    # and MappedShadow.open still surfaces (and then clears) it
    assert inspect_heap(heap_path).torn.armed
    heap.close()
    reopened = MappedShadow.open(heap_path)
    assert reopened.torn is not None
    assert reopened.torn_by_buffer() == {"x": 3}
    reopened.close()


def test_range_journal_mode(heap_path):
    heap, _ = _heap_with_data(heap_path)
    heap.arm(list(range(JOURNAL_CAPACITY + 7)))
    heap.sync()
    heap.close()

    report = inspect_heap(heap_path)
    assert report.journal.mode_name == "RANGE"
    assert not report.torn.exact
    assert report.torn.n_lines == JOURNAL_CAPACITY + 7
    # lines beyond the buffer's extent are unattributed suspects
    assert report.torn.unattributed > 0


def test_torn_lines_match_whatever_open_reports(heap_path):
    """Inspector and writer agree on the armed set, by construction."""
    heap, _ = _heap_with_data(heap_path)
    heap.arm([2, 3, 11])
    heap.sync()

    report = inspect_heap(heap_path)
    heap.close()
    reopened = MappedShadow.open(heap_path)
    assert list(report.torn.lines_sample) == sorted(reopened.torn_lines())
    assert report.torn.by_buffer == reopened.torn_by_buffer()
    reopened.close()


def test_rejects_truncated_and_corrupt_files(tmp_path):
    short = tmp_path / "short.lpnv"
    short.write_bytes(b"LPNVHEAP" + b"\0" * 64)
    with pytest.raises(HeapTruncatedError):
        inspect_heap(short)

    bad_magic = tmp_path / "bad.lpnv"
    bad_magic.write_bytes(b"NOTAHEAP" + b"\0" * (DIR_OFFSET + 64))
    with pytest.raises(HeapFormatError):
        inspect_heap(bad_magic)

    heap, _ = _heap_with_data(tmp_path / "heap.lpnv")
    heap.close()
    raw = bytearray((tmp_path / "heap.lpnv").read_bytes())
    raw[DIR_OFFSET] ^= 0xFF
    corrupt = tmp_path / "corrupt.lpnv"
    corrupt.write_bytes(raw)
    with pytest.raises(HeapCorruptError):
        inspect_heap(corrupt)

    missing = tmp_path / "missing.lpnv"
    with pytest.raises(HeapTruncatedError):
        inspect_heap(missing)


def test_diff_identical_copies(heap_path, tmp_path):
    heap, _ = _heap_with_data(heap_path)
    heap.close()
    copy = tmp_path / "copy.lpnv"
    copy.write_bytes(heap_path.read_bytes())

    diff = diff_paths(heap_path, copy)
    assert diff.identical
    validate(diff.to_dict(), load_schema("heap_inspect"))


def test_diff_reports_changed_lines(heap_path, tmp_path):
    heap, _ = _heap_with_data(heap_path)
    heap.close()
    copy = tmp_path / "copy.lpnv"
    copy.write_bytes(heap_path.read_bytes())

    heap = MappedShadow.open(heap_path)
    view = heap.view("x")
    view[0] = -1.0      # line 0
    view[128 // 8] = -2.0  # line 1 (float64 lines hold 16 elements)
    heap.sync()
    heap.close()

    diff = diff_paths(heap_path, copy)
    assert not diff.identical
    (extent,) = diff.extents
    (buf,) = [b for b in extent.buffers if b.n_differing]
    assert buf.name == "x"
    assert buf.n_differing == 2
    assert list(buf.differing_sample) == [0, 1]
    validate(diff.to_dict(), load_schema("heap_inspect"))


def test_diff_reports_directory_divergence(heap_path, tmp_path):
    heap, _ = _heap_with_data(heap_path, names=("x", "y"))
    heap.close()
    other_path = tmp_path / "other.lpnv"
    other, _ = _heap_with_data(other_path, names=("x",))
    other.close()

    diff = diff_paths(heap_path, other_path)
    assert not diff.identical
    (extent,) = diff.extents
    assert extent.only_in_a == ("y",)
    assert extent.only_in_b == ()
    rendered = diff.render_text()
    assert "only in A" in rendered


# ---------------------------------------------------------------------------
# One report / one diff for every layout
# ---------------------------------------------------------------------------

@LAYOUTS
def test_report_shape_is_the_same_for_every_layout(tmp_path, shards):
    heap, _ = _heap_with_data(tmp_path / "heap.lpnv", names=("x", "y"),
                              shards=shards)
    first, _ = heap.entries["x"].line_span(heap.line_size)
    heap.arm([first, first + 1])
    heap.sync()
    paths = heap.extent_paths()
    heap.close()

    report = inspect_path(tmp_path / "heap.lpnv")
    validate(report.to_dict(), load_schema("heap_inspect"))
    assert report.n_shards == shards
    assert (report.manifest is None) == (shards == 0)
    assert [e.path for e in report.extents] == [str(p) for p in paths]
    assert sorted(e.name for e in report.entries) == ["x", "y"]
    (armed,) = report.armed_extents()
    assert report.merged_torn() == {"torn_lines": 2,
                                    "torn_by_buffer": {"x": 2}}
    assert report.to_dict()["armed_extents"] == [armed]

    # Read-only: the live reopen still finds (and then clears) the arm,
    # on the extent the inspector named.
    with open_heap(tmp_path / "heap.lpnv") as reopened:
        assert sorted(reopened.torn_by_extent) == [armed]
        assert reopened.torn_by_buffer() == {"x": 2}
    assert inspect_path(tmp_path / "heap.lpnv").armed_extents() == []


@LAYOUTS
def test_diff_shape_is_the_same_for_every_layout(tmp_path, shards):
    (tmp_path / "a").mkdir()
    heap, _ = _heap_with_data(tmp_path / "a" / "heap.lpnv", shards=shards)
    heap.close()
    copy_heap(tmp_path / "a" / "heap.lpnv", tmp_path / "b" / "heap.lpnv")

    same = diff_paths(tmp_path / "a" / "heap.lpnv",
                      tmp_path / "b" / "heap.lpnv")
    assert same.identical and len(same.extents) == max(1, shards)
    validate(same.to_dict(), load_schema("heap_inspect"))

    with open_heap(tmp_path / "b" / "heap.lpnv") as heap:
        heap.view("x")[0] = -1.0
        heap.sync()
    differ = diff_paths(tmp_path / "a" / "heap.lpnv",
                        tmp_path / "b" / "heap.lpnv")
    assert not differ.identical and not differ.manifest_diff
    assert [b.n_differing for d in differ.extents for b in d.buffers] == [1]
    assert "buffer x: 1/19 lines differ" in differ.render_text()
    validate(differ.to_dict(), load_schema("heap_inspect"))
