"""On-disk format compatibility, pinned by bytes.

``tests/fixtures/heaps/`` holds a plain heap and a 2-shard set (shard
0's journal left armed) written by the commit *before* the heap surface
was unified. Today's ``open_heap`` / ``adopt`` / ``inspect_path`` must
read them to the directory, torn lines and images recorded beside them
in ``expected.json`` — the heaps a deployed daemon left behind still
open. Each test works on a copy: opening a heap disarms its journal.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.gpu.memory import GlobalMemory
from repro.nvm import HeapEntry, copy_heap, inspect_path, open_heap
from repro.obs.schema import load_schema, validate

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "heaps"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())
HEAPS = pytest.mark.parametrize("name", sorted(EXPECTED))


@pytest.fixture
def heap_copy(tmp_path, name):
    copy_heap(FIXTURES / name, tmp_path / name)
    return tmp_path / name


def test_fixture_files_are_small():
    for path in FIXTURES.glob("*.lpnv*"):
        assert path.stat().st_size <= 64 * 1024, path


@HEAPS
def test_inspect_path_reads_parent_written_bytes(name, heap_copy):
    want = EXPECTED[name]
    before = {p.name: p.read_bytes() for p in heap_copy.parent.iterdir()}
    report = inspect_path(heap_copy)
    validate(report.to_dict(), load_schema("heap_inspect"))
    assert sorted((e.to_dict() for e in report.entries),
                  key=lambda d: d["base_addr"]) == want["directory"]
    lines = [lid for extent in report.extents
             for lid in extent.journal.lines]
    assert sorted(lines) == want["armed_lines"]
    assert report.merged_torn()["torn_lines"] == len(want["armed_lines"])
    if "owner" in want:
        assert {e.name: k for k, extent in enumerate(report.extents)
                for e in extent.entries} == want["owner"]
    # Strictly read-only: not one byte of any file moved.
    assert before == {p.name: p.read_bytes()
                      for p in heap_copy.parent.iterdir()}


@HEAPS
def test_open_heap_and_adopt_read_parent_written_bytes(name, heap_copy):
    want = EXPECTED[name]
    with open_heap(heap_copy) as heap:
        assert heap.line_size == want["line_size"]
        assert [e.to_dict() for e in heap.entries.values()] == \
            want["directory"]
        assert sorted(heap.torn_lines()) == want["armed_lines"]
        for entry_name, digest in want["images"].items():
            image = heap.view(entry_name).tobytes()
            assert hashlib.sha256(image).hexdigest() == digest

        memory = GlobalMemory(cache_capacity_lines=4)
        for raw in want["directory"]:
            entry = HeapEntry.from_dict(raw)
            memory.alloc(entry.name, entry.shape, entry.dtype)
        heap.adopt(memory)
        for entry_name, digest in want["images"].items():
            data = np.ascontiguousarray(memory.buffers[entry_name].data)
            assert hashlib.sha256(data.tobytes()).hexdigest() == digest
