"""The one heap surface: ``create_heap`` / ``open_heap`` and what both
backends answer — a heap is N >= 1 v1 extents, a plain ``MappedShadow``
its own single one — over {plain, 1-shard manifest, 4-shard}."""

import ast
import gc
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import HeapTruncatedError
from repro.gpu.memory import GlobalMemory
from repro.nvm import (
    MappedShadow,
    ShardedShadow,
    copy_heap,
    create_heap,
    inspect_path,
    open_heap,
)
from repro.nvm.sharded import shard_path

LAYOUTS = pytest.mark.parametrize("shards", [0, 1, 4],
                                  ids=["plain", "1-shard", "4-shard"])


def _fill(heap):
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    for i, name in enumerate(("x", "y", "z")):
        buf = mem.alloc(name, (200,), np.float64)
        mem.write(buf, np.arange(200), np.arange(200) * (i + 2.0))
    mem.drain()
    return mem


@LAYOUTS
def test_create_then_open_answer_one_surface(tmp_path, shards):
    path = tmp_path / "heap.lpnv"
    heap = create_heap(path, shards)
    assert type(heap) is (ShardedShadow if shards else MappedShadow)
    _fill(heap)
    first, _ = heap.entries["y"].line_span(heap.line_size)
    heap.arm([first])
    heap.close()  # no commit: one extent's journal stays armed

    with open_heap(path) as reopened:
        assert type(reopened) is type(heap)
        assert reopened.kind == ("sharded" if shards else "mapped")
        assert reopened.n_shards == shards
        assert len(reopened.extents) == max(1, shards)
        assert all(type(e) is MappedShadow for e in reopened.extents)
        assert reopened.extent_paths() == (
            [shard_path(path, k) for k in range(shards)] or [path])
        (victim,) = reopened.torn_by_extent
        assert "y" in reopened.extents[victim].entries
        assert reopened.torn_by_extent[victim].lines == (first,)
        assert reopened.torn_lines() == [first]


def test_a_plain_heap_is_its_own_single_extent(tmp_path):
    with create_heap(tmp_path / "heap.lpnv") as heap:
        assert heap.extents == (heap,)
        assert heap.torn_by_extent == {}


@LAYOUTS
def test_adopt_checks_the_layout_once_for_every_backend(tmp_path, shards):
    path = tmp_path / "heap.lpnv"
    heap = create_heap(path, shards)
    images = {name: buf.data.copy()
              for name, buf in _fill(heap).buffers.items()}
    heap.close()

    with open_heap(path) as reopened:
        rebuilt = GlobalMemory(cache_capacity_lines=4)
        for name in ("x", "y", "z"):
            rebuilt.alloc(name, (200,), np.float64)
        reopened.adopt(rebuilt)
        assert rebuilt.shadow_backend is reopened
        for name, image in images.items():
            assert np.array_equal(rebuilt.buffers[name].data, image)

        wrong = GlobalMemory(cache_capacity_lines=4)
        wrong.alloc("x", (200,), np.float32)
        with pytest.raises(repro.errors.HeapLayoutError):
            reopened.adopt(wrong)


@pytest.mark.parametrize("make", [
    lambda p: p / "nope.lpnv",      # missing
    lambda p: p,                    # a directory
], ids=["missing", "directory"])
def test_open_heap_unreadable_path_is_typed(tmp_path, make):
    with pytest.raises(HeapTruncatedError, match="cannot read heap file"):
        open_heap(make(tmp_path))
    with pytest.raises(HeapTruncatedError, match="cannot read heap file"):
        inspect_path(make(tmp_path))


def test_sharded_create_cleans_up_when_a_shard_cannot_be_made(tmp_path):
    path = tmp_path / "heap.lpnv"
    shard_path(path, 1).mkdir()  # shard 1 cannot be created over this
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(IsADirectoryError):
            create_heap(path, 4)
        gc.collect()  # a shard 0 left open would be reported here
    assert not [str(w.message) for w in caught
                if w.category is ResourceWarning
                and str(tmp_path) in str(w.message)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["heap.lpnv.shard1"]


@LAYOUTS
def test_copy_heap_copies_every_file_armed_journal_included(tmp_path, shards):
    src = tmp_path / "src" / "heap.lpnv"
    src.parent.mkdir()
    heap = create_heap(src, shards)
    _fill(heap)
    first, _ = heap.entries["x"].line_span(heap.line_size)
    heap.arm([first])
    heap.close()

    dest = tmp_path / "artifacts" / "cell" / "heap.lpnv"
    copy_heap(src, dest)
    assert sorted(p.name for p in dest.parent.iterdir()) == \
        sorted(p.name for p in src.parent.iterdir())
    assert inspect_path(dest).merged_torn() == \
        inspect_path(src).merged_torn() == \
        {"torn_lines": 1, "torn_by_buffer": {"x": 1}}


def test_only_repro_nvm_imports_the_backend_modules():
    """Consumers reach heaps through ``repro.nvm``'s constructors and
    the shared surface, never through a backend class's module."""
    root = Path(repro.__file__).resolve().parent
    backends = {"repro.nvm.mapped", "repro.nvm.sharded"}
    offenders = []
    for source in root.rglob("*.py"):
        rel = source.relative_to(root)
        if rel.parts[0] == "nvm" or rel == Path("__init__.py"):
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {node.module} | {
                    f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & backends:
                offenders.append(f"{rel}:{node.lineno}")
    assert not offenders, offenders
