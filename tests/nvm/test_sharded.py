"""Unit tests for the sharded multi-heap NVM backend.

Covers the manifest format, buffer placement and its re-derivation
from the shard directories at open (kill windows inside attach /
detach included), the per-shard journal fan-out (torn-write
containment), adopt, sealing, the degenerate configurations (1 shard
≡ MappedShadow; more shards than blocks), and the read-only sharded
inspector + schema v2.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from repro.errors import (
    AllocationError,
    HeapCorruptError,
    HeapFormatError,
    HeapLayoutError,
    HeapTruncatedError,
    HeapVersionError,
)
from repro.gpu.memory import GlobalMemory
from repro.nvm import layout
from repro.nvm.layout import ShardManifest
from repro.nvm.mapped import MappedShadow
from repro.nvm.sharded import ShardedShadow, shard_path


@pytest.fixture
def manifest_path(tmp_path):
    return tmp_path / "heap.lpnv"


#: A layout spanning several shards: four data buffers, distinct sizes.
LAYOUT = [
    ("a", (300,), np.float64),
    ("b", (512,), np.float32),
    ("c", (64,), np.int64),
    ("d", (1024,), np.int32),
]


def _fill(mem):
    """Deterministic content for every LAYOUT buffer; returns images."""
    expected = {}
    for i, (name, shape, dtype) in enumerate(LAYOUT):
        buf = mem.buffers[name]
        values = (np.arange(int(np.prod(shape)), dtype=dtype)
                  * (i + 1)).reshape(shape)
        mem.write(buf, np.arange(values.size), values.ravel())
        expected[name] = values.ravel()
    mem.drain()
    return expected


def _filled_sharded(path, n_shards=4):
    """A drained sharded heap; returns the expected per-buffer images."""
    heap = ShardedShadow.create(path, n_shards=n_shards)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    for name, shape, dtype in LAYOUT:
        mem.alloc(name, shape, dtype)
    expected = _fill(mem)
    heap.close()
    return expected


def _layout_memory():
    """A rebuilt memory reproducing LAYOUT's allocation order."""
    mem = GlobalMemory(cache_capacity_lines=4)
    for name, shape, dtype in LAYOUT:
        mem.alloc(name, shape, dtype)
    return mem


def _abandon(heap):
    """Simulate sudden death: flush mappings, never commit/close."""
    for shard in heap.extents:
        shard._mm.flush()
        shard._file.close()


def _buffer_at(addr, name, shape, dtype):
    """A live buffer at a chosen address, not yet homed in any heap."""
    scratch = GlobalMemory(cache_capacity_lines=4)
    if addr:
        scratch.alloc("pad", (addr,), np.uint8)  # addr is line-aligned
    return scratch.alloc(name, shape, dtype)


def _placement(heap):
    """The live block→shard state a cold open must re-derive."""
    return (dict(heap._owner), dict(heap._block_map),
            dict(heap._block_refs), list(heap._loads))


class _Killed(BaseException):
    """Stands in for SIGKILL: no ``except Exception`` may swallow it."""


def _kill_after_directory_store(monkeypatch):
    """The next shard-directory store lands, then the process dies."""
    store = MappedShadow._write_directory

    def store_then_die(shard):
        store(shard)
        raise _Killed

    monkeypatch.setattr(MappedShadow, "_write_directory", store_then_die)


# ---------------------------------------------------------------------------
# Manifest + creation
# ---------------------------------------------------------------------------

def test_create_writes_manifest_and_shard_files(manifest_path):
    heap = ShardedShadow.create(manifest_path, n_shards=4)
    assert heap.n_shards == 4
    manifest = layout.parse_manifest(manifest_path.read_bytes(),
                                     manifest_path)
    assert manifest.n_shards == 4
    for k in range(4):
        assert shard_path(manifest_path, k).exists()
        assert manifest.shard_names[k] == f"heap.lpnv.shard{k}"
    heap.close()


def test_create_rejects_bad_geometry(manifest_path):
    with pytest.raises(HeapFormatError):
        ShardedShadow.create(manifest_path, n_shards=0)
    with pytest.raises(HeapFormatError):
        ShardedShadow.create(manifest_path, n_shards=2, block_lines=0)


def test_manifest_pack_parse_roundtrip(manifest_path):
    manifest = ShardManifest(
        n_shards=3, line_size=128, block_lines=4,
        shard_names=("h.shard0", "h.shard1", "h.shard2"),
    )
    parsed = layout.parse_manifest(layout.pack_manifest(manifest),
                                   manifest_path)
    assert parsed == manifest


def _pack_manifest_with_extents(manifest, extents):
    """A v1 manifest as written when the block table was still stored."""
    body = json.dumps(
        {"line_size": manifest.line_size,
         "block_lines": manifest.block_lines,
         "shards": list(manifest.shard_names), "extents": extents},
        separators=(",", ":")).encode("utf-8")
    header = layout.MANIFEST_HEADER.pack(
        layout.MANIFEST_MAGIC, layout.MANIFEST_VERSION,
        manifest.n_shards, len(body), zlib.crc32(body))
    return header.ljust(layout.MANIFEST_BODY_OFFSET, b"\0") + body


def test_open_ignores_stale_extents_of_an_older_manifest(manifest_path):
    expected = _filled_sharded(manifest_path)
    with ShardedShadow.open(manifest_path) as heap:
        derived = _placement(heap)
        manifest = heap.manifest()
    # Every mapped block recorded against the *wrong* shard, plus one
    # block no buffer ever touched: the directories outvote all of it.
    stale = [[block, 1, (shard + 1) % manifest.n_shards]
             for block, shard in derived[1].items()] + [[10_000, 3, 0]]
    manifest_path.write_bytes(_pack_manifest_with_extents(manifest, stale))
    with ShardedShadow.open(manifest_path) as heap:
        assert _placement(heap) == derived
        for name, values in expected.items():
            assert np.array_equal(
                np.asarray(heap.view(name)).ravel(), values)


def test_roundtrip_reopen_is_bit_identical(manifest_path):
    expected = _filled_sharded(manifest_path)
    with ShardedShadow.open(manifest_path) as heap:
        assert sorted(heap.entries) == sorted(n for n, _, _ in LAYOUT)
        # Union directory is allocation-(address-)ordered.
        addrs = [heap.entries[n].base_addr for n in heap.entries]
        assert addrs == sorted(addrs)
        for name, values in expected.items():
            assert np.array_equal(
                np.asarray(heap.view(name)).ravel(), values)
        assert heap.torn is None
        assert heap.torn_by_extent == {}


def test_buffers_spread_across_shards(manifest_path):
    heap = ShardedShadow.create(manifest_path, n_shards=4)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    for name, shape, dtype in LAYOUT:
        mem.alloc(name, shape, dtype)
    owners = {name: heap.shard_of_buffer(name) for name, _, _ in LAYOUT}
    assert len(set(owners.values())) > 1
    for name, shard_id in owners.items():
        # Wholly inside one shard: its entry lives in exactly that
        # shard's directory.
        assert name in heap.extents[shard_id].entries
        for k, shard in enumerate(heap.extents):
            if k != shard_id:
                assert name not in shard.entries
    heap.close()


def test_block_granularity_pins_overlapping_buffers(manifest_path):
    # With coarse blocks, consecutive small buffers share an address
    # block, so the second is pinned to the first buffer's shard.
    heap = ShardedShadow.create(manifest_path, n_shards=2,
                                block_lines=64)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    mem.alloc("x", (16,), np.int32)
    mem.alloc("y", (16,), np.int32)
    assert heap.shard_of_buffer("x") == heap.shard_of_buffer("y")
    heap.close()


def test_duplicate_attach_rejected(manifest_path):
    heap = ShardedShadow.create(manifest_path, n_shards=2)
    mem = GlobalMemory(shadow=heap)
    buf = mem.alloc("x", (32,), np.int32)
    with pytest.raises(AllocationError):
        heap.attach(buf)
    heap.close()


def test_detach_releases_blocks_and_directory(manifest_path):
    heap = ShardedShadow.create(manifest_path, n_shards=2)
    mem = GlobalMemory(shadow=heap)
    x = mem.alloc("x", (32,), np.int32)       # 1 line  -> shard 0
    mem.alloc("y", (32,), np.int32)           # 1 line  -> shard 1
    mem.alloc("z", (128,), np.int32)          # 4 lines -> shard 0 (tie)
    assert heap._loads == [5, 1]
    x_blocks = list(heap._blocks_of(x))
    mem.free("x")
    assert "x" not in heap.entries and "x" not in heap._owner
    assert not any(b in heap._block_map or b in heap._block_refs
                   for b in x_blocks)
    assert heap._loads == [4, 1]
    # The address is free again: a later buffer there follows the
    # load, not the shard that used to own the blocks.
    heap.attach(_buffer_at(x.base_addr, "x2", (32,), np.int32))
    assert heap.shard_of_buffer("x2") == 1
    live = _placement(heap)
    heap.close()
    with ShardedShadow.open(manifest_path) as reopened:
        assert "x" not in reopened.entries
        assert _placement(reopened) == live


# ---------------------------------------------------------------------------
# Typed open() errors
# ---------------------------------------------------------------------------

def test_open_missing_manifest_is_typed(tmp_path):
    with pytest.raises(HeapTruncatedError):
        ShardedShadow.open(tmp_path / "nope.lpnv")


def test_open_plain_heap_as_manifest_is_typed(manifest_path):
    MappedShadow.create(manifest_path).close()
    with pytest.raises(HeapFormatError, match="plain heap"):
        ShardedShadow.open(manifest_path)


def test_open_corrupt_manifest_body_is_typed(manifest_path):
    _filled_sharded(manifest_path)
    raw = bytearray(manifest_path.read_bytes())
    raw[layout.MANIFEST_BODY_OFFSET + 3] ^= 0xFF
    manifest_path.write_bytes(bytes(raw))
    with pytest.raises(HeapCorruptError):
        ShardedShadow.open(manifest_path)


def test_open_manifest_version_mismatch_is_typed(manifest_path):
    _filled_sharded(manifest_path)
    raw = bytearray(manifest_path.read_bytes())
    raw[len(layout.MANIFEST_MAGIC):len(layout.MANIFEST_MAGIC) + 4] = \
        (99).to_bytes(4, "little")
    manifest_path.write_bytes(bytes(raw))
    with pytest.raises(HeapVersionError):
        ShardedShadow.open(manifest_path)


def test_open_truncated_manifest_is_typed(manifest_path):
    _filled_sharded(manifest_path)
    raw = manifest_path.read_bytes()
    manifest_path.write_bytes(raw[:layout.MANIFEST_BODY_OFFSET + 4])
    with pytest.raises(HeapTruncatedError):
        ShardedShadow.open(manifest_path)


def test_open_manifest_directory_disagreement_is_typed(tmp_path,
                                                       manifest_path):
    # The directories are the placement record now, so the
    # disagreement a cold open can meet is between two of them: the
    # manifest's shard set names files whose directories collide.
    # Same buffer name in two shards: one shard file copied over
    # another.
    _filled_sharded(manifest_path)
    with ShardedShadow.open(manifest_path) as heap:
        src, dst = heap.shard_of_buffer("a"), heap.shard_of_buffer("b")
    shutil.copyfile(shard_path(manifest_path, src),
                    shard_path(manifest_path, dst))
    with pytest.raises(HeapCorruptError, match="appears in shard"):
        ShardedShadow.open(manifest_path)

    # Same address block under two names: a shard file from another
    # heap whose first buffer landed on the same addresses.
    _filled_sharded(manifest_path)
    other = tmp_path / "other.lpnv"
    heap = ShardedShadow.create(other, n_shards=4)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    mem.alloc("not_a", LAYOUT[0][1], LAYOUT[0][2])
    foreign = heap.shard_of_buffer("not_a")
    heap.close()
    assert foreign == src
    shutil.copyfile(shard_path(other, foreign),
                    shard_path(manifest_path, dst))
    with pytest.raises(HeapCorruptError, match="claims address blocks"):
        ShardedShadow.open(manifest_path)


# ---------------------------------------------------------------------------
# Kill windows inside attach / detach: the directories are the record
# ---------------------------------------------------------------------------

def test_kill_inside_attach_reopens_with_what_landed(manifest_path,
                                                     monkeypatch):
    heap = ShardedShadow.create(manifest_path, n_shards=2)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    mem.alloc("x", (32,), np.int32)
    buf = _buffer_at(mem.alloc_cursor, "late", (64,), np.int64)

    # Killed before the shard-directory store: the buffer never was.
    def die(shard):
        raise _Killed

    with monkeypatch.context() as patch:
        patch.setattr(MappedShadow, "_write_directory", die)
        with pytest.raises(_Killed):
            heap.attach(buf)
    _abandon(heap)
    with ShardedShadow.open(manifest_path) as reopened:
        assert list(reopened.entries) == ["x"]
        # Killed right after it: the buffer is there, mapped, usable.
        with monkeypatch.context() as patch:
            _kill_after_directory_store(patch)
            with pytest.raises(_Killed):
                reopened.attach(buf)
        _abandon(reopened)
    with ShardedShadow.open(manifest_path) as reopened:
        assert list(reopened.entries) == ["x", "late"]
        assert reopened.shard_of_buffer("late") == 1
        assert reopened._loads == [1, 4]
        first, last = reopened.entries["late"].line_span(
            reopened.line_size)
        reopened.arm(range(first, last))
        reopened.commit(last - first)
        assert reopened.view("late").shape == (64,)


def test_kill_inside_detach_reopens_with_what_landed(manifest_path,
                                                     monkeypatch):
    heap = ShardedShadow.create(manifest_path, n_shards=2)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    x = mem.alloc("x", (32,), np.int32)       # shard 0
    mem.alloc("y", (32,), np.int32)           # shard 1
    mem.alloc("z", (128,), np.int32)          # shard 0
    with monkeypatch.context() as patch:
        _kill_after_directory_store(patch)
        with pytest.raises(_Killed):
            heap.detach("x")
    _abandon(heap)
    with ShardedShadow.open(manifest_path) as reopened:
        assert list(reopened.entries) == ["y", "z"]
        # Nothing stale pins x's old address to shard 0.
        reopened.attach(_buffer_at(x.base_addr, "x2", (32,), np.int32))
        assert reopened.shard_of_buffer("x2") == 1
        assert reopened._loads == [4, 2]


# ---------------------------------------------------------------------------
# Journal fan-out + torn-write containment
# ---------------------------------------------------------------------------

def _lines_of(heap, name):
    first, last = heap.entries[name].line_span(heap.line_size)
    return list(range(first, last))


def test_arm_partitions_lines_by_owning_shard(manifest_path):
    _filled_sharded(manifest_path)
    heap = ShardedShadow.open(manifest_path)
    name_a, name_b = "a", "b"
    shard_a = heap.shard_of_buffer(name_a)
    shard_b = heap.shard_of_buffer(name_b)
    assert shard_a != shard_b
    heap.arm(_lines_of(heap, name_a)[:2] + _lines_of(heap, name_b)[:3])
    assert heap.extents[shard_a]._read_journal() is not None
    assert heap.extents[shard_b]._read_journal() is not None
    for k, shard in enumerate(heap.extents):
        if k not in (shard_a, shard_b):
            assert shard._read_journal() is None
    heap.commit(5)
    assert all(s._read_journal() is None for s in heap.extents)
    assert heap.lines_written == 5
    heap.close()


def test_kill_mid_writeback_tears_only_the_armed_shard(manifest_path):
    _filled_sharded(manifest_path)
    heap = ShardedShadow.open(manifest_path)
    victim = heap.shard_of_buffer("c")
    torn_lines = _lines_of(heap, "c")[:2]
    heap.arm(torn_lines)
    _abandon(heap)
    with ShardedShadow.open(manifest_path) as reopened:
        assert sorted(reopened.torn_by_extent) == [victim]
        assert reopened.torn is not None
        assert list(reopened.torn.lines) == torn_lines
        assert reopened.torn_by_buffer() == {"c": 2}
    # Journals consumed: a second open sees a clean grid.
    with ShardedShadow.open(manifest_path) as again:
        assert again.torn is None


def test_unmapped_line_is_typed(manifest_path):
    heap = ShardedShadow.create(manifest_path, n_shards=2)
    with pytest.raises(HeapLayoutError, match="belongs to no shard"):
        heap.arm([10_000])
    heap.close()


def test_sharded_listener_fires_before_any_shard_commits(manifest_path):
    _filled_sharded(manifest_path)
    heap = ShardedShadow.open(manifest_path)
    armed_when_fired = []
    heap.writeback_listener = lambda _total: armed_when_fired.append(
        [k for k, s in enumerate(heap.extents)
         if s._read_journal() is not None])
    lines = _lines_of(heap, "a")[:1] + _lines_of(heap, "b")[:1]
    heap.arm(lines)
    involved = sorted({heap.shard_of_buffer("a"),
                       heap.shard_of_buffer("b")})
    heap.commit(2)
    # The sharded-level listener saw *every* involved journal armed —
    # a kill there is a torn write on all of them.
    assert armed_when_fired == [involved]
    heap.close()


def test_per_shard_listener_fires_inside_its_own_window(manifest_path):
    _filled_sharded(manifest_path)
    heap = ShardedShadow.open(manifest_path)
    shard_a = heap.shard_of_buffer("a")
    shard_b = heap.shard_of_buffer("b")
    states = []
    heap.extents[shard_b].writeback_listener = lambda _n: states.append((
        heap.extents[shard_a]._read_journal() is not None,
        heap.extents[shard_b]._read_journal() is not None,
    ))
    heap.arm(_lines_of(heap, "a")[:1] + _lines_of(heap, "b")[:1])
    heap.commit(2)
    # Shards commit in ascending order; when the later shard's
    # listener runs, earlier shards are already clean but its own
    # journal is still armed — the shard-kill containment window.
    assert shard_a < shard_b  # placement is deterministic for LAYOUT
    assert states == [(False, True)]
    heap.close()


# ---------------------------------------------------------------------------
# Adopt + worker sealing
# ---------------------------------------------------------------------------

def test_adopt_swaps_shadows_and_resets_volatile(manifest_path):
    expected = _filled_sharded(manifest_path)
    heap = ShardedShadow.open(manifest_path)
    mem = _layout_memory()
    mem.buffers["a"].data[:] = -1.0
    heap.adopt(mem)
    assert np.array_equal(mem.buffers["a"].data.ravel(), expected["a"])
    assert mem.shadow_backend is heap
    # Post-adopt write-backs land in the owning shard's file.
    buf = mem.buffers["a"]
    mem.write(buf, np.arange(10), np.full(10, 9.0))
    mem.drain()
    owner = heap.shard_of_buffer("a")
    assert np.array_equal(
        np.asarray(heap.extents[owner].view("a"))[:10], np.full(10, 9.0))
    heap.close()


def test_adopt_layout_mismatch_is_typed(manifest_path):
    _filled_sharded(manifest_path)
    with ShardedShadow.open(manifest_path) as heap:
        mem = GlobalMemory(cache_capacity_lines=4)
        mem.alloc("a", (300,), np.float32)  # dtype diverged
        with pytest.raises(HeapLayoutError):
            heap.adopt(mem)


# ---------------------------------------------------------------------------
# Degenerate configurations
# ---------------------------------------------------------------------------

def test_single_shard_heap_is_bit_identical_to_mapped(tmp_path):
    plain_path = tmp_path / "plain.lpnv"
    sharded_path = tmp_path / "sharded.lpnv"

    plain = MappedShadow.create(plain_path)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=plain)
    for name, shape, dtype in LAYOUT:
        mem.alloc(name, shape, dtype)
    _fill(mem)
    plain.close()

    _filled_sharded(sharded_path, n_shards=1)

    # The degenerate 1-shard heap IS a MappedShadow heap: same wire
    # format, same bytes.
    assert (shard_path(sharded_path, 0).read_bytes()
            == plain_path.read_bytes())
    # And the shard file opens fine as a plain heap.
    with MappedShadow.open(shard_path(sharded_path, 0)) as as_plain:
        assert sorted(as_plain.entries) == sorted(n for n, _, _ in LAYOUT)


def test_more_shards_than_blocks_cold_open_is_safe(tmp_path):
    path = tmp_path / "wide.lpnv"
    heap = ShardedShadow.create(path, n_shards=8)
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    buf = mem.alloc("only", (16,), np.int32)
    mem.write(buf, np.arange(16), np.arange(16, dtype=np.int32))
    mem.drain()
    heap.close()
    # 7 of the 8 shards are empty heaps; the cold open must still
    # reconstruct the grid and adopt cleanly.
    with ShardedShadow.open(path) as reopened:
        assert reopened.n_shards == 8
        assert list(reopened.entries) == ["only"]
        mem2 = GlobalMemory(cache_capacity_lines=4)
        mem2.alloc("only", (16,), np.int32)
        reopened.adopt(mem2)
        assert np.array_equal(mem2.buffers["only"].data,
                              np.arange(16, dtype=np.int32))


def test_extent_paths_are_the_manifest_named_shard_files(manifest_path):
    heap = ShardedShadow.create(manifest_path, n_shards=3)
    assert heap.extent_paths() == [shard_path(manifest_path, k)
                                   for k in range(3)]
    assert heap.n_shards == len(heap.extents) == 3
    assert heap.kind == "sharded"
    heap.close()


# ---------------------------------------------------------------------------
# shard_id tagging (ValidationReport / forensics, satellite 1)
# ---------------------------------------------------------------------------

def test_validation_and_forensics_carry_shard_id():
    from repro.core.recovery import ValidationReport
    from repro.obs.forensics import BlockForensics, ForensicsReport

    report = ValidationReport(n_blocks=4, failed_blocks=[],
                              missing_checksums=[], launch=None)
    assert report.shard_id == 0  # bit-compatible default

    block = BlockForensics(block_id=1, reason="missing-entry",
                           expected_lanes=None, found_lanes=None,
                           shard_id=2)
    assert block.to_dict()["shard_id"] == 2
    forensics = ForensicsReport(kernel="k", table="global-array",
                                n_blocks=4, failures=[block])
    assert forensics.to_dict()["shard_id"] == 0
    assert forensics.to_dict()["failures"][0]["shard_id"] == 2


# ---------------------------------------------------------------------------
# Read-only sharded inspector + schema v3
# ---------------------------------------------------------------------------

def _validate_schema(doc):
    from repro.obs.schema import load_schema, validate
    return validate(doc, load_schema("heap_inspect"))


def test_inspect_sharded_decodes_manifest_and_all_shards(manifest_path):
    expected = _filled_sharded(manifest_path)
    from repro.nvm import inspect_path

    report = inspect_path(manifest_path)
    assert report.n_shards == 4
    assert report.armed_extents() == []
    assert report.merged_torn() == {"torn_lines": 0, "torn_by_buffer": {}}
    names = sorted(e.name for shard in report.extents
                   for e in shard.entries)
    assert names == sorted(expected)
    assert _validate_schema(report.to_dict()) is None
    assert "sharded heap" in report.render_text()


def test_inspect_sharded_sees_armed_shard_without_clearing_it(
        manifest_path):
    _filled_sharded(manifest_path)
    heap = ShardedShadow.open(manifest_path)
    victim = heap.shard_of_buffer("b")
    heap.arm(_lines_of(heap, "b")[:3])
    _abandon(heap)
    from repro.nvm import inspect_path

    report = inspect_path(manifest_path)
    assert report.armed_extents() == [victim]
    merged = report.merged_torn()
    assert merged["torn_lines"] == 3
    assert merged["torn_by_buffer"] == {"b": 3}
    assert _validate_schema(report.to_dict()) is None
    # Read-only: a second inspection still sees the armed journal.
    assert inspect_path(manifest_path).armed_extents() == [victim]
    # ... and the live reopen still gets its torn window afterwards.
    with ShardedShadow.open(manifest_path) as reopened:
        assert sorted(reopened.torn_by_extent) == [victim]


def test_inspect_path_dispatches_on_magic(manifest_path):
    _filled_sharded(manifest_path)
    from repro.nvm import inspect_path

    # One report type either way: the manifest decodes with every shard
    # it names, a single shard file as the plain v1 heap it is.
    whole = inspect_path(manifest_path)
    assert whole.manifest.n_shards == len(whole.extents) == 4
    shard = inspect_path(shard_path(manifest_path, 0))
    assert shard.manifest is None and shard.n_shards == 0
    assert shard.extents == whole.extents[:1]
    assert _validate_schema(shard.to_dict()) is None


def test_diff_paths_sharded(tmp_path):
    path_a = tmp_path / "a.lpnv"
    path_b = tmp_path / "b.lpnv"
    _filled_sharded(path_a)
    _filled_sharded(path_b)
    from repro.nvm import diff_paths

    same = diff_paths(path_a, path_b)
    assert same.identical
    assert _validate_schema(same.to_dict()) is None

    # Mutate one buffer in B's owning shard (via the live heap so the
    # directory stays consistent), then diff again.
    with ShardedShadow.open(path_b) as heap:
        view = heap.view("a")
        view[:4] = 123.0
        heap.sync()
    differ = diff_paths(path_a, path_b)
    assert not differ.identical
    assert any(b.n_differing for d in differ.extents for b in d.buffers)
    assert _validate_schema(differ.to_dict()) is None


def test_diff_paths_mixed_kinds_is_typed(manifest_path):
    _filled_sharded(manifest_path)
    from repro.nvm import diff_paths

    with pytest.raises(HeapFormatError, match="cannot diff"):
        diff_paths(manifest_path, shard_path(manifest_path, 0))
