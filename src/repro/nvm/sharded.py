"""Sharded multi-heap NVM scale-out: N mapped heaps behind one backend.

:class:`MappedShadow` is a single mmap file, so write-back is one
serialized journal funnel and post-crash recovery is one sequential
pass over the whole heap. :class:`ShardedShadow` partitions the device
address space across N :class:`MappedShadow` shard files and is a
drop-in ``Device(shadow=...)`` / ``GlobalMemory(shadow=...)`` target:

* **Partitioning** — the address space is divided into fixed *address
  blocks* of ``block_lines`` consecutive cache lines, each owned by
  one shard. A buffer always lives wholly inside one shard (its
  shadow must be one contiguous mapped view), so blocks are assigned
  buffer-at-a-time: blocks already claimed by an overlapping buffer
  pin the shard, otherwise the least-loaded shard (fewest mapped
  blocks, ties to the lowest id) wins. Every shard file is an
  ordinary v1 heap mirroring the *full* device address space
  (sparse), so entries keep their global ``base_addr``.

* **Placement is derived, not stored** — a shard's own v1 directory
  names the buffers, hence the address blocks
  (:func:`repro.nvm.layout.address_blocks`), it owns, so the
  directories are the only durable record of the block→shard map and
  :meth:`open` rebuilds it from them. The CRC-guarded manifest next to
  the shards holds the static topology (shard count, line size, block
  granularity, file names) and is written once, by :meth:`create`.
  :meth:`attach` / :meth:`detach` are one shard's directory store — a
  plain mmap store, the guarantee :class:`MappedShadow` gives — plus
  an in-memory update, so a kill anywhere inside them leaves a heap
  that reopens with exactly the buffers whose store landed: there is
  no second file to fall out of step with.

* **Containment** — each shard keeps its own v1 header and torn-write
  journal, so a write torn by a crash is contained to the shard it
  targeted. This is sound for exactly the reason the paper's recovery
  is block-parallel: an LP region is a thread block, and no checksum
  couples two blocks that land in different shards.

* **Fan-out** — :meth:`arm` partitions a write-back's lines by shard
  and arms each involved shard's journal; :meth:`commit` commits them
  in ascending shard order. Per-shard ``writeback_listener`` hooks
  fire inside each shard's own armed window, which is what lets the
  crash harness kill *one* shard's write-back mid-arm while the other
  shards stay clean.

* **Concurrent recovery** — :meth:`open` validates and reopens all
  shards concurrently (one thread per shard).

Consumers never pick a class: :func:`create_heap` / :func:`open_heap`
(re-exported by :mod:`repro.nvm`) are the two constructors, and both
classes answer the same surface — ``kind``, ``n_shards``, ``extents``,
``torn_by_extent``, ``extent_paths()`` — a plain :class:`MappedShadow`
as its own single extent.

No crash of this code leaves two shards claiming one address block or
one buffer name; :meth:`open` refuses such a shard set as corrupt.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.errors import (
    AllocationError,
    HeapCorruptError,
    HeapFormatError,
    HeapLayoutError,
    HeapTruncatedError,
    ReproError,
)
from repro.nvm import layout
from repro.nvm.layout import (
    DEFAULT_DATA_CAPACITY,
    DEFAULT_DIR_CAPACITY,
    DEFAULT_SHARD_BLOCK_LINES,
    JOURNAL_CAPACITY,
    HeapEntry,
    ShardManifest,
)
from repro.nvm.mapped import MappedShadow, TornWindow, adopt_images
from repro.obs import current as _recorder

__all__ = [
    "DEFAULT_SHARD_BLOCK_LINES",
    "ShardedShadow",
    "copy_heap",
    "create_heap",
    "locate_extents",
    "open_heap",
    "read_manifest",
    "shard_path",
]


def shard_path(manifest_path, shard: int) -> Path:
    """Path of one shard's heap file next to its manifest."""
    manifest_path = Path(manifest_path)
    return manifest_path.with_name(f"{manifest_path.name}.shard{shard}")


def _read(path, n: int = -1) -> bytes:
    try:
        with open(path, "rb") as fileobj:
            return fileobj.read(n)
    except OSError as exc:
        raise HeapTruncatedError(
            f"cannot read heap file {path}: {exc}") from None


def _is_manifest(path) -> bool:
    """The one magic sniff. Bytes that are neither a manifest nor a heap
    are for :meth:`MappedShadow.open` / the inspector's cold decoder to
    refuse; a missing or unreadable path is a typed
    :class:`~repro.errors.HeapTruncatedError`, as at every other entry.
    """
    return layout.is_manifest(_read(path, len(layout.MANIFEST_MAGIC)))


def read_manifest(path) -> ShardManifest:
    """Decode the shard manifest at ``path``; raises typed errors."""
    return layout.parse_manifest(_read(path), path)


def locate_extents(path) -> tuple[ShardManifest | None, list[Path]]:
    """A heap's manifest (``None`` for a plain file) and the N >= 1 v1
    extent files it is made of, read cold — nothing is opened."""
    path = Path(path)
    if not _is_manifest(path):
        return None, [path]
    manifest = read_manifest(path)
    return manifest, [path.with_name(name) for name in manifest.shard_names]


class ShardedShadow:
    """N mapped heap shards behind the single shadow-backend contract.

    Use :meth:`create` for a fresh sharded heap and :meth:`open` to
    reconstruct one cold from its manifest after a crash; both return
    an object interchangeable with :class:`MappedShadow` everywhere a
    shadow backend is accepted (``Device``, ``GlobalMemory``, the
    crash harness, the ``adopt`` flow).
    """

    def __init__(self, path: Path, shards: list[MappedShadow],
                 line_size: int, block_lines: int) -> None:
        self.path = Path(path)
        #: The shard heaps, index == shard id.
        self.extents = shards
        self.line_size = line_size
        self.block_lines = block_lines
        #: Address block id -> owning shard, derived from the shard
        #: directories; ``_block_refs`` counts the buffers overlapping
        #: each mapped block and ``_loads`` the blocks each shard owns.
        self._block_map: dict[int, int] = {}
        self._block_refs: dict[int, int] = {}
        self._loads = [0] * len(shards)
        #: Buffer name -> owning shard id.
        self._owner: dict[str, int] = {}
        self._derive_placement()
        #: Merged address-ordered directory across all shards.
        self.entries: dict[str, HeapEntry] = dict(sorted(
            ((name, entry) for shard in shards
             for name, entry in shard.entries.items()),
            key=lambda item: item[1].base_addr))
        #: Per-shard torn windows found at :meth:`open`.
        self.torn_by_extent: dict[int, TornWindow] = {
            k: shard.torn for k, shard in enumerate(shards)
            if shard.torn is not None}
        #: Merged torn window across shards (``None`` when clean).
        self.torn = self._merge_torn(self.torn_by_extent)
        #: Sharded-level hooks, mirroring :class:`MappedShadow`. The
        #: write-back listener fires *before* any shard journal
        #: clears; per-shard listeners (``extents[k].writeback_listener``)
        #: fire inside shard ``k``'s own armed window.
        self.writeback_listener = None
        self.arm_listener = None
        self.lines_written = 0
        #: Last :meth:`arm` partition: shard id -> armed line count.
        self._armed: dict[int, int] = {}
        self._closed = False

    #: Backend name ``repro serve`` prints and ``stats()`` reports.
    kind = "sharded"

    @property
    def n_shards(self) -> int:
        return len(self.extents)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        n_shards: int,
        line_size: int = 128,
        dir_capacity: int = DEFAULT_DIR_CAPACITY,
        data_capacity: int = DEFAULT_DATA_CAPACITY,
        block_lines: int = DEFAULT_SHARD_BLOCK_LINES,
    ) -> "ShardedShadow":
        """Create a fresh manifest + ``n_shards`` empty shard heaps."""
        if n_shards <= 0:
            raise HeapFormatError("a sharded heap needs n_shards >= 1")
        if block_lines <= 0:
            raise HeapFormatError("block_lines must be positive")
        path = Path(path)
        rec = _recorder()
        with rec.trace.span("heap.sharded.create", cat="nvm", track="nvm",
                            path=str(path), shards=n_shards):
            shards: list[MappedShadow] = []
            try:
                for k in range(n_shards):
                    shards.append(MappedShadow.create(
                        shard_path(path, k), line_size, dir_capacity,
                        data_capacity))
            except BaseException:
                # No manifest will name what this call made so far.
                for shard in shards:
                    shard.close()
                    shard.path.unlink()
                raise
        heap = cls(path, shards, line_size, block_lines)
        heap._write_manifest()
        if rec.metrics.active:
            rec.metrics.set_gauge("nvm.sharded.shards", n_shards)
        return heap

    @classmethod
    def open(cls, path) -> "ShardedShadow":
        """Reopen a cold sharded heap from its manifest, concurrently.

        Each shard is validated and reopened on its own thread (one
        :meth:`MappedShadow.open` per shard, so per-shard torn windows
        and typed errors are exactly the single-heap ones), then the
        block→shard map is re-derived from their directories. Raises
        the same ``Heap*`` errors as :meth:`MappedShadow.open`, plus
        :class:`~repro.errors.HeapCorruptError` when the directories
        contradict the manifest or each other.
        """
        path = Path(path)
        rec = _recorder()
        with rec.trace.span("heap.sharded.reopen", cat="nvm", track="nvm",
                            path=str(path)):
            manifest = read_manifest(path)

            def open_shard(k: int) -> MappedShadow:
                with rec.trace.span("heap.shard.reopen", cat="nvm",
                                    track="nvm", shard=k):
                    return MappedShadow.open(
                        path.with_name(manifest.shard_names[k]))

            opened: list[MappedShadow | None] = [None] * manifest.n_shards
            if manifest.n_shards == 1:
                opened[0] = open_shard(0)
            else:
                with ThreadPoolExecutor(
                        max_workers=manifest.n_shards) as pool:
                    futures = [pool.submit(open_shard, k)
                               for k in range(manifest.n_shards)]
                    try:
                        for k, future in enumerate(futures):
                            opened[k] = future.result()
                    except BaseException:
                        for shard in opened:
                            if shard is not None:
                                shard.close()
                        raise
            shards = [shard for shard in opened if shard is not None]
            try:
                heap = cls(path, shards, manifest.line_size,
                           manifest.block_lines)
            except ReproError:
                for shard in shards:
                    shard.close()
                raise
        if rec.metrics.active:
            rec.metrics.inc("nvm.sharded.reopens")
            rec.metrics.set_gauge("nvm.sharded.shards", heap.n_shards)
            for k, torn in heap.torn_by_extent.items():
                rec.metrics.inc("nvm.sharded.torn_lines", torn.n_lines,
                                shard=str(k))
        if rec.trace.enabled and heap.torn is not None:
            rec.trace.instant(
                "heap.sharded.torn", cat="nvm", track="nvm",
                n_lines=heap.torn.n_lines,
                shards=sorted(heap.torn_by_extent),
            )
        return heap

    def _derive_placement(self) -> None:
        """Rebuild owner / block map / loads from the shard directories."""
        for k, shard in enumerate(self.extents):
            if shard.line_size != self.line_size:
                raise HeapCorruptError(
                    f"{self.path}: shard {k} has line size "
                    f"{shard.line_size}, manifest says {self.line_size}"
                )
            for name, entry in shard.entries.items():
                if name in self._owner:
                    raise HeapCorruptError(
                        f"{self.path}: buffer {name!r} appears in shard "
                        f"{self._owner[name]} and shard {k}"
                    )
                blocks = self._blocks_of(entry)
                rivals = self._pinned(blocks) - {k}
                if rivals:
                    raise HeapCorruptError(
                        f"{self.path}: buffer {name!r} in shard {k} "
                        f"claims address blocks that shard(s) "
                        f"{sorted(rivals)} already own"
                    )
                self._claim(name, blocks, k)

    # ------------------------------------------------------------------
    # Shadow-backend interface (GlobalMemory plugs in here)
    # ------------------------------------------------------------------

    def attach(self, buf) -> np.ndarray:
        """Home ``buf`` in one shard; its directory records the claim."""
        self._check_open()
        if buf.name in self.entries:
            raise AllocationError(
                f"buffer {buf.name!r} already lives in sharded heap "
                f"{self.path}"
            )
        blocks = self._blocks_of(buf)
        shard_id = self._place(buf.name, blocks)
        view = self.extents[shard_id].attach(buf)
        self._claim(buf.name, blocks, shard_id)
        self.entries[buf.name] = self.extents[shard_id].entries[buf.name]
        return view

    def detach(self, name: str) -> None:
        """Drop a freed buffer from its shard and release its blocks."""
        self._check_open()
        if name not in self.entries:
            return
        shard_id = self._owner[name]
        self.extents[shard_id].detach(name)
        del self._owner[name]
        for block in self._blocks_of(self.entries.pop(name)):
            self._block_refs[block] -= 1
            if not self._block_refs[block]:
                del self._block_refs[block], self._block_map[block]
                self._loads[shard_id] -= 1

    def view(self, name: str) -> np.ndarray:
        """The mapped NVM image of one entry, from its owning shard."""
        self._check_open()
        return self.extents[self._owner[name]].view(name)

    def adopt(self, memory) -> None:
        """Swap a rebuilt memory's shadows for the shards' cold images.

        Same contract as :meth:`MappedShadow.adopt`, validated against
        the *union* directory: the rebuilt memory must reproduce every
        persistent buffer across all shards, byte-compatible, and each
        buffer's shadow becomes a view into its owning shard.
        """
        self._check_open()
        adopt_images(self, memory)

    # ------------------------------------------------------------------
    # Write-back journal fan-out
    # ------------------------------------------------------------------

    def arm(self, line_ids) -> None:
        """Partition a write-back by shard and arm each shard's journal."""
        self._check_open()
        parts: dict[int, list[int]] = {}
        for lid in line_ids:
            parts.setdefault(self._shard_of_line(int(lid)), []).append(
                int(lid))
        for shard_id in sorted(parts):
            self.extents[shard_id].arm(parts[shard_id])
        self._armed = {shard_id: len(lines)
                       for shard_id, lines in parts.items()}
        rec = _recorder()
        if rec.metrics.active:
            rec.metrics.inc("nvm.sharded.writeback.shards", len(parts))
        listener = self.arm_listener
        if listener is not None:
            exact = all(n <= JOURNAL_CAPACITY for n in self._armed.values())
            listener([int(lid) for lid in line_ids],
                     "exact" if exact else "range")

    def commit(self, n_lines: int) -> None:
        """Complete the fanned-out write-back, shard by shard.

        The sharded-level listener fires first — while *every* involved
        shard journal is still armed, matching the single-heap "kill
        here leaves the journal armed" semantics. Each shard then
        commits in ascending order; a per-shard listener that kills the
        process leaves that shard (and only later-ordered shards of the
        same write-back) armed while already-committed shards are
        clean.
        """
        self.lines_written += n_lines
        listener = self.writeback_listener
        if listener is not None:
            listener(self.lines_written)
        armed, self._armed = self._armed, {}
        for shard_id in sorted(armed):
            self.extents[shard_id].commit(armed[shard_id])

    def torn_lines(self) -> list[int]:
        """Merged torn-write window across all shards (maybe [])."""
        return list(self.torn.lines) if self.torn is not None else []

    def torn_by_buffer(self) -> dict[str, int]:
        """Torn-write suspects attributed to buffers, all shards."""
        out: dict[str, int] = {}
        for shard in self.extents:
            out.update(shard.torn_by_buffer())
        return out

    # ------------------------------------------------------------------
    # Durability and lifecycle
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """``msync`` every shard, in shard order."""
        self._check_open()
        with _recorder().trace.span("heap.sharded.sync", cat="nvm",
                                    track="nvm", shards=self.n_shards):
            for shard in self.extents:
                shard.sync()

    def close(self) -> None:
        """Flush and release every shard mapping."""
        if self._closed:
            return
        self._closed = True
        for shard in self.extents:
            shard.close()

    def __enter__(self) -> "ShardedShadow":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shard topology accessors (harness, inspector)
    # ------------------------------------------------------------------

    def shard_of_buffer(self, name: str) -> int:
        """The shard that owns a directory buffer."""
        return self._owner[name]

    def extent_paths(self) -> list[Path]:
        return [shard.path for shard in self.extents]

    def manifest(self) -> ShardManifest:
        """This heap's static topology, as :meth:`create` recorded it."""
        return ShardManifest(
            n_shards=self.n_shards, line_size=self.line_size,
            block_lines=self.block_lines,
            shard_names=tuple(shard.path.name for shard in self.extents),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise HeapFormatError(f"sharded heap {self.path} is closed")

    def _shard_of_line(self, line_id: int) -> int:
        block = line_id // self.block_lines
        try:
            return self._block_map[block]
        except KeyError:
            raise HeapLayoutError(
                f"line {line_id} (address block {block}) belongs to no "
                f"shard of {self.path}"
            ) from None

    def _blocks_of(self, span) -> range:
        return layout.address_blocks(span, self.line_size,
                                     self.block_lines)

    def _pinned(self, blocks: range) -> set[int]:
        """Shards that already own any of ``blocks``."""
        return {self._block_map[b] for b in blocks
                if b in self._block_map}

    def _place(self, name: str, blocks: range) -> int:
        """Pick the owning shard for a new buffer's address blocks."""
        pinned = self._pinned(blocks)
        if len(pinned) > 1:
            raise HeapLayoutError(
                f"buffer {name!r} spans address blocks already split "
                f"across shards {sorted(pinned)} — a buffer must live "
                "wholly inside one shard"
            )
        if pinned:
            return pinned.pop()
        return self._loads.index(min(self._loads))

    def _claim(self, name: str, blocks: range, shard_id: int) -> None:
        """Record that ``shard_id``'s directory holds buffer ``name``."""
        self._owner[name] = shard_id
        for block in blocks:
            refs = self._block_refs.get(block, 0)
            if not refs:
                self._block_map[block] = shard_id
                self._loads[shard_id] += 1
            self._block_refs[block] = refs + 1

    def _write_manifest(self) -> None:
        """Persist the manifest (write-temp + rename); :meth:`create` only."""
        payload = layout.pack_manifest(self.manifest())
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fileobj:
            fileobj.write(payload)
            fileobj.flush()
            os.fsync(fileobj.fileno())
        os.replace(tmp, self.path)
        rec = _recorder()
        if rec.metrics.active:
            rec.metrics.inc("nvm.sharded.manifest_writes")

    @staticmethod
    def _merge_torn(torn_by_shard: dict[int, TornWindow]) \
            -> TornWindow | None:
        if not torn_by_shard:
            return None
        lines: list[int] = []
        for torn in torn_by_shard.values():
            lines.extend(torn.lines)
        exact = all(torn.exact for torn in torn_by_shard.values())
        return TornWindow(lines=tuple(sorted(lines)), exact=exact)


def create_heap(path, shards: int = 0) -> "MappedShadow | ShardedShadow":
    """Create a fresh durable heap at ``path``.

    ``shards`` is the CLI's ``--shards``: 0 makes a bare
    :class:`MappedShadow` file, N > 0 an N-shard
    :class:`ShardedShadow` behind a manifest.
    """
    if shards > 0:
        return ShardedShadow.create(path, n_shards=shards)
    return MappedShadow.create(path)


def open_heap(path) -> "MappedShadow | ShardedShadow":
    """Open an existing durable heap, dispatching on its on-disk magic.

    A plain ``LPNVHEAP`` file reopens as a :class:`MappedShadow`; an
    ``LPNVMANI`` shard manifest reopens as a :class:`ShardedShadow`
    (which reopens every shard). One ``--heap`` path therefore restarts
    correctly whatever layout created it, and the caller reads the
    layout back off the shared surface (``n_shards``, ``extents``).
    """
    if _is_manifest(path):
        return ShardedShadow.open(path)
    return MappedShadow.open(path)


def copy_heap(src, dest) -> None:
    """Copy a heap's files byte for byte, armed journals and all.

    The plain file or manifest lands at ``dest``; shard files land
    beside it under the names the manifest lists, so the copy opens.
    ``dest`` must therefore be in another directory than ``src``.
    """
    manifest, extents = locate_extents(src)
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(src, dest)
    if manifest is not None:
        for extent in extents:
            shutil.copyfile(extent, dest.with_name(extent.name))
