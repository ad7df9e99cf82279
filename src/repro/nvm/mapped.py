"""Durable mmap-backed NVM shadow: the heap that outlives the process.

Everywhere else in the simulator the NVM image of a persistent buffer
is a plain host array (``Buffer.shadow``) — a crash is an in-process
simulation and nothing survives the interpreter. :class:`MappedShadow`
replaces those arrays with views into one memory-mapped **heap file**,
so every line the write-back cache evicts (or a drain flushes) lands in
a real file that survives ``SIGKILL``. The out-of-process crash harness
(:mod:`repro.harness`) is built on exactly this property: kill a worker
process mid-launch, reopen the heap cold in the parent, and run the
paper's validate → recover pipeline against "the data found in NVM".

On-disk format (version 1, little-endian)::

    offset 0      header   magic "LPNVHEAP", version, line size,
                           directory capacity, data offset,
                           directory length, directory CRC32
    offset 64     journal  write-back intent record: lines whose
                           NVM copy was in flight when the process
                           died (the torn-write window)
    offset 4224   directory  JSON array of buffer descriptors
                           (name, dtype, shape, base address, role)
    data offset   data     each persistent buffer's shadow image at
                           ``data offset + buffer.base_addr`` — the
                           file mirrors the device address space

The directory is rewritten (and CRC'd) on every allocate/free, so a
kill at any instant leaves a self-describing file. Data-region pages
are ``MAP_SHARED``: a killed process's completed stores are already in
the page cache and therefore visible to whoever reopens the file.
:meth:`MappedShadow.open` refuses corrupt, truncated or
version-mismatched files with typed errors — never silent garbage.

Torn writes: :meth:`arm` records the line ids of a write-back *before*
the data copy and :meth:`commit` clears the record after it. A process
killed inside that window leaves the journal armed; the next
:meth:`open` surfaces those lines as :attr:`torn`, attributable to
buffers via :meth:`torn_by_buffer`. This is deliberately conservative:
an armed journal means "these lines may hold a mix of old and new
bytes", which is exactly the state LP's checksum validation exists to
catch.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    AllocationError,
    HeapFormatError,
    HeapFullError,
    HeapLayoutError,
    HeapTruncatedError,
    ReproError,
)
from repro.nvm import layout
from repro.nvm.layout import (
    DEFAULT_DATA_CAPACITY,
    DEFAULT_DIR_CAPACITY,
    JOURNAL_CAPACITY,
    MAGIC,
    VERSION,
    HeapEntry,
    table_role,
)
from repro.obs import current as _recorder

# The byte-level format lives in :mod:`repro.nvm.layout`, shared with
# the read-only inspector. These aliases keep the historical private
# names importable.
_HEADER = layout.HEADER
_JOURNAL_HEAD = layout.JOURNAL_HEAD
_HEADER_OFFSET = layout.HEADER_OFFSET
_JOURNAL_OFFSET = layout.JOURNAL_OFFSET
_DIR_OFFSET = layout.DIR_OFFSET
_JOURNAL_EMPTY = layout.JOURNAL_EMPTY
_JOURNAL_EXACT = layout.JOURNAL_EXACT
_JOURNAL_RANGE = layout.JOURNAL_RANGE

__all__ = [
    "DEFAULT_DATA_CAPACITY",
    "DEFAULT_DIR_CAPACITY",
    "JOURNAL_CAPACITY",
    "MAGIC",
    "VERSION",
    "HeapEntry",
    "MappedShadow",
    "TornWindow",
    "table_role",
]


@dataclass(frozen=True)
class TornWindow:
    """Write-back intent found armed at open: the torn-write suspects."""

    #: Exact line ids when the journal recorded them; for oversized
    #: write-backs this is every line in the recorded [first, last]
    #: range (conservative).
    lines: tuple[int, ...]
    #: True when ``lines`` is the exact armed set, False for the
    #: range fallback.
    exact: bool

    @property
    def n_lines(self) -> int:
        return len(self.lines)


class MappedShadow:
    """An mmap-backed persistence domain: the durable NVM heap.

    Use :meth:`create` for a fresh heap (then hand it to
    ``Device(shadow=...)`` / ``GlobalMemory(shadow=...)`` so every
    persistent allocation's shadow lives in the file), or :meth:`open`
    to reconstruct the directory from a cold file after a crash and
    :meth:`adopt` the images into a rebuilt
    :class:`~repro.gpu.memory.GlobalMemory`.
    """

    def __init__(self, path: Path, mm: mmap.mmap, fileobj,
                 line_size: int, dir_capacity: int, data_offset: int,
                 entries: dict[str, HeapEntry],
                 torn: TornWindow | None = None) -> None:
        self.path = Path(path)
        self._mm = mm
        self._file = fileobj
        self.line_size = line_size
        self.dir_capacity = dir_capacity
        self.data_offset = data_offset
        #: Allocation-ordered directory: name -> :class:`HeapEntry`.
        self.entries = entries
        #: Torn-write suspects found at :meth:`open` (``None`` for a
        #: fresh heap or a cleanly closed one).
        self.torn = torn
        #: Called by :meth:`commit` with the cumulative line count —
        #: the crash harness's write-back kill trigger. Invoked while
        #: the journal is still armed, so a trigger that kills the
        #: process models a torn write-back.
        self.writeback_listener = None
        #: Optional ``f(line_ids, mode)`` hook fired at the top of the
        #: journal window, right after the intent record lands and
        #: before any data byte moves (``mode`` is ``"exact"`` or
        #: ``"range"``). The crash-state model checker records every
        #: arm bracket through this to enumerate torn-write windows.
        self.arm_listener = None
        #: Total lines committed through this handle.
        self.lines_written = 0
        #: Live buffers whose ``shadow`` views this heap owns
        #: (re-attached after a grow remaps the file).
        self._attached: dict[str, object] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # The heap surface shared with ShardedShadow: a heap is N >= 1 v1
    # extents, and a plain heap file is its own single extent.
    # ------------------------------------------------------------------

    #: Backend name ``repro serve`` prints and ``stats()`` reports.
    kind = "mapped"
    #: Shards a manifest names — none: a plain heap is one bare file
    #: (the ``shards`` value :func:`repro.nvm.create_heap` makes it from).
    n_shards = 0

    @property
    def extents(self) -> tuple["MappedShadow", ...]:
        """The v1 heap handles a per-extent kill trigger hangs on."""
        return (self,)

    @property
    def torn_by_extent(self) -> dict[int, TornWindow]:
        """Torn windows found at :meth:`open`, by extent index."""
        return {} if self.torn is None else {0: self.torn}

    def extent_paths(self) -> list[Path]:
        return [self.path]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        line_size: int = 128,
        dir_capacity: int = DEFAULT_DIR_CAPACITY,
        data_capacity: int = DEFAULT_DATA_CAPACITY,
    ) -> "MappedShadow":
        """Create a fresh heap file (truncating any existing one)."""
        if line_size <= 0 or line_size & (line_size - 1):
            raise HeapFormatError("line_size must be a positive power of two")
        data_offset = _DIR_OFFSET + dir_capacity
        data_offset += (-data_offset) % line_size
        path = Path(path)
        fileobj = open(path, "w+b")
        fileobj.truncate(data_offset + data_capacity)
        mm = mmap.mmap(fileobj.fileno(), 0, access=mmap.ACCESS_WRITE)
        heap = cls(path, mm, fileobj, line_size, dir_capacity,
                   data_offset, entries={})
        heap._write_directory()
        heap._write_journal_empty()
        return heap

    @classmethod
    def open(cls, path) -> "MappedShadow":
        """Reopen a cold heap file, validating format and directory.

        Raises :class:`~repro.errors.HeapTruncatedError`,
        :class:`~repro.errors.HeapFormatError`,
        :class:`~repro.errors.HeapVersionError` or
        :class:`~repro.errors.HeapCorruptError` rather than ever
        returning garbage. An armed write-back journal is surfaced as
        :attr:`torn` and cleared in the file.
        """
        path = Path(path)
        rec = _recorder()
        with rec.trace.span("heap.reopen", cat="nvm", track="nvm",
                            path=str(path)):
            heap = cls._open_validated(path)
        if rec.metrics.active:
            rec.metrics.inc("nvm.mapped.reopens")
            if heap.torn is not None:
                for name, n in heap.torn_by_buffer().items():
                    rec.metrics.inc("nvm.mapped.torn_lines", n,
                                    buffer=name)
        if rec.trace.enabled and heap.torn is not None:
            rec.trace.instant(
                "heap.torn", cat="nvm", track="nvm",
                n_lines=heap.torn.n_lines, exact=heap.torn.exact,
            )
        return heap

    @classmethod
    def _open_validated(cls, path: Path) -> "MappedShadow":
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise HeapTruncatedError(f"cannot stat heap file {path}: {exc}") \
                from None
        if size < _DIR_OFFSET:
            raise HeapTruncatedError(
                f"heap file {path} is {size} bytes — smaller than the "
                f"{_DIR_OFFSET}-byte header+journal region"
            )
        fileobj = open(path, "r+b")
        try:
            mm = mmap.mmap(fileobj.fileno(), 0, access=mmap.ACCESS_WRITE)
        except (ValueError, OSError) as exc:
            fileobj.close()
            raise HeapTruncatedError(f"cannot map heap file {path}: {exc}") \
                from None

        try:
            raw = mm[_HEADER_OFFSET:_HEADER_OFFSET + _HEADER.size]
            header = layout.parse_header(raw, path)
            if size < header.data_offset:
                raise HeapTruncatedError(
                    f"{path}: file ends at {size} bytes, before its data "
                    f"region at {header.data_offset}"
                )
            dir_bytes = bytes(mm[_DIR_OFFSET:_DIR_OFFSET + header.dir_len])
            entries = layout.parse_directory(dir_bytes, header.dir_crc,
                                             path)
            extent = max(
                (e.base_addr + e.padded_bytes for e in entries.values()),
                default=0,
            )
            if size < header.data_offset + extent:
                raise HeapTruncatedError(
                    f"{path}: directory declares {extent} data bytes but "
                    f"the file holds only {size - header.data_offset}"
                )
        except ReproError:
            mm.close()
            fileobj.close()
            raise

        heap = cls(path, mm, fileobj, header.line_size,
                   header.dir_capacity, header.data_offset, entries)
        heap.torn = heap._read_journal()
        heap._write_journal_empty()
        return heap

    # ------------------------------------------------------------------
    # Shadow-backend interface (GlobalMemory plugs in here)
    # ------------------------------------------------------------------

    def attach(self, buf) -> np.ndarray:
        """Give ``buf``'s NVM image a home in the heap file.

        Registers a directory entry, grows the file if needed, seeds
        the mapped region from the buffer's current shadow (its
        ``init`` data, or zeros) and returns the mapped view to use as
        ``buf.shadow``.
        """
        self._check_open()
        if buf.name in self.entries:
            raise AllocationError(
                f"buffer {buf.name!r} already lives in heap {self.path}"
            )
        entry = HeapEntry(
            name=buf.name, dtype=buf.dtype, shape=tuple(buf.shape),
            base_addr=buf.base_addr, nbytes=buf.nbytes,
            padded_bytes=buf.padded_bytes, role=table_role(buf.name),
        )
        self._ensure_capacity(entry.base_addr + entry.padded_bytes)
        self.entries[entry.name] = entry
        try:
            self._write_directory()
        except HeapFullError:
            del self.entries[entry.name]
            raise
        view = self.view(entry.name)
        if buf.shadow is not None:
            view[:] = buf.shadow
        else:
            view[:] = 0
        self._attached[entry.name] = buf
        return view

    def detach(self, name: str) -> None:
        """Drop a freed buffer from the directory."""
        self._check_open()
        if name in self.entries:
            del self.entries[name]
            self._attached.pop(name, None)
            self._write_directory()

    def view(self, name: str) -> np.ndarray:
        """The mapped NVM image of one directory entry (1-D, typed)."""
        self._check_open()
        entry = self.entries[name]
        return np.frombuffer(
            self._mm, dtype=entry.dtype, count=entry.size,
            offset=self.data_offset + entry.base_addr,
        )

    def adopt(self, memory) -> None:
        """Swap a rebuilt memory's shadows for this heap's cold images.

        ``memory`` must have been set up exactly as before the crash
        (same allocation sequence — workload setup and LP
        instrumentation are deterministic, so re-running them
        reproduces the layout). Every persistent buffer's shadow
        becomes a mapped view and its volatile image is reset to the
        persisted contents — the state a machine reboots into. The
        memory's write-back target becomes this heap.

        Raises :class:`~repro.errors.HeapLayoutError` when the live
        layout disagrees with the directory in any way.
        """
        self._check_open()
        adopt_images(self, memory)

    # ------------------------------------------------------------------
    # Write-back journal (torn-write window)
    # ------------------------------------------------------------------

    def arm(self, line_ids) -> None:
        """Record write-back intent for ``line_ids`` before the copy."""
        self._check_open()
        payload = layout.pack_journal(line_ids)
        self._mm[_JOURNAL_OFFSET:_JOURNAL_OFFSET + len(payload)] = payload
        rec = _recorder()
        if rec.trace.enabled:
            # The last event a kill-inside-the-window trace holds is
            # this arming record — the torn lines, named.
            rec.trace.instant(
                "nvm.writeback.arm", cat="nvm", track="nvm",
                n_lines=len(line_ids),
            )
        listener = self.arm_listener
        if listener is not None:
            exact = len(line_ids) <= JOURNAL_CAPACITY
            listener([int(lid) for lid in line_ids],
                     "exact" if exact else "range")

    def commit(self, n_lines: int) -> None:
        """Count a completed write-back and clear the intent record.

        The listener fires *before* the journal clears: a listener
        that kills the process (the harness's write-back trigger)
        leaves the journal armed, exactly like a power failure inside
        the copy.
        """
        self.lines_written += n_lines
        listener = self.writeback_listener
        if listener is not None:
            listener(self.lines_written)
        self._write_journal_empty()

    def torn_lines(self) -> list[int]:
        """Line ids of the torn-write window found at open (maybe [])."""
        return list(self.torn.lines) if self.torn is not None else []

    def torn_by_buffer(self) -> dict[str, int]:
        """Torn-write suspects attributed to directory buffers."""
        if self.torn is None:
            return {}
        out: dict[str, int] = {}
        for entry in self.entries.values():
            first, last = entry.line_span(self.line_size)
            n = sum(1 for lid in self.torn.lines if first <= lid < last)
            if n:
                out[entry.name] = n
        return out

    def _read_journal(self) -> TornWindow | None:
        end = _JOURNAL_OFFSET + layout.journal_region_size()
        record = layout.parse_journal(self._mm[_JOURNAL_OFFSET:end],
                                      self.path)
        if not record.armed:
            return None
        return TornWindow(lines=record.lines, exact=record.exact)

    def _write_journal_empty(self) -> None:
        self._mm[_JOURNAL_OFFSET:_JOURNAL_OFFSET + _JOURNAL_HEAD.size] = \
            layout.pack_journal_empty()

    # ------------------------------------------------------------------
    # Durability and lifecycle
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """``msync`` the whole heap (drain-time durability point)."""
        self._check_open()
        with _recorder().trace.span("heap.sync", cat="nvm", track="nvm"):
            self._mm.flush()

    def close(self) -> None:
        """Flush and release the mapping.

        Outstanding numpy views keep their (still valid, still shared)
        pages alive; the mapping itself is only closed once they die.
        """
        if self._closed:
            return
        self._closed = True
        self._mm.flush()
        try:
            self._mm.close()
        except BufferError:
            # numpy views still reference the map; abandon it to GC.
            pass
        self._file.close()

    def __enter__(self) -> "MappedShadow":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise HeapFormatError(f"heap {self.path} is closed")

    def _write_directory(self) -> None:
        payload = layout.pack_directory(self.entries.values())
        if len(payload) > self.dir_capacity:
            raise HeapFullError(
                f"heap {self.path} directory region ({self.dir_capacity} "
                f"bytes) cannot hold {len(payload)} bytes of descriptors; "
                "recreate the heap with a larger dir_capacity"
            )
        header = layout.pack_header(self.line_size, self.dir_capacity,
                                    self.data_offset, payload)
        self._mm[_HEADER_OFFSET:_HEADER_OFFSET + len(header)] = header
        self._mm[_DIR_OFFSET:_DIR_OFFSET + len(payload)] = payload

    def _ensure_capacity(self, data_bytes: int) -> None:
        """Grow the file (sparse) so the data region holds ``data_bytes``."""
        need = self.data_offset + data_bytes
        size = os.path.getsize(self.path)
        if need <= size:
            return
        new_size = max(need, size * 2)
        self._file.truncate(new_size)
        old = self._mm
        self._mm = mmap.mmap(self._file.fileno(), 0,
                             access=mmap.ACCESS_WRITE)
        try:
            old.close()
        except BufferError:
            pass  # superseded views keep the old map alive until GC
        # Re-point every live buffer's shadow at the new mapping.
        for name, buf in self._attached.items():
            buf.shadow = self.view(name)


def adopt_images(heap, memory) -> None:
    """The one ``adopt``: check ``memory`` against ``heap``'s directory,
    then swap in every extent's cold images.

    ``heap`` is either backend — :class:`MappedShadow` and
    :class:`~repro.nvm.sharded.ShardedShadow` both delegate here, a
    sharded heap checking against its union directory.
    """
    rec = _recorder()
    with rec.trace.span("heap.adopt", cat="nvm", track="nvm",
                        buffers=len(heap.entries), shards=heap.n_shards):
        persistent = {
            name: buf for name, buf in memory.buffers.items()
            if buf.persistent
        }
        if memory.line_size != heap.line_size:
            raise HeapLayoutError(
                f"memory line size {memory.line_size} != heap line "
                f"size {heap.line_size}"
            )
        missing = sorted(set(heap.entries) - set(persistent))
        extra = sorted(set(persistent) - set(heap.entries))
        if missing or extra:
            raise HeapLayoutError(
                f"heap {heap.path} directory does not match the "
                f"rebuilt memory: missing from memory {missing[:5]}, "
                f"absent from heap {extra[:5]}"
            )
        for name, entry in heap.entries.items():
            buf = persistent[name]
            got, want = layout.geometry(buf), layout.geometry(entry)
            if got != want:
                raise HeapLayoutError(
                    f"buffer {name!r} diverged from the heap "
                    f"directory: memory has (dtype, shape, addr, "
                    f"nbytes) = {got}, heap has {want}"
                )
        for extent in heap.extents:
            for name in extent.entries:
                buf = persistent[name]
                view = extent.view(name)
                buf.shadow = view
                buf.data[:] = view
                extent._attached[name] = buf
        # Reboot state: nothing is pending persistence.
        memory.cache.drop_all()
        memory.shadow_backend = heap
