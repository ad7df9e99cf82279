"""Simulated GPU global memory backed by an NVM persistence domain.

Every *persistent* buffer has two images:

* ``data`` — the **volatile view**: what running kernels observe. It is
  the merge of cached (not yet persisted) lines and NVM contents.
* ``shadow`` — the **NVM view**: what would survive a power failure.

Stores update ``data`` immediately and mark the touched cache lines
dirty in a bounded :class:`~repro.gpu.cache.WriteBackCache`. Lines reach
``shadow`` only when the cache evicts them (or on an explicit
:meth:`GlobalMemory.drain`). :meth:`GlobalMemory.crash` throws away
every still-dirty line, leaving ``data`` equal to ``shadow`` — exactly
the state a real machine would reboot into. This is the substrate on
which Lazy Persistency's "stores persist out of order, arbitrarily
late" semantics rest.

Buffers are line-aligned, so every cache line belongs to exactly one
buffer; a sorted interval index maps line ids back to buffers for
write-back and accounting.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.errors import AllocationError, OutOfBoundsError
from repro.gpu.cache import WriteBackCache
from repro.nvm.model import WritebackReason, WriteStats
from repro.obs import current as _recorder

#: Default dirty-line capacity: 6 MiB of 128-byte lines, matching the
#: V100 L2 as the volume of data that can be pending persistence.
DEFAULT_CACHE_LINES = (6 * 1024 * 1024) // 128


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _row_lines(buf: Buffer, idx: np.ndarray, keep):
    """Each row's distinct line ids, ascending — ``np.unique`` of every
    row, from one sort along the row axis — as the sorted rows and the
    mask of their first occurrences."""
    lines = buf.line_of_indices(idx)
    if keep is not None:
        lines[~keep] = -1
    lines.sort(axis=1)
    first = np.ones(lines.shape, dtype=bool)
    first[:, 1:] = lines[:, 1:] != lines[:, :-1]
    if keep is not None:
        first &= lines >= 0
    return lines, first


def _flatten_stream(parts: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """One buffer's kept ``(idx, values)`` in the order its steps issue
    them: its ``(idx, values, keep)`` row blocks side by side, in record
    order, read row-major."""
    if len(parts) == 1:
        idx, values, keep = parts[0]
    else:
        idx = np.concatenate([p[0] for p in parts], axis=1)
        values = np.concatenate([p[1] for p in parts], axis=1)
        keep = None
        if any(p[2] is not None for p in parts):
            keep = np.concatenate(
                [np.ones(p[0].shape, dtype=bool) if p[2] is None else p[2]
                 for p in parts], axis=1)
    if keep is None:
        return idx.reshape(-1), values.reshape(-1)
    return idx[keep], values[keep]


class Buffer:
    """One allocation in simulated global memory.

    Exposes the volatile image as :attr:`array` (shaped) and the NVM
    image as :attr:`nvm_array`. Client code should go through
    :class:`GlobalMemory` (or a kernel's block context) for writes so
    persistence tracking stays correct; direct mutation of
    ``buffer.array`` bypasses the persistence domain and is reserved for
    test setup of *non-persistent* scratch data.
    """

    def __init__(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype,
        base_addr: int,
        line_size: int,
        persistent: bool,
    ) -> None:
        self.name = name
        self.shape = shape
        self.dtype = np.dtype(dtype)
        self.persistent = persistent
        self.line_size = line_size
        self.base_addr = base_addr

        self.size = int(np.prod(shape)) if shape else 1
        self.data = np.zeros(self.size, dtype=self.dtype)
        self.shadow = self.data.copy() if persistent else None

        self.nbytes = self.size * self.dtype.itemsize
        self.padded_bytes = _ceil_div(max(self.nbytes, 1), line_size) * line_size
        self.first_line = base_addr // line_size
        self.n_lines = self.padded_bytes // line_size

    # -- views ----------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The volatile image, shaped as allocated."""
        return self.data.reshape(self.shape)

    @property
    def nvm_array(self) -> np.ndarray:
        """The persisted (NVM) image, shaped as allocated."""
        if self.shadow is None:
            raise AllocationError(f"buffer {self.name!r} is not persistent")
        return self.shadow.reshape(self.shape)

    # -- line geometry ---------------------------------------------------

    def line_of_indices(self, flat_idx: np.ndarray) -> np.ndarray:
        """Global line id of each flat element index, in index order.

        An element may straddle a line boundary only if itemsize does
        not divide line_size; with power-of-two sizes it never does, so
        the first line suffices.
        """
        byte_off = flat_idx.astype(np.int64) * self.dtype.itemsize
        return (self.base_addr + byte_off) // self.line_size

    def lines_for_indices(self, flat_idx: np.ndarray) -> np.ndarray:
        """Global line ids covering the given flat element indices."""
        return np.unique(self.line_of_indices(flat_idx))

    def line_byte_range(self, line_id: int) -> tuple[int, int]:
        """Byte range ``[lo, hi)`` of a global line within this buffer."""
        lo = (line_id - self.first_line) * self.line_size
        if lo < 0 or lo >= self.padded_bytes:
            raise OutOfBoundsError(
                f"line {line_id} is not in buffer {self.name!r}"
            )
        return lo, min(lo + self.line_size, self.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "persistent" if self.persistent else "scratch"
        return f"Buffer({self.name!r}, {self.shape}, {self.dtype}, {kind})"


@dataclass
class CrashReport:
    """What a simulated crash lost (and what squeaked through)."""

    lost_lines: list[int] = field(default_factory=list)
    persisted_lines: list[int] = field(default_factory=list)
    lost_by_buffer: dict[str, int] = field(default_factory=dict)

    @property
    def n_lost(self) -> int:
        """Number of dirty lines whose contents did not survive."""
        return len(self.lost_lines)


class GlobalMemory:
    """The device's global address space plus its persistence domain."""

    def __init__(
        self,
        line_size: int = 128,
        cache_capacity_lines: int = DEFAULT_CACHE_LINES,
        write_stats: WriteStats | None = None,
        shadow=None,
    ) -> None:
        if line_size <= 0 or line_size & (line_size - 1):
            raise AllocationError("line_size must be a positive power of two")
        if shadow is not None and shadow.line_size != line_size:
            raise AllocationError(
                f"shadow backend line size {shadow.line_size} != memory "
                f"line size {line_size}"
            )
        self.line_size = line_size
        self.cache = WriteBackCache(cache_capacity_lines)
        self.write_stats = write_stats or WriteStats(line_size=line_size)
        #: Durable write-back target (e.g. an
        #: :class:`~repro.nvm.mapped.MappedShadow`). When set, every
        #: persistent allocation's NVM image is a view into the backend
        #: and write-backs are journalled through ``arm``/``commit``.
        self.shadow_backend = shadow
        self._buffers: dict[str, Buffer] = {}
        self._next_addr = 0
        # Parallel arrays for bisect: first-line of each live buffer,
        # kept sorted by construction (addresses grow monotonically).
        self._index_first_lines: list[int] = []
        self._index_buffers: list[Buffer] = []

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    @property
    def alloc_cursor(self) -> int:
        """The bump allocator's next address (addresses are never reused)."""
        return self._next_addr

    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float32,
        persistent: bool = True,
        init: np.ndarray | None = None,
    ) -> Buffer:
        """Allocate a named, line-aligned buffer.

        ``init`` (if given) seeds both the volatile and NVM images, i.e.
        the data is considered persisted at allocation time — matching a
        kernel input that was durably staged before launch.
        """
        if name in self._buffers:
            raise AllocationError(f"buffer {name!r} already allocated")
        if isinstance(shape, int):
            shape = (shape,)
        if any(s <= 0 for s in shape):
            raise AllocationError(f"bad shape for {name!r}: {shape}")

        buf = Buffer(name, shape, np.dtype(dtype), self._next_addr,
                     self.line_size, persistent)
        if init is not None:
            arr = np.asarray(init, dtype=buf.dtype)
            if arr.shape != shape:
                raise AllocationError(
                    f"init shape {arr.shape} != buffer shape {shape}"
                )
            buf.data[:] = arr.reshape(-1)
            if buf.shadow is not None:
                buf.shadow[:] = buf.data

        if buf.persistent and self.shadow_backend is not None:
            buf.shadow = self.shadow_backend.attach(buf)

        self._next_addr += buf.padded_bytes
        self._buffers[name] = buf
        self._index_first_lines.append(buf.first_line)
        self._index_buffers.append(buf)
        return buf

    def free(self, name: str) -> None:
        """Release a buffer, discarding any of its pending dirty lines."""
        buf = self._buffers.pop(name, None)
        if buf is None:
            raise AllocationError(f"no buffer named {name!r}")
        lines = range(buf.first_line, buf.first_line + buf.n_lines)
        self.cache.discard(lines)
        if buf.persistent and self.shadow_backend is not None:
            self.shadow_backend.detach(name)
        pos = self._index_buffers.index(buf)
        del self._index_first_lines[pos]
        del self._index_buffers[pos]

    def reseed(self, buf: Buffer, fill) -> None:
        """Put a live persistent buffer back where ``alloc(init=fill)``
        left it: both images filled, none of its lines pending.

        The NVM image is stored to directly, like the seed ``alloc`` /
        ``attach`` write — no journalled write-back — so on a durable
        heap the caller must order this against whatever could still
        need the old contents (see ``ChecksumTable.reset``).
        """
        buf.data[:] = fill
        buf.shadow[:] = fill
        self.cache.discard(range(buf.first_line,
                                 buf.first_line + buf.n_lines))

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def __getitem__(self, name: str) -> Buffer:
        try:
            return self._buffers[name]
        except KeyError:
            raise AllocationError(f"no buffer named {name!r}") from None

    @property
    def buffers(self) -> dict[str, Buffer]:
        """Live allocations by name (read-only use, please)."""
        return self._buffers

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def read(self, buf: Buffer, flat_idx: np.ndarray) -> np.ndarray:
        """Load elements from the volatile image."""
        self._check_bounds(buf, flat_idx)
        return buf.data[flat_idx]

    def write(self, buf: Buffer, flat_idx: np.ndarray, values: np.ndarray) -> None:
        """Store elements; persistent stores enter the cache dirty."""
        self._check_bounds(buf, flat_idx)
        buf.data[flat_idx] = values
        if buf.persistent:
            lines = buf.lines_for_indices(np.asarray(flat_idx))
            evicted = self.cache.touch_write(lines.tolist())
            if evicted:
                self._write_back(evicted, WritebackReason.EVICTION)

    def write_rows(self, n_rows: int, records, after_row=None) -> None:
        """Land rows of deferred stores as if by one :meth:`write` per step.

        ``records`` are ``(target, idx, values, mask)`` whose arrays lead
        with an ``n_rows`` axis (``mask`` may be ``None``). Row ``r`` of a
        record whose target is one :class:`Buffer` is one step,
        ``write(target, idx[r][mask[r]], values[r][mask[r]])``. A tuple
        of distinct buffers (a thread-major multi-word record) makes each
        kept element of the row one step per buffer, element-major:
        ``write(target[c], idx[r, e], values[r, e, c])``. Steps run row
        by row, each row's records in order; ``after_row(r)``, if given,
        runs once row ``r`` has landed, for an effect that reads memory
        (an insert whose probe sequence depends on what is stored).

        Data, NVM images, cache recency and evictions, write statistics
        and the backend's arm / commit sequence all equal that sequence
        of writes, reached in a few numpy calls per group:

        * **Recency replay.** Each step's distinct line ids (one sort per
          record, all rows at once) go through
          :meth:`~repro.gpu.cache.WriteBackCache.touch_write` in step
          order — line ids only, which is all the cache ever sees. With
          room in the cache for every line the pass touches no step can
          evict, and the replay is one call.
        * **The cut rule.** A write-back must copy what the steps up to
          its own left in a line. So data lands per buffer in as few
          fancy-indexed assignments as that allows: a step that touches
          a line still waiting for its write-back first lands every
          step before it and writes the waiting lines back. Disjoint
          outputs rarely cut; at capacity 0 every re-touched line does.
        * **One write-back per evicting step**, in step order: the
          backend's arm / copy / commit brackets, and with them its
          torn windows and kill points, are the per-step ones.

        Every record's bounds are checked before anything lands: an
        out-of-bounds element raises :class:`OutOfBoundsError` with
        memory, cache and statistics untouched.
        """
        streams: dict[Buffer, list[tuple]] = {}  # its (idx, values, keep)
        grids, lines, hits = [], [], []
        for targets, idx, values, keep in (
                self._row_record(n_rows, *record) for record in records):
            if isinstance(targets, Buffer):
                streams.setdefault(targets, []).append((idx, values, keep))
                first = None
                if targets.persistent:
                    row_lines, first = _row_lines(targets, idx, keep)
                    lines.append(row_lines)
                    hits.append(first)
                grids.append((targets, idx.shape[1], keep, first))
                continue
            # Element-major: each kept element's words, a step per buffer.
            for c, buf in enumerate(targets):
                streams.setdefault(buf, []).append(
                    (idx, values[:, :, c].astype(buf.dtype, copy=False), keep))
            base = np.array([buf.base_addr for buf in targets])
            size = np.array([buf.dtype.itemsize for buf in targets])
            lines.append(((base + idx[:, :, None] * size) // self.line_size)
                         .reshape(n_rows, -1))
            persistent = np.array([buf.persistent for buf in targets])
            hits.append(np.broadcast_to(
                persistent if keep is None else keep[:, :, None] & persistent,
                idx.shape + persistent.shape).reshape(n_rows, -1))
            grids.append((targets, idx.shape[1], keep, hits[-1]))

        # Every step's lines in step order: row-major over the records'
        # rows laid side by side.
        touched = [] if not lines else np.concatenate(lines, axis=1)[
            np.concatenate(hits, axis=1)].tolist()
        flat = {buf: _flatten_stream(parts) for buf, parts in streams.items()}
        cache = self.cache
        if after_row is None \
                and cache.n_dirty + len(touched) <= cache.capacity_lines:
            # Room for every line the pass touches: no step can evict, so
            # the replay is one touch and each buffer lands once.
            cache.touch_write(touched)
            for buf, (idx, values) in flat.items():
                buf.data[idx] = values
            return

        # Per step, row-major: its buffer, its kept elements, its touches.
        step_bufs: list[Buffer] = []
        counts, touches = [], []
        for targets, width, keep, hit in grids:
            if isinstance(targets, Buffer):
                step_bufs.append(targets)
                counts.append(np.full((n_rows, 1), width) if keep is None
                              else keep.sum(axis=1, keepdims=True))
                touches.append(np.zeros((n_rows, 1), dtype=np.int64)
                               if hit is None
                               else hit.sum(axis=1, keepdims=True))
                continue
            step_bufs.extend(targets * width)
            counts.append(np.ones(hit.shape, dtype=np.int64) if keep is None
                          else np.repeat(keep, len(targets), axis=1))
            touches.append(hit)
        per_row = len(step_bufs)
        if not per_row:  # nothing stored, so only the hooks are left
            for r in range(n_rows):
                after_row(r)
            return
        # Where each step's lines end in ``touched``.
        ends = np.cumsum(np.concatenate(touches, axis=1)).tolist()
        step_counts = np.concatenate(counts, axis=1)
        # Per buffer, how many of its elements are issued by each step.
        issued = {
            buf: np.cumsum(np.where([b is buf for b in step_bufs],
                                    step_counts, 0))
            for buf in streams
        }
        landed = dict.fromkeys(streams, 0)
        pending: list[list[int]] = []
        waiting: set[int] = set()

        def settle(done: int) -> None:
            """Land steps ``[0, done)``, then write back what they evicted."""
            for buf, (idx, values) in flat.items():
                lo, hi = landed[buf], int(issued[buf][done - 1])
                if hi > lo:
                    buf.data[idx[lo:hi]] = values[lo:hi]
                    landed[buf] = hi
            for evicted in pending:
                self._write_back(evicted, WritebackReason.EVICTION)
            pending.clear()
            waiting.clear()

        start = 0
        for k, end in enumerate(ends):
            step_lines = touched[start:end]
            start = end
            if waiting and not waiting.isdisjoint(step_lines):
                settle(k)
            evicted = cache.touch_write(step_lines)
            if evicted:
                pending.append(evicted)
                waiting.update(evicted)
            if after_row is not None and (k + 1) % per_row == 0:
                settle(k + 1)
                after_row(k // per_row)
        settle(len(ends))

    def _row_record(self, n_rows: int, target, idx, values, mask):
        """One :meth:`write_rows` record as 2-D rows, bounds checked."""
        idx = np.asarray(idx, dtype=np.int64).reshape(n_rows, -1)
        keep = None if mask is None \
            else np.asarray(mask, dtype=bool).reshape(n_rows, -1)
        kept = idx if keep is None else idx[keep]
        bufs = (target,) if isinstance(target, Buffer) else tuple(target)
        if kept.size:
            lo, hi = int(kept.min()), int(kept.max())
            for buf in bufs:
                self._check_range(buf, lo, hi)
        if isinstance(target, Buffer):
            values = np.asarray(values, dtype=target.dtype)
            return target, idx, values.reshape(n_rows, -1), keep
        values = np.asarray(values).reshape(n_rows, -1, len(bufs))
        return bufs, idx, values, keep

    # ------------------------------------------------------------------
    # Persistence-domain events
    # ------------------------------------------------------------------

    def drain(self) -> int:
        """Write back every dirty line; returns how many were written.

        With a durable shadow backend this is also the durability
        point: the backend is synced so the heap file reflects every
        drained line.
        """
        with _recorder().trace.span("nvm.drain", cat="nvm", track="nvm"):
            lines = self.cache.drain()
            self._write_back(lines, WritebackReason.DRAIN)
            if self.shadow_backend is not None:
                self.shadow_backend.sync()
        return len(lines)

    def flush(self, buf: Buffer, flat_idx: np.ndarray) -> int:
        """``clwb``-style explicit write-back of the lines under ``flat_idx``.

        The Eager Persistency primitive: force the touched cache lines
        into NVM *now* rather than waiting for eviction. Returns the
        number of lines actually written (lines already clean cost
        nothing). A no-op for non-persistent buffers.
        """
        if not buf.persistent:
            return 0
        self._check_bounds(buf, np.asarray(flat_idx))
        lines = buf.lines_for_indices(np.asarray(flat_idx))
        flushed = self.cache.evict_specific(lines.tolist())
        self._write_back(flushed, WritebackReason.FLUSH)
        return len(flushed)

    def crash(
        self,
        persist_fraction: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> CrashReport:
        """Simulate a power failure.

        ``persist_fraction`` of the dirty lines (chosen at random with
        ``rng``) are treated as having been evicted just before the
        failure; the rest are lost. After this call the volatile image
        of every persistent buffer equals its NVM image, and scratch
        buffers are zeroed (their contents do not survive a reboot).
        """
        if not 0.0 <= persist_fraction <= 1.0:
            raise ValueError("persist_fraction must be in [0, 1]")
        report = CrashReport()

        dirty = self.cache.dirty_lines
        if persist_fraction > 0.0 and dirty:
            rng = rng or np.random.default_rng(0)
            n_keep = int(round(persist_fraction * len(dirty)))
            keep = rng.choice(len(dirty), size=n_keep, replace=False)
            saved = [dirty[i] for i in np.sort(keep)]
            self.cache.evict_specific(saved)
            self._write_back(saved, WritebackReason.CRASH_RACE)
            report.persisted_lines = saved

        lost = self.cache.drop_all()
        report.lost_lines = lost
        for lid in lost:
            buf = self._buffer_of_line(lid)
            report.lost_by_buffer[buf.name] = (
                report.lost_by_buffer.get(buf.name, 0) + 1
            )

        for buf in self._buffers.values():
            if buf.persistent:
                buf.data[:] = buf.shadow
            else:
                buf.data[:] = 0

        rec = _recorder()
        if rec.active:
            rec.trace.instant(
                "nvm.crash", cat="nvm", track="nvm",
                lost_lines=report.n_lost,
                persisted_lines=len(report.persisted_lines),
            )
            for name, n in report.lost_by_buffer.items():
                rec.metrics.inc("nvm.crash.lost_lines", n, buffer=name)
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_bounds(self, buf: Buffer, flat_idx: np.ndarray) -> None:
        idx = np.asarray(flat_idx)
        if idx.size:
            self._check_range(buf, int(idx.min()), int(idx.max()))

    @staticmethod
    def _check_range(buf: Buffer, lo: int, hi: int) -> None:
        if lo < 0 or hi >= buf.size:
            raise OutOfBoundsError(
                f"indices [{lo}, {hi}] out of range for buffer "
                f"{buf.name!r} of size {buf.size}"
            )

    def _buffer_of_line(self, line_id: int) -> Buffer:
        pos = bisect.bisect_right(self._index_first_lines, line_id) - 1
        if pos < 0:
            raise OutOfBoundsError(f"line {line_id} maps to no buffer")
        buf = self._index_buffers[pos]
        if line_id >= buf.first_line + buf.n_lines:
            raise OutOfBoundsError(f"line {line_id} maps to no live buffer")
        return buf

    def _write_back(self, line_ids: list[int], reason: WritebackReason) -> None:
        """Copy dirty lines to their NVM images.

        With a durable backend the copy is bracketed by the backend's
        torn-write journal: intent is armed before any byte moves and
        committed after the last — a process killed in between leaves
        an armed journal for :meth:`~repro.nvm.mapped.MappedShadow.open`
        to surface.
        """
        if not line_ids:
            return
        backend = self.shadow_backend
        if backend is not None:
            backend.arm(line_ids)
        self._copy_back(line_ids, reason)
        if backend is not None:
            backend.commit(len(line_ids))

    def _copy_back(self, line_ids: list[int], reason: WritebackReason) -> None:
        metrics = _recorder().metrics
        if len(line_ids) <= 4:
            # Scalar path for the common per-store eviction trickle.
            for lid in line_ids:
                buf = self._buffer_of_line(lid)
                if buf.shadow is None:
                    continue
                lo, hi = buf.line_byte_range(lid)
                if lo >= hi:
                    continue
                src = buf.data.view(np.uint8)[lo:hi]
                buf.shadow.view(np.uint8)[lo:hi] = src
                self.write_stats.record(reason, buf.name)
                if metrics.active:
                    metrics.inc("nvm.writeback.lines",
                                reason=reason.value, buffer=buf.name)
            return

        # Bulk path (drains, batched evictions): one searchsorted maps
        # every line to its buffer, then each buffer's lines copy as
        # rows of a (lines, line_size) view in one fancy-indexed
        # assignment, plus its partial last line if that is among them.
        lines = np.asarray(line_ids, dtype=np.int64)
        firsts = np.asarray(self._index_first_lines, dtype=np.int64)
        pos = np.searchsorted(firsts, lines, side="right") - 1
        if (pos < 0).any():
            bad = int(lines[pos < 0][0])
            raise OutOfBoundsError(f"line {bad} maps to no buffer")
        for p in np.unique(pos):
            buf = self._index_buffers[int(p)]
            group = lines[pos == p]
            beyond = group >= buf.first_line + buf.n_lines
            if beyond.any():
                bad = int(group[beyond][0])
                raise OutOfBoundsError(
                    f"line {bad} maps to no live buffer"
                )
            if buf.shadow is None:
                continue
            rows = group - buf.first_line
            rows = rows[rows * self.line_size < buf.nbytes]
            if rows.size == 0:
                continue
            src = buf.data.view(np.uint8)
            dst = buf.shadow.view(np.uint8)
            n_full, tail = divmod(buf.nbytes, self.line_size)
            full = rows[rows < n_full]
            if full.size:
                shape = (n_full, self.line_size)
                whole = n_full * self.line_size
                dst[:whole].reshape(shape)[full] = (
                    src[:whole].reshape(shape)[full])
            if tail and full.size < rows.size:
                dst[-tail:] = src[-tail:]
            self.write_stats.record(reason, buf.name, n_lines=int(rows.size))
            if metrics.active:
                metrics.inc("nvm.writeback.lines", int(rows.size),
                            reason=reason.value, buffer=buf.name)
