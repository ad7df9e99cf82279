"""The execution context of thread blocks — the one block context.

:class:`BatchBlockContext` is what every block body runs on: a kernel's
``run_block_batch`` sees one extra leading numpy axis indexing the
thread block within the group, so a body computes an entire group of
blocks in a handful of whole-array operations instead of one Python
call chain per block. It is also the one body that charges a store,
suppresses it under ``VALIDATE`` and folds it into the LP observer.

An immediate row (``immediate=True``) is one block whose effects act as
they are issued: one :meth:`~repro.gpu.memory.GlobalMemory.write` per
``st``, one per word of an ``st_record``, element-major; an EP
interceptor logs before each protected store lands; one-element atomics
(a hash-table walk's) and ``atomic_add`` land as issued; ``clwb`` writes
lines back and ``persist_barrier`` stalls on them; ``shared`` is the
block's own ``__shared__`` scratch. Every block the ``serial`` engine
runs is one, and so is every block ``batched`` does not defer. A
deferred group records its stores for the engine to land after the
pass, so it refuses an EP interceptor and every primitive that acts as
it is issued with :class:`LaunchError`, before any charge.

Semantics contract of a deferred group (what keeps it bit-identical to
immediate rows run one after the other):

* **Loads** read device memory directly, i.e. the image the group
  started from. A batchable kernel's loads must therefore *decide the
  same thing* on that image as they would mid-launch under serial
  order. Block-disjoint outputs give that for free (nothing loaded was
  written this launch). A kernel that claims slots in a shared table
  gets it from two narrower facts it must establish itself: its
  requests carry distinct keys, so no earlier store of the launch can
  turn another request's bucket scan from miss to hit or back; and the
  one thing an earlier request *can* change for a later one — an empty
  slot becoming occupied — is resolved inside
  :meth:`BatchBlockContext.atomic_cas_claim`, in request order. The
  kernel refuses an input that breaks the first fact when it is built;
  a request the claim cannot place raises
  :class:`~repro.errors.BatchFallbackError` before any effect and the
  engine runs that group as immediate rows.
* **Stores are deferred.** ``st`` records the store (and folds it into
  the attached LP observer, charging checksum work) but does not touch
  memory. The engine lands the whole group's records in one
  :meth:`~repro.gpu.memory.GlobalMemory.write_rows` pass that is
  observably one :meth:`~repro.gpu.memory.GlobalMemory.write` per
  block row, in launch order: it replays cache recency on line ids
  step by step, lands the data in as few assignments as the evictions
  allow (a step that re-touches a line still waiting for its
  write-back cuts there) and writes back once per evicting step.
  Cache recency, evictions, NVM write statistics and the heap's
  write-back brackets therefore match immediate landing exactly.
  ``st_record`` is the variant for a body that stores several words
  per request (a key *and* its value): each of its words is a step of
  its own, thread by thread, word by word.
* **Charges are totals.** ``flops``/``alu`` charge whole-group counts;
  all tally fields are integer-valued, so grouped summation is exact
  and the final tally is bit-identical to per-block accumulation.

``mask`` arguments silence the trailing ragged rows of a partial block
(a grid whose last block covers fewer requests), both for accounting
and for store application.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import BatchFallbackError, DeviceError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.costs import Tally
from repro.gpu.memory import Buffer, GlobalMemory
from repro.gpu.shared import SharedMemory

if TYPE_CHECKING:
    from repro.gpu.kernel import LaunchConfig


def _kept(a: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """A row's unmasked elements, flat, in issue order."""
    return a.reshape(-1) if mask is None else a[mask]


class ExecMode(enum.Enum):
    """What a block execution is for."""

    #: Normal forward execution: stores write memory.
    NORMAL = "normal"
    #: Post-crash validation replay: persistent stores are suppressed
    #: and the observer sees memory's current contents instead.
    VALIDATE = "validate"
    #: Crash recovery of a failed region: ``recover_block_batch``
    #: re-executes it with normal store semantics.
    RECOVER = "recover"


class BatchBlockContext:
    """Execution context covering a group of blocks at once."""

    def __init__(
        self,
        memory: GlobalMemory,
        config: LaunchConfig,
        block_ids,
        mode: ExecMode = ExecMode.NORMAL,
        atomics: AtomicUnit | None = None,
        immediate: bool = False,
        fence_latency: float = 660.0,
        fence_concurrency: int = 1,
    ) -> None:
        self.memory = memory
        #: The launch's atomic unit; ``None`` when a context is built
        #: directly without one, where contention cannot be charged
        #: (see :meth:`atomic_cas_claim`).
        self.atomics = atomics
        self.config = config
        self.mode = mode
        self.block_ids = np.asarray(list(block_ids), dtype=np.int64)
        if self.block_ids.size == 0:
            raise LaunchError("a batch needs at least one block")
        #: Whether stores land as issued (one row) or are deferred.
        self.immediate = immediate
        if immediate and self.block_ids.size != 1:
            raise LaunchError(
                "an immediate context is one row; got "
                f"{self.block_ids.size} blocks")
        self.tally = Tally(
            n_blocks=config.n_blocks,
            threads_per_block=config.threads_per_block,
        )
        #: Optional LP hook (``BatchRegionObserver``); set by the LP
        #: kernel wrapper. Must expose ``protected`` and
        #: ``on_store(values, slots[, mask])``.
        self.lp_observer = None
        self._ep_interceptor = None
        # Persist-barrier cost parameters (set by the engine per launch).
        self._fence_latency = fence_latency
        self._fence_concurrency = max(1, fence_concurrency)
        self._pending_flush_lines = 0
        self._shared: SharedMemory | None = None
        #: Deferred stores, in issue order:
        #: ``(buffer_name, idx, values, mask)`` with leading axis = block.
        #: A ``st_record`` entry names a *tuple* of buffers and carries
        #: one trailing ``values`` column per buffer.
        self.store_records: list[tuple] = []
        #: Deferred order-dependent checksum-table inserts: the table's
        #: ``insert`` and one lane row per block, or ``None``.
        self.table_inserts: tuple | None = None

    # ------------------------------------------------------------------
    # Thread geometry
    # ------------------------------------------------------------------

    @property
    def n_blocks_in_batch(self) -> int:
        """Blocks covered by this context (the leading axis length)."""
        return int(self.block_ids.size)

    @property
    def n_threads(self) -> int:
        """Threads per block."""
        return self.config.threads_per_block

    @property
    def tid(self) -> np.ndarray:
        """Flat thread indices ``[0, n_threads)`` (per block)."""
        return np.arange(self.n_threads)

    @property
    def block_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """``(blockIdx.x, blockIdx.y)`` vectors, one entry per block."""
        grid_x = self.config.grid[0]
        return self.block_ids % grid_x, self.block_ids // grid_x

    def thread_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """``(threadIdx.x, threadIdx.y)`` vectors for a 2-D block."""
        bx = self.config.block[0]
        t = self.tid
        return t % bx, t // bx

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------

    def buffer(self, buf: Buffer | str) -> Buffer:
        """Resolve a buffer handle or name."""
        return self.memory[buf] if isinstance(buf, str) else buf

    def ld(
        self,
        buf: Buffer | str,
        idx: np.ndarray,
        charge_elements: int | float | None = None,
    ) -> np.ndarray:
        """Batched global load; ``idx`` may have any shape.

        ``charge_elements`` overrides the read-traffic element count
        when the serial path would charge differently than ``idx.size``
        (e.g. per-request deduplicated probe reads, or an input chunk
        every block reads, loaded once here and charged once per block:
        ``charge_elements=chunk * n_blocks_in_batch``).
        """
        buf = self.buffer(buf)
        idx = np.asarray(idx)
        n = idx.size if charge_elements is None else charge_elements
        self.tally.global_read_bytes += n * buf.dtype.itemsize
        return self.memory.read(buf, idx)

    @property
    def ep_interceptor(self):
        """Optional Eager Persistency hook (undo logging); set by the EP
        kernel wrapper. Must expose ``protected`` and
        ``before_store(buf, idx)``, called before a protected
        persistent store of this row lands — so only an immediate row
        takes one."""
        return self._ep_interceptor

    @ep_interceptor.setter
    def ep_interceptor(self, interceptor) -> None:
        if interceptor is not None and not self.immediate:
            raise LaunchError(
                "an EP interceptor logs before each store lands; a "
                "deferred group lands its stores after the pass")
        self._ep_interceptor = interceptor

    def st(
        self,
        buf: Buffer | str,
        idx: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> None:
        """Batched global store (leading axis of ``idx`` = block).

        The store is folded into the LP observer when the buffer is
        protected, then landed (an immediate row) or recorded for
        launch-order application. ``slots`` broadcasts against ``idx``
        and names the issuing thread of each element (defaults to
        position order within the block); ``mask`` silences ragged
        elements.
        """
        buf = self.buffer(buf)
        idx, mask = self._store_geometry(idx, mask)
        vals, folded = self._charge_store(buf, idx, values, mask)
        if folded is not None:
            self._observe(folded, idx, slots, mask)
        if vals is None:
            return
        if self.immediate:
            self._land(buf, _kept(idx, mask), _kept(vals, mask))
        else:
            self.store_records.append((buf.name, idx, np.array(vals), mask))

    def st_record(
        self,
        bufs,
        idx: np.ndarray,
        values,
        slots: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> None:
        """Store one word into each of ``bufs`` at the same ``idx``.

        The batched form of a per-thread loop body that issues
        ``st(bufs[0], i, values[0])``, ``st(bufs[1], i, values[1])``, …
        for its request before moving to the next thread: charges equal
        those separate stores, the LP observer folds the words in that
        element-major order (one fold of the stacked columns — what an
        order-sensitive lane needs), and the words reach memory in that
        order too — one write per word on an immediate row, a
        tuple-target record of
        :meth:`~repro.gpu.memory.GlobalMemory.write_rows` when deferred
        — instead of one whole buffer after the other.
        """
        idx, mask = self._store_geometry(idx, mask)
        bufs = [self.buffer(buf) for buf in bufs]
        if len({buf.name for buf in bufs}) != len(bufs):
            raise LaunchError("a record stores one word per distinct buffer")
        landing, folds = [], []
        for buf, vals in zip(bufs, values):
            vals, folded = self._charge_store(buf, idx, vals, mask)
            if folded is not None:
                folds.append(folded)
            if vals is not None:
                landing.append((buf, vals))
        if folds:
            self._observe(np.stack(folds, axis=-1), idx, slots, mask)
        if not landing:
            return
        if not self.immediate:
            self.store_records.append((
                tuple(buf.name for buf, _ in landing), idx,
                np.stack([vals for _, vals in landing], axis=-1), mask))
            return
        at = _kept(idx, mask)
        words = [(buf, _kept(vals, mask)) for buf, vals in landing]
        for i in range(at.size):
            for buf, word in words:
                self._land(buf, at[i:i + 1], word[i:i + 1])

    def _land(self, buf: Buffer, idx: np.ndarray, values: np.ndarray) -> None:
        """One step of an immediate row: the EP interceptor logs what a
        protected persistent store overwrites, then the store lands."""
        interceptor = self._ep_interceptor
        if (interceptor is not None and buf.persistent
                and buf.name in interceptor.protected):
            interceptor.before_store(buf, idx)
        self.memory.write(buf, idx, values)

    def _store_geometry(self, idx, mask):
        idx = np.asarray(idx)
        if idx.ndim < 2 or idx.shape[0] != self.n_blocks_in_batch:
            raise LaunchError(
                f"batched store index must lead with the {self.n_blocks_in_batch}"
                f"-block axis; got shape {idx.shape}"
            )
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != idx.shape:
                mask = np.broadcast_to(mask, idx.shape)
        return idx, mask

    def _charge_store(self, buf: Buffer, idx, values, mask):
        """Charge one store. Returns the values to land (``None`` when
        the mode suppresses the write) and the values the LP observer
        folds (``None`` when it folds nothing)."""
        vals = np.asarray(values, dtype=buf.dtype)
        if vals.shape != idx.shape:
            vals = np.broadcast_to(vals, idx.shape)
        n_elements = idx.size if mask is None else int(np.count_nonzero(mask))
        self.tally.global_write_bytes += n_elements * buf.dtype.itemsize

        observer = self.lp_observer
        observed = observer is not None and buf.name in observer.protected
        if self.mode is ExecMode.VALIDATE and buf.persistent:
            # The check phase: persistent writes are suppressed (write
            # traffic stays charged) and protected stores fold what
            # memory *currently holds* at the target addresses. The
            # reads are uncharged: the check phase fetches through
            # ``memory.read`` directly, not ``ld``.
            return None, self.memory.read(buf, idx) if observed else None
        folded = vals if observed and self.mode is not ExecMode.VALIDATE \
            else None
        return vals, folded

    def _observe(self, values, idx, slots, mask):
        """Fold a store's values into the LP observer (a record's with a
        trailing axis of one word per buffer, :meth:`st_record`)."""
        if slots is None:
            slots = np.arange(idx[0].size).reshape(idx.shape[1:]) \
                % self.n_threads
        if values.ndim > idx.ndim:
            slots = np.broadcast_to(slots, idx.shape)[..., None]
            mask = None if mask is None else mask[..., None]
        if mask is None:
            self.lp_observer.on_store(values, slots)
        else:
            self.lp_observer.on_store(values, slots, mask)

    def _as_issued(self, what: str) -> None:
        """Refuse, before any charge, a primitive that acts as it is
        issued: an immediate row takes it, a deferred group does not."""
        if not self.immediate:
            raise LaunchError(
                f"{what} acts as it is issued: an immediate row takes "
                "it, a deferred group does not")

    def _unit(self, what: str) -> AtomicUnit:
        """The launch's atomic unit, which ``what`` charges."""
        if self.atomics is None:
            raise LaunchError(
                f"{what} needs the launch's AtomicUnit to charge "
                "contention to; build the BatchBlockContext with atomics=")
        return self.atomics

    # ------------------------------------------------------------------
    # Eager Persistency primitives (clwb / persist barrier)
    # ------------------------------------------------------------------

    def clwb(self, buf: Buffer | str, idx: np.ndarray) -> int:
        """Explicit cache-line write-back of the lines under ``idx``.

        The Eager Persistency primitive LP never needs. Returns how many
        lines were actually written to NVM; their persistence is only
        guaranteed after the next :meth:`persist_barrier`.
        """
        self._as_issued("clwb")
        flushed = self.memory.flush(self.buffer(buf),
                                    np.asarray(idx).reshape(-1))
        self.tally.alu_ops += max(1, flushed)  # flush-issue instructions
        self._pending_flush_lines += flushed
        return flushed

    def persist_barrier(self) -> None:
        """``sfence``-style barrier: stall until pending flushes persist.

        The stall exposes the NVM write latency (plus per-line drain
        time) on the block's critical path; the charge is amortized by
        the launch's resident-block concurrency, mirroring how real
        fences overlap across blocks but not within one.
        """
        self._as_issued("persist_barrier")
        stall = self._fence_latency + self._pending_flush_lines * 8.0
        self.tally.serial_cycles += stall / self._fence_concurrency
        self._pending_flush_lines = 0

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------

    def guard_atomic(self, buf: Buffer) -> None:
        """Refuse an atomic on persistent data during a ``VALIDATE``
        replay, which must not write it."""
        if self.mode is ExecMode.VALIDATE and buf.persistent:
            raise DeviceError(
                "atomic to persistent buffer during VALIDATE replay; "
                "kernels that accumulate into persistent data must "
                "override validate_block_batch()"
            )

    def atomic_cas(self, buf: Buffer | str, index: int, compare, value):
        """``atomicCAS`` on one element; returns the old value."""
        return self._one_element("cas", buf, index, compare, value)

    def atomic_exch(self, buf: Buffer | str, index: int, value):
        """``atomicExch`` on one element; returns the old value."""
        return self._one_element("exch", buf, index, value)

    def _one_element(self, op: str, buf: Buffer | str, *args):
        """A one-element atomic lands as issued through the launch's
        :class:`AtomicUnit`, so a deferred group refuses it uncharged."""
        self._as_issued(f"atomic_{op}")
        unit = self._unit(f"atomic_{op}")
        buf = self.buffer(buf)
        self.guard_atomic(buf)
        self.tally.global_write_bytes += buf.dtype.itemsize
        return getattr(unit, op)(buf, *args)

    def atomic_add(self, buf: Buffer | str, idx: np.ndarray,
                   values) -> None:
        """``atomicAdd`` from every element of ``idx`` (conflicting
        indices accumulate); lands as issued, like the one-element
        atomics."""
        self._as_issued("atomic_add")
        unit = self._unit("atomic_add")
        buf = self.buffer(buf)
        self.guard_atomic(buf)
        idx = np.asarray(idx)
        self.tally.global_write_bytes += idx.size * buf.dtype.itemsize
        unit.add(buf, idx.reshape(-1),
                 np.broadcast_to(values, idx.shape).reshape(-1))

    def atomic_cas_claim(
        self,
        buf: Buffer | str,
        candidates: np.ndarray,
        compare,
        valid: np.ndarray | None = None,
    ) -> np.ndarray:
        """Claim one slot per request by ``atomicCAS(compare -> word)``.

        ``candidates[..., c]`` lists each request's slots in probe order
        (leading axes block, then thread — request order); ``valid``
        silences padding candidates and whole masked-out requests. Every
        request walks its candidates as the scalar loop ``for s in
        slots: if atomic_cas(buf, s, compare, word) == compare: break``
        does: a slot holding anything but ``compare`` costs one failed
        CAS, the first one holding ``compare`` is claimed. Requests are
        resolved **in request order**: a slot an earlier request claimed
        reads as occupied to every later one — the one dependence
        between requests the batched load contract cannot hide.

        Returns the claimed index per request (``-1`` where ``valid``
        left nothing to try). Each attempt is charged as the scalar
        ``atomic_cas`` charges it — element bytes of write traffic and
        one op on the :class:`~repro.gpu.atomics.AtomicUnit` at that
        address. A request none of whose candidates is free charges
        nothing: a deferred group raises
        :class:`~repro.errors.BatchFallbackError` before any effect and
        the engine re-runs it as immediate rows; an immediate row has
        nothing to fall back to, so such a request reads ``-1`` and the
        kernel raises its own error. The winning CAS's own write is
        *not* made: the caller stores the claimed word at the returned
        index in the same pass (an LP kernel does anyway, to fold it),
        and a store of the same word to the same line right after is
        indistinguishable, to the persistence domain, from the pair.
        """
        buf = self.buffer(buf)
        self.guard_atomic(buf)
        unit = self._unit("atomic_cas_claim")
        candidates = np.asarray(candidates)
        shape = candidates.shape[:-1]
        cand = candidates.reshape(-1, candidates.shape[-1])
        if valid is None:
            tried = np.ones(cand.shape, dtype=bool)
        else:
            tried = np.broadcast_to(
                np.asarray(valid, dtype=bool), candidates.shape
            ).reshape(cand.shape)
        rows = np.flatnonzero(tried.any(axis=1))
        claimed = np.full(cand.shape[0], -1, dtype=np.int64)
        cand, tried = cand[rows], tried[rows]
        free = tried & (self.memory.read(buf, cand) == buf.dtype.type(compare))
        while True:
            # A request with nothing left is full for good: each of its
            # slots is occupied or held by an earlier request. It claims
            # nothing, and the walk goes on to the others' fixed point.
            out = ~free.any(axis=1)
            pos = np.where(out, -1, free.argmax(axis=1))
            live = np.flatnonzero(~out)
            target = cand[live, pos[live]]
            # np.unique's first-occurrence index is the earliest request
            # aiming at each slot; it keeps the slot, the others see it
            # occupied and move on — which may bump a later request in
            # turn, so iterate to the fixed point (picks only advance).
            _, first = np.unique(target, return_index=True)
            if first.size == target.size:
                break
            lost = np.ones(live.size, dtype=bool)
            lost[first] = False
            free[live[lost], pos[live[lost]]] = False
        claimed[rows[live]] = target
        if out.any():
            if not self.immediate:
                raise BatchFallbackError(
                    f"a request found no free slot in {buf.name!r}")
        else:
            attempted = tried & (np.arange(cand.shape[1]) <= pos[:, None])
            self.tally.global_write_bytes += (
                int(np.count_nonzero(attempted)) * buf.dtype.itemsize)
            unit.charge(buf, cand[attempted])
        return claimed.reshape(shape)

    def defer_table_inserts(self, insert, lanes: np.ndarray) -> None:
        """Queue one checksum-table insert per block (row = block) that
        must run in launch order: the engine runs ``insert`` on an
        immediate row of each block once its stores have landed."""
        self.table_inserts = (insert, np.array(lanes, copy=True))

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------

    def alu(self, n_ops: float) -> None:
        """Charge ``n_ops`` thread-level ALU operations (group total)."""
        self.tally.alu_ops += n_ops

    def flops(self, per_thread: float, active_threads: int | None = None) -> None:
        """Charge FP work: ``per_thread`` ops per thread, per block."""
        n = self.n_threads if active_threads is None else active_threads
        self.tally.alu_ops += per_thread * n * self.n_blocks_in_batch

    def syncthreads(self) -> None:
        """Charge one block-wide barrier (once per block in the group)."""
        self.tally.syncthreads += self.n_blocks_in_batch

    def add_serial_cycles(self, cycles: float) -> None:
        """Charge cycles that serialize against the whole device (lock
        and emulated-atomic contention of a table insert)."""
        self.tally.serial_cycles += cycles

    def charge_shared(self, nbytes: float) -> None:
        """Charge shared-memory traffic: ``nbytes`` per block."""
        self.tally.shared_bytes += nbytes * self.n_blocks_in_batch

    @property
    def shared(self) -> SharedMemory:
        """The block's ``__shared__`` arrays, which count their own
        traffic (an immediate row only: a group's blocks would share)."""
        self._as_issued("shared memory")
        if self._shared is None:
            self._shared = SharedMemory()
        return self._shared

    def finalize_tally(self) -> Tally:
        """Fold shared-memory traffic into the tally and return it."""
        if self._shared is not None:
            self.tally.shared_bytes += self._shared.traffic_bytes
            self._shared.traffic_bytes = 0
        return self.tally
