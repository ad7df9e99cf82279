"""Vectorized execution context for a *group* of thread blocks.

:class:`BatchBlockContext` is the batched counterpart of
:class:`~repro.gpu.kernel.BlockContext`: one extra leading numpy axis
indexes the thread block within the group, so a kernel's
``run_block_batch`` computes an entire group of blocks in a handful of
whole-array operations instead of one Python call chain per block. The
same body runs one block at a time in the scalar cell, through the
one-block view :meth:`~repro.gpu.kernel.Kernel.run_block` builds; that
view offers every primitive below, so no kernel needs a scalar twin.

Semantics contract (what lets the batched engine stay bit-identical to
serial execution):

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
  engine runs that group per block.
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
  write-back brackets therefore match the serial engine exactly.
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

import numpy as np

from repro.errors import BatchFallbackError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.costs import Tally
from repro.gpu.kernel import ExecMode, GroupGeometry, LaunchConfig, cas_claim
from repro.gpu.memory import Buffer, GlobalMemory


class BatchBlockContext(GroupGeometry):
    """Execution context covering a group of blocks at once."""

    def __init__(
        self,
        memory: GlobalMemory,
        config: LaunchConfig,
        block_ids,
        mode: ExecMode = ExecMode.NORMAL,
        atomics: AtomicUnit | None = None,
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
        self.tally = Tally(
            n_blocks=config.n_blocks,
            threads_per_block=config.threads_per_block,
        )
        #: Optional batched LP hook (``BatchRegionObserver``); set by the
        #: LP kernel wrapper. Must expose ``protected`` and
        #: ``on_store(values, slots, mask)``.
        self.lp_observer = None
        #: Deferred stores, in issue order:
        #: ``(buffer_name, idx, values, mask)`` with leading axis = block.
        #: A ``st_record`` entry names a *tuple* of buffers and carries
        #: one trailing ``values`` column per buffer.
        self.store_records: list[tuple] = []
        #: Deferred order-dependent checksum-table inserts: one lane row
        #: per block (leading axis = block), or ``None``.
        self.table_inserts: np.ndarray | None = None

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

    def st(
        self,
        buf: Buffer | str,
        idx: np.ndarray,
        values: np.ndarray,
        slots: np.ndarray | None = None,
        mask: np.ndarray | None = None,
    ) -> None:
        """Batched global store (leading axis of ``idx`` = block).

        The store is recorded for deferred launch-order application and —
        when the buffer is LP-protected — folded into the batch
        observer. ``slots`` broadcasts against ``idx`` and names the
        issuing thread of each element (defaults to position order
        within the block); ``mask`` silences ragged elements.
        """
        buf = self.buffer(buf)
        idx, mask = self._store_geometry(idx, mask)
        vals, folded = self._charge_store(buf, idx, values, mask)
        if folded is not None:
            self._observe(folded, idx, slots, mask)
        if vals is not None:
            self.store_records.append((buf.name, idx, vals, mask))

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
        order-sensitive lane needs), and the deferred rows reach memory
        in that order too (a tuple-target record of
        :meth:`~repro.gpu.memory.GlobalMemory.write_rows`) instead of
        one whole buffer after the other.
        """
        idx, mask = self._store_geometry(idx, mask)
        bufs = [self.buffer(buf) for buf in bufs]
        if len({buf.name for buf in bufs}) != len(bufs):
            raise LaunchError("a record stores one word per distinct buffer")
        names, columns, folds = [], [], []
        for buf, vals in zip(bufs, values):
            vals, folded = self._charge_store(buf, idx, vals, mask)
            if folded is not None:
                folds.append(folded)
            if vals is not None:
                names.append(buf.name)
                columns.append(vals)
        if folds:
            self._observe(np.stack(folds, axis=-1), idx, slots, mask)
        if names:
            self.store_records.append(
                (tuple(names), idx, np.stack(columns, axis=-1), mask))

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
        """Charge one store. Returns the values to apply (``None`` when
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
            # The batched check phase: persistent writes are suppressed
            # (write traffic stays charged, as in the serial context)
            # and protected stores fold what memory *currently holds*
            # at the target addresses. Reads here are uncharged —
            # the serial VALIDATE path reads through ``memory.read``
            # directly, not ``ld``.
            return None, self.memory.read(buf, idx) if observed else None
        folded = vals if observed and self.mode is not ExecMode.VALIDATE \
            else None
        return np.array(vals), folded

    def _observe(self, values, idx, slots, mask):
        """Fold a store's values into the LP observer (a record's with a
        trailing axis of one word per buffer, :meth:`st_record`)."""
        if slots is None:
            slots = np.arange(idx[0].size).reshape(idx.shape[1:]) \
                % self.n_threads
        if values.ndim > idx.ndim:
            slots = np.broadcast_to(slots, idx.shape)[..., None]
            mask = None if mask is None else mask[..., None]
        self.lp_observer.on_store(values, slots, mask)

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------

    def atomic_cas_claim(
        self,
        buf: Buffer | str,
        candidates: np.ndarray,
        compare,
        valid: np.ndarray | None = None,
    ) -> np.ndarray:
        """Claim one slot per request by ``atomicCAS(compare -> word)``:
        :func:`~repro.gpu.kernel.cas_claim` over the group (leading
        axes block, then thread), returning the claimed index per
        request. A request no candidate can take raises
        :class:`~repro.errors.BatchFallbackError` before any effect, and
        the engine re-runs the group per block.
        """
        claimed, full = cas_claim(self, buf, candidates, compare, valid)
        if full.any():
            raise BatchFallbackError(
                f"a request found no free slot in {self.buffer(buf).name!r}")
        return claimed

    def defer_table_inserts(self, lanes: np.ndarray) -> None:
        """Queue one checksum-table insert per block (row = block) that
        must run in launch order: the engine runs each once its block's
        stores have landed."""
        self.table_inserts = np.array(lanes, copy=True)

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

    def charge_shared(self, nbytes: float) -> None:
        """Charge shared-memory traffic: ``nbytes`` per block."""
        self.tally.shared_bytes += nbytes * self.n_blocks_in_batch

    def finalize_tally(self) -> Tally:
        """Return the group's accumulated tally."""
        return self.tally
