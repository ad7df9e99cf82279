"""Per-region undo logs for the Eager Persistency baseline.

Eager Persistency (EP) is what Lazy Persistency competes against
(Sections I-II): before a region's first store to each location, the
*old* value is appended to a persistent undo log, the log lines are
flushed (``clwb``) and a persist barrier orders them **before** the
data write. A region is durable once its data lines are flushed and its
commit flag persists; on a crash, uncommitted regions are rolled back
from their logs and re-executed.

The log is fixed-capacity per region (one slab per thread block):

* ``entries``: ``capacity`` records of ``(global byte address, old
  value bits)`` per block, both ``uint64``;
* ``cursors``: per-block entry counts;
* ``commits``: per-block flags (0 = in flight, 1 = committed).

All three buffers are persistent and flushed with the same discipline
the scheme imposes on data — that is the write amplification LP avoids.
"""

from __future__ import annotations

import numpy as np

from repro.errors import RecoveryError, TableError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.memory import Buffer, GlobalMemory
from repro.obs import current as _recorder

#: Commit-flag values.
IN_FLIGHT = np.uint64(0)
COMMITTED = np.uint64(1)

#: Buffer-name prefix for write-amplification attribution.
EP_BUFFER_PREFIX = "__ep_"


class UndoLog:
    """Fixed-capacity per-block undo log in persistent device memory."""

    def __init__(
        self,
        memory: GlobalMemory,
        name: str,
        n_blocks: int,
        capacity_per_block: int,
    ) -> None:
        if n_blocks <= 0 or capacity_per_block <= 0:
            raise TableError("undo log needs positive geometry")
        self.memory = memory
        self.name = name
        self.n_blocks = n_blocks
        self.capacity = capacity_per_block
        self.entries: Buffer = memory.alloc(
            f"{EP_BUFFER_PREFIX}{name}_entries",
            (n_blocks * capacity_per_block * 2,),
            np.uint64,
            persistent=True,
        )
        self.cursors: Buffer = memory.alloc(
            f"{EP_BUFFER_PREFIX}{name}_cursors", (n_blocks,), np.uint64,
            persistent=True,
        )
        self.commits: Buffer = memory.alloc(
            f"{EP_BUFFER_PREFIX}{name}_commits", (n_blocks,), np.uint64,
            persistent=True,
        )

    # ------------------------------------------------------------------
    # Device-side operations (run on a block's immediate row, costed)
    # ------------------------------------------------------------------

    def append(
        self,
        row: BatchBlockContext,
        buf: Buffer,
        flat_idx: np.ndarray,
    ) -> None:
        """Log the *current* values at ``flat_idx`` before they change.

        Writes the records, flushes their lines and the cursor line, and
        issues the persist barrier that orders the log before the
        upcoming data store — the EP choreography per store.
        """
        block = int(row.block_ids[0])
        flat_idx = np.asarray(flat_idx).reshape(-1)
        n = flat_idx.size
        cursor = int(self.cursors.array[block])
        if cursor + n > self.capacity:
            raise TableError(
                f"undo log of block {block} overflows: "
                f"{cursor}+{n} > {self.capacity}"
            )

        old_vals = row.ld(buf, flat_idx)
        addrs = (np.uint64(buf.base_addr)
                 + flat_idx.astype(np.uint64)
                 * np.uint64(buf.dtype.itemsize))
        words = _value_bits(old_vals)

        base = (block * self.capacity + cursor) * 2
        slot_idx = base + np.arange(n) * 2
        row.st(self.entries, slot_idx[None], addrs[None])
        row.st(self.entries, slot_idx[None] + 1, words[None])
        row.st(self.cursors, [[block]], np.uint64(cursor + n))

        row.clwb(self.entries, np.concatenate([slot_idx, slot_idx + 1]))
        row.clwb(self.cursors, [block])
        row.persist_barrier()
        metrics = _recorder().metrics
        if metrics.active:
            metrics.inc("ep.log.appends")
            metrics.inc("ep.log.entries", n)

    def commit(self, row: BatchBlockContext) -> None:
        """Mark the row's region durable (its data must be flushed
        already)."""
        block = int(row.block_ids[0])
        row.st(self.commits, [[block]], COMMITTED)
        row.clwb(self.commits, [block])
        row.persist_barrier()
        metrics = _recorder().metrics
        if metrics.active:
            metrics.inc("ep.log.commits")

    def reset_block(self, row: BatchBlockContext) -> None:
        """Clear the row's block's log (after rollback, before
        re-execution)."""
        block = int(row.block_ids[0])
        row.st(self.cursors, [[block]], IN_FLIGHT)
        row.st(self.commits, [[block]], IN_FLIGHT)
        row.clwb(self.cursors, [block])
        row.clwb(self.commits, [block])
        row.persist_barrier()

    # ------------------------------------------------------------------
    # Host-side recovery operations (read the post-crash image)
    # ------------------------------------------------------------------

    def is_committed(self, block: int) -> bool:
        """Whether a region's commit flag persisted."""
        return bool(self.commits.array[block] == COMMITTED)

    def rollback(self, block: int) -> int:
        """Apply a block's undo records in reverse; returns the count.

        Idempotent: re-applying after a crash during rollback converges
        to the same pre-region state, because the log itself is only
        cleared after the rollback completes.
        """
        rec = _recorder()
        with rec.trace.span("ep.rollback", cat="ep", track="ep",
                            block=block):
            cursor = int(self.cursors.array[block])
            entries = self.entries.array
            undone = 0
            for i in range(cursor - 1, -1, -1):
                base = (block * self.capacity + i) * 2
                addr = int(entries[base])
                bits = np.uint64(entries[base + 1])
                self._write_element(addr, bits)
                undone += 1
        if rec.metrics.active and undone:
            rec.metrics.inc("ep.rollback.records", undone)
        return undone

    def _write_element(self, byte_addr: int, bits: np.uint64) -> None:
        line = byte_addr // self.memory.line_size
        buf = self.memory._buffer_of_line(line)
        offset = byte_addr - buf.base_addr
        if offset % buf.dtype.itemsize:
            raise RecoveryError(
                f"undo record address {byte_addr} misaligned for "
                f"{buf.name!r}"
            )
        element = offset // buf.dtype.itemsize
        raw = np.uint64(bits).tobytes()[: buf.dtype.itemsize]
        value = np.frombuffer(raw, dtype=buf.dtype)[0]
        # Recovery writes go through the persistence domain like any
        # other store (they too persist lazily unless flushed).
        self.memory.write(buf, np.asarray([element]),
                          np.asarray([value], dtype=buf.dtype))


def _value_bits(values: np.ndarray) -> np.ndarray:
    """Raw little-endian bits of any ≤8-byte dtype, widened to u64."""
    values = np.ascontiguousarray(values)
    itemsize = values.dtype.itemsize
    if itemsize > 8:
        raise TableError(f"cannot log {values.dtype} values")
    padded = np.zeros((values.size, 8), dtype=np.uint8)
    padded[:, :itemsize] = values.view(np.uint8).reshape(values.size,
                                                         itemsize)
    return padded.reshape(-1).view("<u8").copy()
