"""Kernel abstraction and the scalar per-block execution context.

A :class:`Kernel` is the simulator's unit of GPU work: it declares a
:class:`LaunchConfig` (grid × block dimensions) and a block body,
vectorized across each block's threads with numpy (axis 0 = thread
index, in lane order). The engine runs every body through three batch
entries — ``run_block_batch``, ``validate_block_batch`` and
``recover_block_batch`` — on a :class:`~repro.gpu.batch.BatchBlockContext`:
a deferred group of blocks, or one immediate row. A kernel writes
either body:

* a **batch body** (``run_block_batch``, written over a leading block
  axis) — every workload kernel and both MEGA-KV kernels; or
* a **scalar body** (``run_block`` on a :class:`BlockContext`) — the
  DSL's function kernels, the EP wrapper, tests. The default batch
  entries run it on the row's ``BlockContext``, one row only.

The scalar entries (``run_block`` / ``validate_block`` /
``recover_block``) stay public: by default they run the batch entry on
``ctx``'s row. A kernel with neither body is a :class:`LaunchError`.

:class:`BlockContext` is the scalar-shaped API over one immediate row:
1-D ``ld``/``st`` (stores land as issued), ``block_id``, atomics,
shuffles, ``clwb``/``persist_barrier``, shared memory and explicit
ALU-work accounting (``alu``/``flops``, since the simulator does not
interpret instructions). Its loads and stores, one-element atomics
(which land as issued, so a deferred group refuses them), serial-cycle
charges, the LP observer and the EP interceptor all go through that
row: a store is charged, suppressed and folded by one body of code.

Execution modes (:class:`ExecMode`) implement the LP recovery protocol:
in ``VALIDATE`` mode a replayed block does *not* write persistent data;
instead each intercepted store reads what memory *currently holds* at
the target addresses and feeds it to the checksum observer — exactly
the check phase of the paper's check-and-recovery kernel (Listing 7).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import LaunchError, UnrecoverableRegionError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext, ExecMode
from repro.gpu.costs import Tally
from repro.gpu.memory import Buffer, GlobalMemory
from repro.gpu.shared import SharedMemory
from repro.gpu.warp import WARP_SIZE, shfl_down, shfl_xor


@dataclass(frozen=True)
class LaunchConfig:
    """Grid and block dimensions of one kernel launch.

    Dimensions follow CUDA's ``(x, y)`` convention; omit ``y`` for 1-D
    launches. Thread blocks are numbered row-major: block id =
    ``by * grid_x + bx``.
    """

    grid: tuple[int, int] = (1, 1)
    block: tuple[int, int] = (32, 1)

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.grid + self.block):
            raise LaunchError(f"non-positive launch dimension: {self}")

    @classmethod
    def linear(cls, n_blocks: int, threads_per_block: int) -> "LaunchConfig":
        """A 1-D launch."""
        return cls(grid=(n_blocks, 1), block=(threads_per_block, 1))

    @property
    def n_blocks(self) -> int:
        """Total thread blocks in the grid."""
        return self.grid[0] * self.grid[1]

    @property
    def threads_per_block(self) -> int:
        """Threads in each block."""
        return self.block[0] * self.block[1]

    @property
    def n_warps_per_block(self) -> int:
        """Warps per block (final warp may be partial)."""
        return math.ceil(self.threads_per_block / WARP_SIZE)

    def block_coords(self, block_id: int) -> tuple[int, int]:
        """``(bx, by)`` of a flat block id."""
        if not 0 <= block_id < self.n_blocks:
            raise LaunchError(f"block id {block_id} outside grid {self.grid}")
        return block_id % self.grid[0], block_id // self.grid[0]


class StoreObserver(Protocol):
    """Interface the LP runtime plugs into a context (duck-typed)."""

    #: Names of the buffers whose stores are checksum-protected.
    protected: frozenset[str]

    def on_store(self, values: np.ndarray, slots: np.ndarray,
                 mask: np.ndarray | None = None) -> None:
        """Fold ``values`` (leading axis = block within the group; a
        scalar context's one block is its row's leading axis of 1) into
        per-thread checksums at ``slots``; ``mask`` is passed only when
        a store has one."""


class BlockContext:
    """Execution context of one thread block: the scalar-shaped API over
    one immediate :class:`~repro.gpu.batch.BatchBlockContext` row."""

    def __init__(
        self,
        memory: GlobalMemory,
        atomics: AtomicUnit,
        config: LaunchConfig,
        block_id: int,
        mode: ExecMode = ExecMode.NORMAL,
        fence_latency_cycles: float = 660.0,
        fence_concurrency: int = 1,
    ) -> None:
        self.memory = memory
        self.atomics = atomics
        self.config = config
        self.block_id = block_id
        self.mode = mode
        self.shared = SharedMemory()
        #: The one row this block's loads and stores go through; its
        #: stores land as issued.
        self.row = BatchBlockContext(memory, config, (block_id,), mode,
                                     atomics, immediate=True)
        self.row.block_context = self
        #: The row's tally: every charge of this block lands there.
        self.tally: Tally = self.row.tally
        # Persist-barrier cost parameters (set by the device per launch).
        self._fence_latency = fence_latency_cycles
        self._fence_concurrency = max(1, fence_concurrency)
        self._pending_flush_lines = 0

    @property
    def lp_observer(self) -> StoreObserver | None:
        """The row's Lazy Persistency hook; set by the LP wrapper."""
        return self.row.lp_observer

    @lp_observer.setter
    def lp_observer(self, observer: StoreObserver | None) -> None:
        self.row.lp_observer = observer

    @property
    def ep_interceptor(self):
        """The row's Eager Persistency hook (undo logging before each
        protected store); set by the EP wrapper."""
        return self.row.ep_interceptor

    @ep_interceptor.setter
    def ep_interceptor(self, interceptor) -> None:
        self.row.ep_interceptor = interceptor

    # ------------------------------------------------------------------
    # Thread geometry
    # ------------------------------------------------------------------

    @property
    def n_threads(self) -> int:
        """Threads in this block."""
        return self.config.threads_per_block

    @property
    def tid(self) -> np.ndarray:
        """Flat thread indices ``[0, n_threads)``."""
        return np.arange(self.n_threads)

    @property
    def block_xy(self) -> tuple[int, int]:
        """``(blockIdx.x, blockIdx.y)``."""
        return self.config.block_coords(self.block_id)

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

    def ld(self, buf: Buffer | str, idx: np.ndarray | int) -> np.ndarray:
        """Global load; counts read traffic."""
        return self.row.ld(buf, np.atleast_1d(np.asarray(idx)))

    def st(
        self,
        buf: Buffer | str,
        idx: np.ndarray | int,
        values: np.ndarray | float | int,
        slots: np.ndarray | None = None,
    ) -> None:
        """Global store, landed at once: the row's store of these
        elements, which counts write traffic and drives the LP and EP
        hooks.

        ``slots`` optionally names the thread that issued each element
        (defaults to position order); the LP observer uses it to keep
        true per-thread checksum accumulators for the reduction.
        """
        buf = self.buffer(buf)
        idx = np.atleast_1d(np.asarray(idx))
        vals = np.broadcast_to(np.asarray(values, dtype=buf.dtype), idx.shape)
        self.row.st(buf, idx.reshape(1, -1), vals.reshape(1, -1),
                    slots=None if slots is None
                    else np.asarray(slots).reshape(1, -1))

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------

    def atomic_cas(self, buf: Buffer | str, index: int, compare, value):
        """``atomicCAS`` on one element; returns the old value."""
        return self.row.atomic_cas(buf, index, compare, value)

    def atomic_exch(self, buf: Buffer | str, index: int, value):
        """``atomicExch`` on one element; returns the old value."""
        return self.row.atomic_exch(buf, index, value)

    def atomic_add(self, buf: Buffer | str, idx: np.ndarray, values: np.ndarray) -> None:
        """``atomicAdd`` across threads."""
        buf = self.buffer(buf)
        self.row.guard_atomic(buf)
        idx = np.atleast_1d(np.asarray(idx))
        self.tally.global_write_bytes += idx.size * buf.dtype.itemsize
        self.atomics.add(buf, idx, values)

    def atomic_max(self, buf: Buffer | str, idx: np.ndarray, values: np.ndarray) -> None:
        """``atomicMax`` across threads."""
        buf = self.buffer(buf)
        self.row.guard_atomic(buf)
        idx = np.atleast_1d(np.asarray(idx))
        self.tally.global_write_bytes += idx.size * buf.dtype.itemsize
        self.atomics.max_(buf, idx, values)

    # ------------------------------------------------------------------
    # Eager Persistency primitives (clwb / persist barrier)
    # ------------------------------------------------------------------

    def clwb(self, buf: Buffer | str, idx: np.ndarray | int) -> int:
        """Explicit cache-line write-back of the lines under ``idx``.

        The Eager Persistency primitive LP never needs. Returns how many
        lines were actually written to NVM; their persistence is only
        guaranteed after the next :meth:`persist_barrier`.
        """
        buf = self.buffer(buf)
        idx = np.atleast_1d(np.asarray(idx))
        flushed = self.memory.flush(buf, idx)
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
        pending = self._pending_flush_lines
        stall = self._fence_latency + pending * 8.0
        self.tally.serial_cycles += stall / self._fence_concurrency
        self._pending_flush_lines = 0

    # ------------------------------------------------------------------
    # Intra-block primitives
    # ------------------------------------------------------------------

    def syncthreads(self) -> None:
        """Block-wide barrier (a no-op functionally; costed)."""
        self.tally.syncthreads += 1

    def shfl_down(self, values: np.ndarray, offset: int) -> np.ndarray:
        """Warp shuffle-down across this block's thread vector."""
        self.tally.shuffle_ops += np.asarray(values).shape[0]
        return shfl_down(values, offset)

    def shfl_xor(self, values: np.ndarray, lane_mask: int) -> np.ndarray:
        """Warp shuffle-xor across this block's thread vector."""
        self.tally.shuffle_ops += np.asarray(values).shape[0]
        return shfl_xor(values, lane_mask)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------

    def alu(self, n_ops: float) -> None:
        """Charge ``n_ops`` thread-level ALU operations."""
        self.tally.alu_ops += n_ops

    def flops(self, per_thread: float, active_threads: int | None = None) -> None:
        """Charge floating-point work, ``per_thread`` ops per thread."""
        n = self.n_threads if active_threads is None else active_threads
        self.tally.alu_ops += per_thread * n

    def add_serial_cycles(self, cycles: float) -> None:
        """Charge cycles that serialize against the whole device."""
        self.row.add_serial_cycles(cycles)

    def charge_shared(self, nbytes: float) -> None:
        """Charge shared-memory traffic accounted outside ``self.shared``."""
        self.tally.shared_bytes += nbytes

    def finalize_tally(self) -> Tally:
        """Fold shared-memory traffic into the tally and return it."""
        self.tally.shared_bytes += self.shared.traffic_bytes
        self.shared.traffic_bytes = 0
        return self.tally


class Kernel(abc.ABC):
    """One GPU kernel: a launch shape plus per-block behaviour.

    Subclasses set:

    * :attr:`name` — stable identifier used in reports.
    * :attr:`protected_buffers` — names of output buffers that Lazy
      Persistency protects (the kernel's persistent stores).
    * :attr:`idempotent` — whether re-running a block reproduces its
      output (true for all the paper's Parboil-style kernels once
      outputs are block-disjoint; the default recovery simply re-runs
      the block, as Section IV-A describes).

    and define one body: ``run_block_batch`` or ``run_block`` (module
    docstring). The engine calls only the three batch entries.
    """

    name: str = "kernel"
    protected_buffers: tuple[str, ...] = ()
    idempotent: bool = True
    #: Whether :meth:`run_block_batch` is implemented — what admits a
    #: launch to deferred groups under the ``batched`` engine.
    batchable: bool = False

    @abc.abstractmethod
    def launch_config(self) -> LaunchConfig:
        """Grid/block dimensions for this kernel."""

    def _overrides(self, name: str) -> bool:
        """Whether this kernel's class replaces ``Kernel.<name>``."""
        return getattr(type(self), name) is not getattr(Kernel, name)

    def _no_body(self) -> LaunchError:
        return LaunchError(
            f"kernel {self.name!r} defines neither run_block_batch nor "
            "run_block")

    def run_block(self, ctx: BlockContext) -> None:
        """Execute one thread block: by default :meth:`run_block_batch`
        on ``ctx``'s row. A kernel with a scalar body overrides this."""
        if not self._overrides("run_block_batch"):
            raise self._no_body()
        self.run_block_batch(ctx.row)

    def run_block_batch(self, bctx) -> None:
        """Execute a homogeneous group of blocks in one vectorized pass.

        ``bctx`` is a :class:`~repro.gpu.batch.BatchBlockContext` whose
        leading axis indexes the block within the group — a deferred
        group, or one immediate row. Must charge whole-group totals and
        decide on the group's starting image what each block would
        decide mid-launch (:mod:`repro.gpu.batch`), so that a deferred
        group is bit-identical to the same blocks run as rows.

        By default this runs a scalar :meth:`run_block` on the row's
        :class:`BlockContext` — one immediate row only.
        """
        if not self._overrides("run_block"):
            raise self._no_body()
        self.run_block(_scalar(bctx))

    def block_output_map(self, block_id: int) -> "dict[str, np.ndarray] | None":
        """Flat indices of this block's protected stores, per buffer.

        This is the *program slice* of the block's store addresses
        (Section VI / Listing 7): when a kernel can compute where it
        stores without computing what, validation can fetch and fold
        those locations directly instead of replaying the whole block.
        Return ``None`` (the default) to fall back to full replay.

        The map must cover exactly the elements the block stores
        (each once), buffers and elements in the order the block stores
        them: validation folds the map in its own order, and an
        order-sensitive lane (Adler-32) depends on that order.
        """
        return None

    def validate_block(self, ctx: BlockContext) -> object | None:
        """Replay a block for checksum validation (``VALIDATE`` mode):
        by default :meth:`validate_block_batch` on ``ctx``'s row,
        returning the row's outcome record.

        The engine collects every block's record — in the launch's
        block order — and hands the list to
        :meth:`merge_validation_outcomes` once the grid is done. Plain
        kernels return ``None``; the LP wrapper returns the block's
        recomputed checksum lanes.
        """
        batch = self.validate_block_batch \
            if self._overrides("validate_block_batch") else self._validate_rows
        return batch(ctx.row)[0]

    def validate_block_batch(self, bctx) -> list:
        """Vectorized validation of a whole block group; returns the
        per-block outcome records (one entry per block, ``None`` for
        plain kernels).

        A kernel with a scalar :meth:`validate_block` of its own runs it
        on the row's :class:`BlockContext`. Otherwise, when every block
        in the group exposes a :meth:`block_output_map` over the same
        buffer set, the maps are padded into one ``(n_blocks, max_len)``
        index array per buffer (ragged tails masked) and fetched with a
        single batched store interception per buffer — the grid-wide
        Listing-7 pass; else the group replays through
        :meth:`run_block_batch` in ``VALIDATE`` mode.
        """
        if self._overrides("validate_block"):
            return [self.validate_block(_scalar(bctx))]
        return self._validate_rows(bctx)

    def _validate_rows(self, bctx) -> list:
        """The default check phase of :meth:`validate_block_batch`."""
        maps = [self.block_output_map(int(b)) for b in bctx.block_ids]
        names = list(maps[0]) if maps[0] is not None else None
        uniform = names is not None and all(
            m is not None and list(m) == names for m in maps[1:]
        )
        if not uniform:
            self.run_block_batch(bctx)
            return [None] * bctx.n_blocks_in_batch
        for name in names:
            rows = [np.asarray(m[name]).reshape(-1) for m in maps]
            max_len = max(r.size for r in rows)
            idx = np.zeros((len(rows), max_len), dtype=np.int64)
            mask = np.zeros((len(rows), max_len), dtype=bool)
            for row, r in enumerate(rows):
                idx[row, :r.size] = r
                mask[row, :r.size] = True
            # In VALIDATE mode ``st`` folds what memory holds (the
            # values are ignored) — the check phase of the generated
            # recovery kernel. Each row folds its first ``len(map)``
            # elements with ``arange % n_threads`` slots, as one store
            # of the map from that block would.
            bctx.st(name, idx, 0, mask=None if mask.all() else mask)
        return [None] * bctx.n_blocks_in_batch

    def merge_validation_outcomes(self, outcomes: list) -> None:
        """Merge per-block validation outcome records, in block order.

        Called once by the launch engine at the end of a ``VALIDATE``
        launch with every block's :meth:`validate_block_batch` records.
        Plain kernels keep no validation state, so the default does
        nothing; the LP wrapper overrides this with the vectorized
        checksum-table compare.
        """

    def recover_block(self, ctx: BlockContext) -> None:
        """Re-execute a failed block during crash recovery: by default
        :meth:`recover_block_batch` on ``ctx``'s row.

        Idempotent kernels re-run as-is; others must override with an
        application-specific recovery function (Section IV-A).
        """
        batch = self.recover_block_batch \
            if self._overrides("recover_block_batch") else self._recover_rows
        batch(ctx.row)

    def recover_block_batch(self, bctx) -> None:
        """Re-execute a group of failed blocks in one vectorized pass.

        A kernel with a scalar :meth:`recover_block` of its own runs it
        on the row's :class:`BlockContext`; otherwise idempotent kernels
        re-run through :meth:`run_block_batch`, and others must provide
        their own recovery function.
        """
        if self._overrides("recover_block"):
            self.recover_block(_scalar(bctx))
        else:
            self._recover_rows(bctx)

    def _recover_rows(self, bctx) -> None:
        """The default recovery of :meth:`recover_block_batch`."""
        if not self.idempotent:
            raise UnrecoverableRegionError(
                f"kernel {self.name!r} is not idempotent and provides no "
                "recovery function"
            )
        self.run_block_batch(bctx)


def _scalar(bctx) -> BlockContext:
    """The :class:`BlockContext` a scalar body runs on: ``bctx``'s own,
    when ``bctx`` is one immediate row that has one."""
    ctx = bctx.block_context
    if ctx is None:
        raise LaunchError(
            "a scalar block body runs on one immediate row of a "
            "BlockContext; this context has none")
    return ctx
