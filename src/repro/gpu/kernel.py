"""Kernel abstraction and per-block execution context.

A :class:`Kernel` is the simulator's unit of GPU work: it declares a
:class:`LaunchConfig` (grid × block dimensions) and a block body,
vectorized across each block's threads with numpy (axis 0 = thread
index, in lane order). The body is ``run_block_batch``, written over a
leading block axis (:mod:`repro.gpu.batch`); the default ``run_block``
runs it for **one thread block** through a one-block view of a
:class:`BlockContext`, and the default ``validate_block`` runs
``validate_block_batch`` through the same view. A wrapper (LP, EP,
fusion) or a DSL kernel overrides ``run_block`` with a scalar body of
its own.

The :class:`BlockContext` handed to ``run_block`` is the only legal way
to touch device state. It provides:

* global loads/stores (``ld``/``st``) with byte accounting and — when a
  Lazy Persistency observer is attached — checksum interception of
  persistent stores;
* shared memory, ``__syncthreads``, warp shuffles;
* atomics via the launch's :class:`~repro.gpu.atomics.AtomicUnit`;
* explicit ALU-work accounting (``alu``/``flops``), since the simulator
  does not interpret instructions.

Execution modes (:class:`ExecMode`) implement the LP recovery protocol:
in ``VALIDATE`` mode a replayed block does *not* write persistent data;
instead each intercepted store reads what memory *currently holds* at
the target addresses and feeds it to the checksum observer — exactly
the check phase of the paper's check-and-recovery kernel (Listing 7).
"""

from __future__ import annotations

import abc
import enum
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import DeviceError, LaunchError, UnrecoverableRegionError
from repro.gpu.atomics import AtomicUnit
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


class ExecMode(enum.Enum):
    """What a block execution is for."""

    #: Normal forward execution: stores write memory.
    NORMAL = "normal"
    #: Post-crash validation replay: persistent stores are suppressed
    #: and the observer sees memory's current contents instead.
    VALIDATE = "validate"
    #: Crash recovery of a failed region: ``recover_block`` re-executes
    #: it with normal store semantics.
    RECOVER = "recover"


class StoreObserver(Protocol):
    """Interface the LP runtime plugs into a context (duck-typed)."""

    #: Names of the buffers whose stores are checksum-protected.
    protected: frozenset[str]

    def on_store(self, values: np.ndarray, slots: np.ndarray,
                 mask: np.ndarray | None = None) -> None:
        """Fold ``values`` (leading axis = block within the group; a
        scalar context's one block is a leading axis of 1) into
        per-thread checksums at ``slots``."""


class BlockContext:
    """Execution context of one thread block."""

    #: To an LP observer, one block is a one-row batch.
    n_blocks_in_batch = 1

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
        self.tally = Tally(
            n_blocks=config.n_blocks,
            threads_per_block=config.threads_per_block,
        )
        #: Optional Lazy Persistency hook; set by the LP kernel wrapper.
        self.lp_observer: StoreObserver | None = None
        #: Optional Eager Persistency hook (logging before stores); set
        #: by the EP kernel wrapper. Must expose ``protected`` and
        #: ``before_store(ctx, buf, idx)``.
        self.ep_interceptor = None
        # Persist-barrier cost parameters (set by the device per launch).
        self._fence_latency = fence_latency_cycles
        self._fence_concurrency = max(1, fence_concurrency)
        self._pending_flush_lines = 0

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
        buf = self.buffer(buf)
        idx = np.atleast_1d(np.asarray(idx))
        self.tally.global_read_bytes += idx.size * buf.dtype.itemsize
        return self.memory.read(buf, idx)

    def st(
        self,
        buf: Buffer | str,
        idx: np.ndarray | int,
        values: np.ndarray | float | int,
        slots: np.ndarray | None = None,
    ) -> None:
        """Global store; counts write traffic and drives LP hooks.

        ``slots`` optionally names the thread that issued each element
        (defaults to position order); the LP observer uses it to keep
        true per-thread checksum accumulators for the reduction.
        """
        buf = self.buffer(buf)
        idx = np.atleast_1d(np.asarray(idx))
        vals = np.broadcast_to(np.asarray(values, dtype=buf.dtype), idx.shape)
        self.tally.global_write_bytes += idx.size * buf.dtype.itemsize

        observer = self.lp_observer
        observed = observer is not None and buf.name in observer.protected

        if self.mode is ExecMode.VALIDATE:
            if buf.persistent:
                if observed:
                    in_memory = self.memory.read(buf, idx)
                    observer.on_store(in_memory.reshape(1, -1),
                                      self._slots(slots, idx))
                return  # persistent writes are suppressed during replay
            self.memory.write(buf, idx, vals)
            return

        interceptor = self.ep_interceptor
        if (interceptor is not None and buf.persistent
                and buf.name in interceptor.protected):
            interceptor.before_store(self, buf, idx)

        self.memory.write(buf, idx, vals)
        if observed:
            observer.on_store(vals.reshape(1, -1), self._slots(slots, idx))

    def _slots(self, slots: np.ndarray | None, idx: np.ndarray) -> np.ndarray:
        """Each element's issuing thread, as a one-row batch."""
        if slots is None:
            slots = np.arange(idx.size) % self.n_threads
        return np.asarray(slots).reshape(1, -1)

    # ------------------------------------------------------------------
    # Atomics
    # ------------------------------------------------------------------

    def _guard_persistent_atomic(self, buf: Buffer) -> None:
        if self.mode is ExecMode.VALIDATE and buf.persistent:
            raise DeviceError(
                "atomic to persistent buffer during VALIDATE replay; "
                "kernels that accumulate into persistent data must "
                "override validate_block()"
            )

    def atomic_cas(self, buf: Buffer | str, index: int, compare, value):
        """``atomicCAS`` on one element; returns the old value."""
        buf = self.buffer(buf)
        self._guard_persistent_atomic(buf)
        self.tally.global_write_bytes += buf.dtype.itemsize
        return self.atomics.cas(buf, index, compare, value)

    def atomic_exch(self, buf: Buffer | str, index: int, value):
        """``atomicExch`` on one element; returns the old value."""
        buf = self.buffer(buf)
        self._guard_persistent_atomic(buf)
        self.tally.global_write_bytes += buf.dtype.itemsize
        return self.atomics.exch(buf, index, value)

    def atomic_add(self, buf: Buffer | str, idx: np.ndarray, values: np.ndarray) -> None:
        """``atomicAdd`` across threads."""
        buf = self.buffer(buf)
        self._guard_persistent_atomic(buf)
        idx = np.atleast_1d(np.asarray(idx))
        self.tally.global_write_bytes += idx.size * buf.dtype.itemsize
        self.atomics.add(buf, idx, values)

    def atomic_max(self, buf: Buffer | str, idx: np.ndarray, values: np.ndarray) -> None:
        """``atomicMax`` across threads."""
        buf = self.buffer(buf)
        self._guard_persistent_atomic(buf)
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
        """Charge cycles that serialize against the whole device.

        Used by lock-based and emulated-atomic table insertion, whose
        contention costs are computed by the cost model's sub-models.
        """
        self.tally.serial_cycles += cycles

    def charge_shared(self, nbytes: float) -> None:
        """Charge shared-memory traffic accounted outside ``self.shared``."""
        self.tally.shared_bytes += nbytes

    def finalize_tally(self) -> Tally:
        """Fold shared-memory traffic into the tally and return it."""
        self.tally.shared_bytes += self.shared.traffic_bytes
        self.shared.traffic_bytes = 0
        return self.tally


def cas_claim(ctx, buf: Buffer | str, candidates: np.ndarray, compare,
              valid: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Claim one slot per request by ``atomicCAS(compare -> word)``.

    The one walk behind both contexts' ``atomic_cas_claim``; ``ctx``
    is a :class:`BlockContext` or a batch context, and its tally and
    atomic unit are charged. ``candidates[..., c]`` lists each
    request's slots in probe order (leading axes in request order);
    ``valid`` silences padding candidates and whole masked-out
    requests. Every request walks its candidates as the scalar loop
    ``for s in slots: if atomic_cas(buf, s, compare, word) == compare:
    break`` does: a slot holding anything but ``compare`` costs one
    failed CAS, the first one holding ``compare`` is claimed. Requests
    are resolved **in request order**: a slot an earlier request
    claimed reads as occupied to every later one — the one dependence
    between requests the batched load contract cannot hide.

    Returns ``(claimed, full)``: the claimed index per request (``-1``
    where ``valid`` left nothing to try or nothing was free) and the
    requests none of whose candidates was free. Each attempt is charged
    as the scalar context charges it — element bytes of write traffic
    and one op on the :class:`~repro.gpu.atomics.AtomicUnit` at that
    address — unless a request is full: then nothing is. The winning
    CAS's own write is *not* made: the caller stores the claimed word
    at the returned index in the same pass (an LP kernel does anyway,
    to fold it), and a store of the same word to the same line right
    after is indistinguishable, to the persistence domain, from the
    pair.
    """
    buf = ctx.buffer(buf)
    if ctx.mode is ExecMode.VALIDATE and buf.persistent:
        raise DeviceError(
            "atomic to persistent buffer during VALIDATE replay; "
            "kernels that accumulate into persistent data must "
            "override validate_block_batch()"
        )
    if ctx.atomics is None:
        raise LaunchError(
            "atomic_cas_claim needs the launch's AtomicUnit to "
            "charge contention to; build the BatchBlockContext "
            "with atomics="
        )
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
    full = np.zeros(cand.shape[0], dtype=bool)
    cand, tried = cand[rows], tried[rows]
    free = tried & (ctx.memory.read(buf, cand) == buf.dtype.type(compare))
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
    full[rows] = out
    if not out.any():
        attempted = tried & (np.arange(cand.shape[1]) <= pos[:, None])
        ctx.tally.global_write_bytes += (
            int(np.count_nonzero(attempted)) * buf.dtype.itemsize)
        ctx.atomics.charge(buf, cand[attempted])
    return claimed.reshape(shape), full.reshape(shape)


class GroupGeometry:
    """Thread geometry of a group of blocks: ``config`` is the launch
    shape and ``block_ids`` the group's blocks (leading axis = block
    within the group). Shared by the batch context and the one-block
    view, so a batch body sees the same geometry in both cells."""

    config: LaunchConfig
    block_ids: np.ndarray

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


class _OneBlockView(GroupGeometry):
    """A scalar :class:`BlockContext` seen as a one-block batch.

    What :meth:`Kernel.run_block` hands a kernel's ``run_block_batch``
    (and :meth:`Kernel.validate_block` its ``validate_block_batch``):
    the geometry of ``block_id`` in a launch shaped ``config`` — by
    default ``ctx``'s own; a fused block's constituent otherwise
    (:class:`~repro.core.fusion.FusedKernel`) — with a length-1 block
    axis, charging ``ctx`` as the batch context would.
    Stores are not deferred: row 0 of each batched store goes through
    ``ctx.st`` at once — a record store's words thread-major, as a
    per-request loop issues them — so the LP observer, the EP
    interceptor, ``VALIDATE`` suppression and cache order are the
    scalar context's own. A slot claim is :func:`cas_claim` on ``ctx``;
    with no group to fall back from, a request no candidate can take
    reads ``-1`` and the kernel raises its own error.
    """

    #: Attributes whose one-block meaning is the scalar context's.
    _DELEGATED = frozenset({"flops", "alu", "syncthreads",
                            "charge_shared"})

    def __init__(self, ctx: BlockContext, block_id: int | None = None,
                 config: LaunchConfig | None = None) -> None:
        self._ctx = ctx
        self.config = ctx.config if config is None else config
        self.block_ids = np.array(
            [ctx.block_id if block_id is None else block_id], dtype=np.int64)

    def __getattr__(self, name: str):
        if name in _OneBlockView._DELEGATED:
            return getattr(self._ctx, name)
        raise AttributeError(
            f"a one-block view has no {name!r}; a kernel whose batch "
            "body needs it must override run_block")

    def ld(self, buf: Buffer | str, idx: np.ndarray,
           charge_elements: int | float | None = None) -> np.ndarray:
        """Load charged as :meth:`BatchBlockContext.ld` charges it."""
        ctx = self._ctx
        buf = ctx.buffer(buf)
        idx = np.asarray(idx)
        n = idx.size if charge_elements is None else charge_elements
        ctx.tally.global_read_bytes += n * buf.dtype.itemsize
        return ctx.memory.read(buf, idx)

    def st(self, buf: Buffer | str, idx: np.ndarray, values,
           slots: np.ndarray | None = None,
           mask: np.ndarray | None = None) -> None:
        """Issue row 0 of a batched store, with ``mask`` and default
        slots as :meth:`BatchBlockContext.st` applies them."""
        buf = self._ctx.buffer(buf)
        row, slots = self._row0(idx, slots, mask)
        self._ctx.st(buf, row(idx), row(values, buf.dtype), slots=slots)

    def st_record(self, bufs, idx: np.ndarray, values,
                  slots: np.ndarray | None = None,
                  mask: np.ndarray | None = None) -> None:
        """Issue row 0 of :meth:`BatchBlockContext.st_record` thread-major:
        each element's word for every buffer in turn, one ``ctx.st``
        apiece, as a per-request loop stores a key and then its value."""
        ctx = self._ctx
        bufs = [ctx.buffer(buf) for buf in bufs]
        row, slots = self._row0(idx, slots, mask)
        at = row(idx)
        words = [row(word, buf.dtype) for buf, word in zip(bufs, values)]
        for i in range(at.size):
            for buf, word in zip(bufs, words):
                ctx.st(buf, at[i:i + 1], word[i:i + 1],
                       slots=slots[i:i + 1])

    def _row0(self, idx, slots, mask):
        """Row 0 of a batched store, flattened: ``row(a)`` broadcasts
        ``a`` to ``idx`` and keeps row 0's unmasked elements; returned
        with the issuing thread of each kept element."""
        idx = np.asarray(idx)
        if idx.ndim < 2 or idx.shape[0] != 1:
            raise LaunchError(
                "a one-block store index must lead with a length-1 "
                f"block axis; got shape {idx.shape}")
        if slots is None:
            slots = np.arange(idx[0].size).reshape(idx.shape[1:]) \
                % self.n_threads
        keep = slice(None) if mask is None else np.broadcast_to(
            np.asarray(mask, dtype=bool), idx.shape)[0].reshape(-1)

        def row(a, dtype=None):
            return np.broadcast_to(np.asarray(a, dtype=dtype),
                                   idx.shape)[0].reshape(-1)[keep]

        return row, row(slots)

    def atomic_cas_claim(self, buf: Buffer | str, candidates: np.ndarray,
                         compare, valid: np.ndarray | None = None
                         ) -> np.ndarray:
        """:func:`cas_claim` on the scalar context (class docstring)."""
        return cas_claim(self._ctx, buf, candidates, compare, valid)[0]


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
    """

    name: str = "kernel"
    protected_buffers: tuple[str, ...] = ()
    idempotent: bool = True
    #: Whether :meth:`run_block_batch` is implemented — what admits a
    #: launch to the engine's vector cell.
    batchable: bool = False

    @abc.abstractmethod
    def launch_config(self) -> LaunchConfig:
        """Grid/block dimensions for this kernel."""

    def run_block(self, ctx: BlockContext) -> None:
        """Execute one thread block.

        By default this is :meth:`run_block_batch` over a one-block
        view of ``ctx``: a kernel that writes only the batch body runs
        the same body in the scalar cell, one block at a time — every
        workload kernel and both MEGA-KV kernels do. Wrappers and DSL
        kernels override this with a scalar body of their own.
        """
        self.run_block_batch(_OneBlockView(ctx))

    def run_block_batch(self, ctx) -> None:
        """Execute a homogeneous group of blocks in one vectorized pass.

        ``ctx`` is a :class:`~repro.gpu.batch.BatchBlockContext` whose
        leading axis indexes the block within the group — or, through
        the default :meth:`run_block`, a one-block view of a scalar
        context. Must charge whole-group totals and decide on the
        group's starting image what each block would decide mid-launch
        (:mod:`repro.gpu.batch`), so that the batched launch is
        bit-identical to the serial one.
        """
        raise NotImplementedError(
            f"kernel {self.name!r} does not implement batched execution"
        )

    def apply_table_insert(self, ctx: BlockContext, key: int,
                           lanes: "np.ndarray") -> None:
        """Apply one deferred checksum-table insertion (engine callback).

        Only kernels that defer table insertions (the LP wrapper)
        override this; a plain kernel never defers anything.
        """
        raise LaunchError(
            f"kernel {self.name!r} deferred a table insert it cannot apply"
        )

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
        """Replay a block for checksum validation (``VALIDATE`` mode).

        By default this is :meth:`validate_block_batch` — the pass the
        vector cell runs — over a one-block view of ``ctx``: the
        :meth:`block_output_map` locations are fetched (the cheap
        Listing-7 path), or the batch body is replayed with persistent
        writes suppressed and memory contents fed to the checksum
        observer. A kernel with a scalar body of its own and no output
        map replays :meth:`run_block` instead.

        May return a per-block *outcome record* (any picklable value);
        the launch engine collects every block's record — in the
        launch's block order — and hands the list to
        :meth:`merge_validation_outcomes` once the grid is done. Plain
        kernels return ``None``; the LP wrapper returns the block's
        recomputed checksum lanes.
        """
        if (type(self).run_block is Kernel.run_block
                or self.block_output_map(ctx.block_id) is not None):
            return self.validate_block_batch(_OneBlockView(ctx))[0]
        self.run_block(ctx)
        return None

    def validate_block_batch(self, bctx) -> list:
        """Vectorized validation of a whole block group.

        Default strategy: when every block in the group exposes a
        :meth:`block_output_map` over the same buffer set, the maps are
        padded into one ``(n_blocks, max_len)`` index array per buffer
        (ragged tails masked) and fetched with a single batched store
        interception per buffer — the grid-wide Listing-7 pass.
        Otherwise the group replays through :meth:`run_block_batch` in
        ``VALIDATE`` mode. Returns the per-block outcome records (one
        entry per block, ``None`` for plain kernels).
        """
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
        launch with every block's :meth:`validate_block` /
        :meth:`validate_block_batch` return value. Plain kernels keep
        no validation state, so the default does nothing; the LP
        wrapper overrides this with the vectorized checksum-table
        compare.
        """

    def recover_block(self, ctx: BlockContext) -> None:
        """Re-execute a failed block during crash recovery.

        Idempotent kernels re-run as-is; others must override with an
        application-specific recovery function (Section IV-A).
        """
        if not self.idempotent:
            raise UnrecoverableRegionError(
                f"kernel {self.name!r} is not idempotent and provides no "
                "recovery function"
            )
        self.run_block(ctx)

    def recover_block_batch(self, bctx) -> None:
        """Re-execute a group of failed blocks in one vectorized pass.

        The batched counterpart of :meth:`recover_block`: idempotent
        kernels re-run through :meth:`run_block_batch`; others must
        provide their own recovery function.
        """
        if not self.idempotent:
            raise UnrecoverableRegionError(
                f"kernel {self.name!r} is not idempotent and provides no "
                "recovery function"
            )
        self.run_block_batch(bctx)
