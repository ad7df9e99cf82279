"""The launch engine: how a launch's thread blocks get executed.

The paper's central observation is that LP regions (= thread blocks) are
*associative*: the GPU guarantees no inter-block ordering, so any
schedule that applies every block's effects exactly once is legal
(Section IV-A; Lin & Solihin make the same assumption for GPU
persistency models generally). The simulator exploits exactly that
property here. :class:`~repro.gpu.device.Device.launch` delegates the
block loop to a :class:`LaunchEngine`, which is one class holding two
orthogonal choices:

* **vectorize** — run a *group* of homogeneous blocks as one pass over
  an extra numpy axis (:class:`~repro.gpu.batch.BatchBlockContext`,
  ``run_block_batch``) instead of one block at a time;
* **place** — run in this process (*inline*), or on a persistent pool
  of ``jobs`` forked workers that share the device's volatile image
  through a named POSIX shared-memory segment (:mod:`repro.gpu.shm`).

The three engine names are three settings of those choices
(:func:`make_engine`): ``serial`` = (scalar, inline) — the reference
loop; ``batched`` = (vector, inline); ``parallel`` = (vector, pool of
``jobs`` workers). What a given *launch* runs as is decided per launch
(:meth:`LaunchEngine._shape`) from what the engine can observe — the
kernel's ``batchable`` / ``parallel_safe`` / ``idempotent`` flags, the
launch's length against ``jobs``, whether ``fork`` exists — into one of
four cells:

==============  =====================================================
scalar-inline   one :class:`~repro.gpu.kernel.BlockContext` per block,
                effects land as the block runs
vector-inline   ``group_size`` blocks per ``BatchBlockContext``; stores
                and table inserts deferred, applied per block in order
scalar-pool     the **op-log** path for merely ``parallel_safe``
                (and ``idempotent``) kernels: workers run blocks under
                :class:`RecordingBlockContext` and ship per-block op
                logs for the parent to replay
vector-pool     each worker runs a contiguous chunk through one
                ``BatchBlockContext`` and ships the deferred records
==============  =====================================================

Pool tasks travel as compact block-group descriptors over pipes;
results come back through a preallocated per-chunk *slot array*
(status, payload length, busy time, the full cost tally) plus a
per-chunk arena region carrying the variable-size payload in the
:class:`~repro.gpu.shm.PayloadWriter` binary codec — no copy-on-write
duplication and no pickled arrays. In every cell the parent applies
effects **in the launch's block order**, so cache recency, eviction
order, NVM shadow state, write statistics, checksum tables and crash
semantics do not depend on the cell.

Determinism contract: given the same plan, every cell must produce the
same ``completed_blocks``, the same tally, the same volatile + NVM
memory images, the same write-back statistics and the same
checksum-table contents as scalar-inline. The parity test suite
(``tests/gpu/test_engines.py``) pins this bit-for-bit.

The post-crash pipeline rides the same cells: ``VALIDATE`` blocks
*return* per-block outcome records (recomputed checksum lanes) instead
of mutating host state, so any cell can run them and then hand the
collected records — in the launch's block order — to
:meth:`~repro.gpu.kernel.Kernel.merge_validation_outcomes` for one
deterministic grid-wide table compare. ``RECOVER`` re-execution batches
and parallelizes exactly like forward execution (table refreshes stay
deferred to launch-order application). The NORMAL / VALIDATE / RECOVER
switch exists once per execution form (:func:`_run_scalar`,
:func:`_run_vector`); inline runners and pool workers call the same
two functions.

**Fallbacks.** One rule: blocks that run scalar-inline under an engine
configured for anything else are a fallback — a whole launch whose
kernel opted out (``batchable`` / ``parallel_safe``) or that is
degenerate for the pool, a single block group whose kernel raised
:class:`~repro.errors.BatchFallbackError` (before any effect) because
its input needs per-block execution, or the tail of a launch whose pool
broke. Each is counted per kernel in ``engine.fallbacks`` (attribute
and metric), and the blocks are reported under the configured engine's
name. A worker that dies or raises mid-launch triggers *serial
continuation*: already-replayed chunks keep their effects and the
remaining blocks re-run scalar-inline — safe because workers never
touch the persistence domain (stores scribble the shared volatile
image at most, and only for idempotent kernels whose re-execution
overwrites them deterministically).
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import pickle
import time
import weakref
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

import numpy as np

from repro.errors import BatchFallbackError, LaunchError
from repro.gpu import shm
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import Tally
from repro.gpu.kernel import BlockContext, ExecMode, Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.obs import current as _recorder
from repro.obs import install as _install_recorder

#: Block-group granularity of serial/replay tracing spans: fine enough
#: to see progress, coarse enough that a 10k-block launch stays a
#: loadable timeline.
TRACE_GROUP_BLOCKS = 64


@dataclass
class LaunchPlan:
    """Everything an engine needs to execute one launch's blocks.

    ``block_ids`` is the final execution order, already shuffled and
    crash-truncated by the device; engines run exactly these blocks and
    nothing else.
    """

    kernel: Kernel
    config: LaunchConfig
    memory: GlobalMemory
    atomics: AtomicUnit
    mode: ExecMode
    block_ids: list[int]
    fence_latency: float = 660.0
    fence_concurrency: int = 1
    #: Optional callback fired with the cumulative completed-block
    #: count each time a block's effects land in the plan's memory
    #: (serial execution, parallel replay, batched application alike).
    #: The crash harness's "kill after N blocks" trigger point.
    block_hook: object | None = None

    def new_tally(self) -> Tally:
        """A zeroed launch-level tally with this plan's geometry."""
        return Tally(
            n_blocks=self.config.n_blocks,
            threads_per_block=self.config.threads_per_block,
        )

    def block_context(self, block_id: int) -> BlockContext:
        """A fresh context for one block of this launch."""
        return BlockContext(
            self.memory, self.atomics, self.config, block_id, self.mode,
            fence_latency_cycles=self.fence_latency,
            fence_concurrency=self.fence_concurrency,
        )


# ---------------------------------------------------------------------------
# The mode switch, once per execution form
# ---------------------------------------------------------------------------

def _run_scalar(kernel: Kernel, ctx: BlockContext, mode: ExecMode,
                outcomes: list) -> None:
    """Run one block on ``ctx`` as ``mode`` asks.

    ``ctx`` is a plain :class:`BlockContext` inline and a
    :class:`RecordingBlockContext` in a pool worker; the switch is the
    same.
    """
    if mode is ExecMode.VALIDATE:
        outcomes.append(kernel.validate_block(ctx))
    elif mode is ExecMode.RECOVER:
        kernel.recover_block(ctx)
    else:
        kernel.run_block(ctx)


def _run_vector(kernel: Kernel, bctx: BatchBlockContext, mode: ExecMode,
                outcomes: list) -> None:
    """Run one block group on ``bctx`` as ``mode`` asks."""
    if mode is ExecMode.VALIDATE:
        outcomes.extend(kernel.validate_block_batch(bctx))
    elif mode is ExecMode.RECOVER:
        kernel.recover_block_batch(bctx)
    else:
        kernel.run_block_batch(bctx)


def _apply_batch_records(plan: LaunchPlan, block_ids, store_records,
                         table_inserts, tally: Tally,
                         completed: list[int]) -> None:
    """Apply a vectorized group's deferred effects, per block in order.

    ``store_records``/``table_inserts`` follow the
    :class:`BatchBlockContext` shapes (leading store axis = block;
    insert lanes keyed by block id). Used identically for groups
    executed in-process and for groups decoded from a worker payload.
    """
    memory = plan.memory
    for row, block_id in enumerate(block_ids):
        bid = int(block_id)
        for name, idx, vals, mask in store_records:
            row_idx = idx[row]
            row_vals = vals[row]
            if mask is not None:
                keep = mask[row]
                row_idx = row_idx[keep]
                row_vals = row_vals[keep]
            if not row_idx.size:
                continue
            if isinstance(name, tuple):  # a st_record: thread-major
                memory.write_interleaved([memory[n] for n in name],
                                         row_idx, row_vals)
            else:
                memory.write(memory[name], row_idx, row_vals)
        for lanes in table_inserts.get(bid, ()):
            ctx = plan.block_context(bid)
            plan.kernel.apply_table_insert(ctx, bid, lanes)
            tally.merge(ctx.finalize_tally())
    completed.extend(int(b) for b in block_ids)
    if plan.block_hook is not None:
        for n in range(len(completed) - len(block_ids) + 1,
                       len(completed) + 1):
            plan.block_hook(n)


# ---------------------------------------------------------------------------
# Worker-side block recording (op-log path)
# ---------------------------------------------------------------------------

#: Op codes of the block-granular worker log (codec framing).
_OP_ST = 0
_OP_ATOMIC_ADD = 1
_OP_ATOMIC_MAX = 2
_OP_TABLE = 3


class RecordingBlockContext(BlockContext):
    """A block context that logs externally visible effects for replay.

    Runs inside a pool worker against the *shared* device image:
    ordinary stores apply locally (so the block observes its own
    writes, exactly as under serial execution — the shared image makes
    this a scribble the parent's deterministic replay later overwrites
    with the same values) and are appended to the op log. Atomics are
    **log-only**: applying them worker-side into the shared image and
    again during parent replay would double-apply, so only the traffic
    charge lands here and the single application happens in the parent
    (``atomic_add``/``atomic_max`` return nothing, so no kernel can
    observe the difference). Reads are not logged — a
    ``parallel_safe`` kernel's loads depend only on pre-launch state
    and the block's own stores.

    Operations whose *result* depends on other blocks' progress
    (``atomic_cas`` / ``atomic_exch``) or on cache state shared across
    blocks (``clwb``) cannot be replayed from a log and raise; kernels
    using them must set ``parallel_safe = False``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ops: list = []
        self.table_insert_deferral = self._defer_table_insert

    def _defer_table_insert(self, key: int, lanes: np.ndarray) -> None:
        self.ops.append((_OP_TABLE, int(key), np.array(lanes, copy=True)))

    def st(self, buf, idx, values, slots=None):
        buf = self.buffer(buf)
        idx_arr = np.atleast_1d(np.asarray(idx))
        vals = np.array(
            np.broadcast_to(np.asarray(values, dtype=buf.dtype),
                            idx_arr.shape)
        )
        # VALIDATE-mode persistent stores are suppressed by the base
        # context (memory contents feed the observer instead); logging
        # them would wrongly apply them during parent replay.
        if not (self.mode is ExecMode.VALIDATE and buf.persistent):
            self.ops.append((_OP_ST, buf.name, idx_arr.copy(), vals))
        super().st(buf, idx_arr, vals, slots=slots)

    def _log_atomic(self, code: int, buf, idx, values):
        buf = self.buffer(buf)
        self._guard_persistent_atomic(buf)
        idx_arr = np.atleast_1d(np.asarray(idx))
        vals = np.array(np.asarray(values), copy=True)
        self.ops.append((code, buf.name, idx_arr.copy(), vals))
        # Traffic is charged here (it is per-issue, like the base
        # context); the contention accounting happens in the parent,
        # against the launch's real AtomicUnit, during replay.
        self.tally.global_write_bytes += idx_arr.size * buf.dtype.itemsize

    def atomic_add(self, buf, idx, values):
        self._log_atomic(_OP_ATOMIC_ADD, buf, idx, values)

    def atomic_max(self, buf, idx, values):
        self._log_atomic(_OP_ATOMIC_MAX, buf, idx, values)

    def atomic_cas(self, buf, index, compare, value):
        raise LaunchError(
            "atomic_cas result depends on other blocks and cannot be "
            "replayed from a log; mark the kernel parallel_safe = False "
            "(lplint rule LP005 flags this before launch: "
            "python -m repro lint builtin)"
        )

    def atomic_exch(self, buf, index, value):
        raise LaunchError(
            "atomic_exch result depends on other blocks and cannot be "
            "replayed from a log; mark the kernel parallel_safe = False "
            "(lplint rule LP005 flags this before launch: "
            "python -m repro lint builtin)"
        )

    def clwb(self, buf, idx):
        raise LaunchError(
            "clwb flush counts depend on shared cache state and cannot "
            "be replayed from a log; mark the kernel parallel_safe = False "
            "(lplint rule LP005 flags this before launch: "
            "python -m repro lint builtin)"
        )


# ---------------------------------------------------------------------------
# Chunk payload codec (worker → parent, no pickle on the data path)
# ---------------------------------------------------------------------------

def _encode_outcomes(w: shm.PayloadWriter, outcomes: list) -> None:
    w.u32(len(outcomes))
    for outcome in outcomes:
        if outcome is None:
            w.u8(0)
        elif (isinstance(outcome, tuple) and len(outcome) == 2
              and isinstance(outcome[0], (int, np.integer))
              and isinstance(outcome[1], np.ndarray)):
            # The LP wrapper's (block_id, lanes) record — the hot shape.
            w.u8(1)
            w.i64(int(outcome[0]))
            w.array(outcome[1])
        else:  # pragma: no cover - exotic kernel-defined records
            w.u8(2)
            w.bytes_(pickle.dumps(outcome))


def _decode_outcomes(r: shm.PayloadReader) -> list:
    outcomes = []
    for _ in range(r.u32()):
        tag = r.u8()
        if tag == 0:
            outcomes.append(None)
        elif tag == 1:
            block_id = r.i64()
            outcomes.append((block_id, r.array()))
        else:  # pragma: no cover - exotic kernel-defined records
            outcomes.append(pickle.loads(r.bytes_()))
    return outcomes


def _encode_batch_chunk(bctx: BatchBlockContext, outcomes) -> bytes:
    """Serialize a vectorized chunk's deferred effects."""
    w = shm.PayloadWriter()
    w.u32(len(bctx.store_records))
    for name, idx, vals, mask in bctx.store_records:
        # 0 = a plain store of one buffer; n = a st_record over n.
        names = name if isinstance(name, tuple) else ()
        w.u8(len(names))
        for part in names or (name,):
            w.str_(part)
        w.array(idx)
        w.array(vals)
        w.optional_array(mask)
    w.u32(len(bctx.table_inserts))
    for block_id, lane_list in bctx.table_inserts.items():
        w.i64(int(block_id))
        w.u32(len(lane_list))
        for lanes in lane_list:
            w.array(lanes)
    _encode_outcomes(w, outcomes)
    return w.getvalue()


def _decode_batch_chunk(buf):
    r = shm.PayloadReader(buf)
    store_records = []
    for _ in range(r.u32()):
        n_names = r.u8()
        name = (tuple(r.str_() for _ in range(n_names)) if n_names
                else r.str_())
        idx = r.array()
        vals = r.array()
        mask = r.optional_array()
        store_records.append((name, idx, vals, mask))
    table_inserts: dict[int, list[np.ndarray]] = {}
    for _ in range(r.u32()):
        block_id = r.i64()
        table_inserts[block_id] = [r.array() for _ in range(r.u32())]
    return store_records, table_inserts, _decode_outcomes(r)


def _encode_block_chunk(blocks_ops: list, outcomes) -> bytes:
    """Serialize a block-granular chunk's op logs."""
    w = shm.PayloadWriter()
    w.u32(len(blocks_ops))
    for ops in blocks_ops:
        w.u32(len(ops))
        for op in ops:
            w.u8(op[0])
            if op[0] == _OP_TABLE:
                w.i64(op[1])
                w.array(op[2])
            else:
                w.str_(op[1])
                w.array(op[2])
                w.array(op[3])
    _encode_outcomes(w, outcomes)
    return w.getvalue()


def _decode_block_chunk(buf):
    r = shm.PayloadReader(buf)
    blocks_ops = []
    for _ in range(r.u32()):
        ops = []
        for _ in range(r.u32()):
            code = r.u8()
            if code == _OP_TABLE:
                ops.append((code, r.i64(), r.array()))
            else:
                ops.append((code, r.str_(), r.array(), r.array()))
        blocks_ops.append(ops)
    return blocks_ops, _decode_outcomes(r)


# ---------------------------------------------------------------------------
# Slot array layout (one record per chunk, shared with workers)
# ---------------------------------------------------------------------------

_TALLY_FIELDS = tuple(f.name for f in dataclasses.fields(Tally))
_SLOT_STATUS = 0
_SLOT_PAYLOAD_LEN = 1
_SLOT_BUSY_NS = 2
_SLOT_TALLY0 = 3
_SLOT_F64 = _SLOT_TALLY0 + len(_TALLY_FIELDS)
_STATUS_DONE = 1.0

#: Fixed arena region per chunk slot; payloads that outgrow it ride the
#: worker's done-message instead (rare, and still codec bytes).
ARENA_SLOT_BYTES = 1 << 20

#: Chunks per worker per launch — a little headroom for load balance.
_CHUNKS_PER_JOB = 4


def _tally_to_slot(slot: np.ndarray, tally: Tally) -> None:
    for i, name in enumerate(_TALLY_FIELDS):
        slot[_SLOT_TALLY0 + i] = float(getattr(tally, name))


def _tally_from_slot(slot: np.ndarray) -> Tally:
    tally = Tally()
    for i, name in enumerate(_TALLY_FIELDS):
        value = float(slot[_SLOT_TALLY0 + i])
        # The first two fields are launch geometry and integer-typed;
        # the rest accumulate as floats exactly like the serial tally.
        if name in ("n_blocks", "threads_per_block"):
            setattr(tally, name, int(value))
        else:
            setattr(tally, name, value)
    return tally


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

class _PoolBroken(Exception):
    """A worker died or raised; the launch must continue serially."""


def _run_chunk_in_worker(pool: "_WorkerPool", ids: list[int],
                         mode: ExecMode, vectorized: bool,
                         fence_latency: float,
                         fence_concurrency: int) -> tuple[bytes, Tally]:
    kernel, config, memory = pool.kernel, pool.config, pool.memory
    outcomes: list = []
    if vectorized:
        bctx = BatchBlockContext(
            memory, config, ids, mode=mode,
            fence_latency_cycles=fence_latency,
            fence_concurrency=fence_concurrency,
        )
        _run_vector(kernel, bctx, mode, outcomes)
        tally = bctx.finalize_tally()
        return _encode_batch_chunk(bctx, outcomes), tally

    # Block-granular op-log path. The private AtomicUnit is only a
    # constructor requirement — recording contexts never apply atomics.
    atomics = AtomicUnit(memory)
    tally = Tally()
    blocks_ops: list = []
    for block_id in ids:
        ctx = RecordingBlockContext(
            memory, atomics, config, block_id, mode,
            fence_latency_cycles=fence_latency,
            fence_concurrency=fence_concurrency,
        )
        _run_scalar(kernel, ctx, mode, outcomes)
        tally.merge(ctx.finalize_tally())
        blocks_ops.append(ctx.ops)
    return _encode_block_chunk(blocks_ops, outcomes), tally


def _worker_main(pool: "_WorkerPool", conn, worker_index: int) -> None:
    """Pool worker loop: inherited state in, slot records + payloads out."""
    # The forked child inherits the parent's recorder and segment
    # registry; neither may act here. Observability belongs to the
    # parent, and segment ownership (unlink rights) stays with the
    # creating pid.
    _install_recorder(None)
    shm.disown_all()
    pool.memory.enter_worker_mode()
    arena = pool.arena_seg.ndarray(
        np.uint8, (pool.capacity, ARENA_SLOT_BYTES))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        (_, seq, chunk_index, mode_value, ids, vectorized,
         fence_latency, fence_concurrency) = msg
        t0 = time.perf_counter_ns()
        try:
            payload, tally = _run_chunk_in_worker(
                pool, list(ids), ExecMode(mode_value), vectorized,
                fence_latency, fence_concurrency,
            )
        except LaunchError as exc:
            conn.send(("err", seq, chunk_index, str(exc)))
            continue
        busy_ns = time.perf_counter_ns() - t0
        slot = pool.slots[chunk_index]
        slot[_SLOT_PAYLOAD_LEN] = len(payload)
        slot[_SLOT_BUSY_NS] = busy_ns
        _tally_to_slot(slot, tally)
        if len(payload) <= ARENA_SLOT_BYTES:
            arena[chunk_index, :len(payload)] = np.frombuffer(
                payload, dtype=np.uint8)
            inline = None
        else:
            inline = payload
        slot[_SLOT_STATUS] = _STATUS_DONE
        conn.send(("done", seq, chunk_index, inline))
    conn.close()


def _release_pool_resources(procs, conns, segments,
                            memory: GlobalMemory) -> None:
    """Tear a pool down: stop workers, reclaim the image, unlink SHM."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except (OSError, ValueError, BrokenPipeError):
            pass
    for proc in procs:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - wedged worker
            proc.terminate()
            proc.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    # Re-point every buffer at private arrays *before* the segments go
    # away, so the memory outlives its pool.
    memory.materialize_data()
    for seg in segments:
        seg.destroy()


class _WorkerPool:
    """A persistent forked worker pool sharing one device image.

    Created lazily by :class:`LaunchEngine` on the first launch that
    can use it and kept across launches (the recovery pipeline's
    NORMAL → VALIDATE → RECOVER sequence reuses one pool; only an
    allocation-epoch change or a different kernel/memory re-forks).
    All segments are created by the parent *before* the fork, so
    workers inherit the mappings and never create segments of their
    own — worker death can leak nothing.
    """

    def __init__(self, jobs: int, kernel: Kernel, config: LaunchConfig,
                 memory: GlobalMemory) -> None:
        self.jobs = jobs
        self.kernel = kernel
        self.config = config
        self.memory = memory
        self.version = memory.version
        self.capacity = jobs * _CHUNKS_PER_JOB
        self.broken = False
        # Opportunistic janitor pass: segments abandoned by SIGKILLed
        # processes (harness children) are reaped before we allocate.
        shm.reap_orphans()
        self.image_seg = shm.SharedSegment.create(
            "img", max(1, memory.image_nbytes))
        memory.export_data_image(self.image_seg.buf)
        self.slot_seg = shm.SharedSegment.create(
            "slots", self.capacity * _SLOT_F64 * 8)
        self.slots = self.slot_seg.ndarray(
            np.float64, (self.capacity, _SLOT_F64))
        self.arena_seg = shm.SharedSegment.create(
            "arena", self.capacity * ARENA_SLOT_BYTES)
        self.arena = self.arena_seg.ndarray(
            np.uint8, (self.capacity, ARENA_SLOT_BYTES))
        self.bytes_shared = (self.image_seg.nbytes + self.slot_seg.nbytes
                             + self.arena_seg.nbytes)
        self._seq = 0
        ctx = multiprocessing.get_context("fork")
        self.workers = []
        for index in range(jobs):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(self, child_conn, index),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.workers.append((proc, parent_conn))
        self._worker_of = {conn: i
                           for i, (_, conn) in enumerate(self.workers)}
        self._outstanding = 0
        #: Most tasks simultaneously in flight during the last launch —
        #: the pool's high-water queue depth.
        self.peak_outstanding = 0
        self._finalizer = weakref.finalize(
            self, _release_pool_resources,
            [proc for proc, _ in self.workers],
            [conn for _, conn in self.workers],
            (self.image_seg, self.slot_seg, self.arena_seg),
            memory,
        )

    def compatible(self, plan: LaunchPlan) -> bool:
        """Whether this pool's forked snapshot still matches ``plan``."""
        return (
            not self.broken
            and self.kernel is plan.kernel
            and self.memory is plan.memory
            and self.config == plan.config
            and self.version == plan.memory.version
        )

    def close(self) -> None:
        """Stop workers, reclaim the device image, unlink segments."""
        self._finalizer()

    # -- launch driving --------------------------------------------------

    def _send_task(self, worker: int, seq: int, chunk_index: int,
                   plan: LaunchPlan, ids, vectorized: bool) -> None:
        _, conn = self.workers[worker]
        conn.send((
            "task", seq, chunk_index, plan.mode.value,
            tuple(int(b) for b in ids), vectorized,
            plan.fence_latency, plan.fence_concurrency,
        ))
        self._outstanding += 1
        if self._outstanding > self.peak_outstanding:
            self.peak_outstanding = self._outstanding

    def _drain_stale(self) -> None:
        """Absorb responses left over from an abandoned launch."""
        conns = [conn for _, conn in self.workers]
        while self._outstanding > 0:
            for conn in mp_connection.wait(conns):
                try:
                    conn.recv()
                except (EOFError, OSError):
                    self.broken = True
                    raise _PoolBroken("pool worker died") from None
                self._outstanding -= 1

    def iter_chunk_results(self, plan: LaunchPlan, chunks: list,
                           vectorized: bool):
        """Yield ``(chunk_index, payload, slot_copy)`` in chunk order.

        Chunks are dispatched dynamically (each worker gets a new chunk
        as it finishes its last) while results are surfaced strictly in
        submission order — chunks are contiguous slices of the launch's
        block order, so in-order consumption *is* launch-order replay
        regardless of dispatch order. Raises :class:`_PoolBroken` on
        worker death or a worker-side
        :class:`~repro.errors.LaunchError`.
        """
        n = len(chunks)
        if n > self.capacity:  # pragma: no cover - chunker invariant
            raise LaunchError(
                f"{n} chunks exceed pool slot capacity {self.capacity}")
        for proc, _ in self.workers:
            if not proc.is_alive():
                self.broken = True
                raise _PoolBroken(f"pool worker pid {proc.pid} is gone")
        self._drain_stale()
        self._seq += 1
        seq = self._seq
        self.peak_outstanding = 0
        self.slots[:n] = 0.0
        pending = list(range(n))

        def dispatch(worker: int) -> None:
            chunk_index = pending.pop(0)
            self._send_task(worker, seq, chunk_index, plan,
                            chunks[chunk_index], vectorized)

        delivered = 0
        ready: dict[int, bytes] = {}
        for worker in range(min(self.jobs, n)):
            dispatch(worker)
        conns = [conn for _, conn in self.workers]
        while delivered < n:
            if delivered in ready:
                payload = ready.pop(delivered)
                yield delivered, payload, np.array(self.slots[delivered])
                delivered += 1
                continue
            for conn in mp_connection.wait(conns):
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    self.broken = True
                    raise _PoolBroken("pool worker died") from None
                self._outstanding -= 1
                kind = msg[0]
                if msg[1] != seq:  # pragma: no cover - abandoned launch
                    continue
                if kind == "err":
                    self.broken = True
                    raise _PoolBroken(
                        f"worker chunk failed: {msg[3]}")
                chunk_index = msg[2]
                inline = msg[3]
                if inline is not None:
                    ready[chunk_index] = inline
                else:
                    plen = int(self.slots[chunk_index, _SLOT_PAYLOAD_LEN])
                    ready[chunk_index] = \
                        self.arena[chunk_index, :plen].tobytes()
                if pending:
                    dispatch(self._worker_of[conn])


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class LaunchEngine:
    """Executes a launch plan's thread blocks: vectorize × place.

    ``vectorize`` lets ``batchable`` kernels run ``group_size`` blocks
    per :class:`~repro.gpu.batch.BatchBlockContext` pass; ``jobs`` is
    the worker count of the forked pool, ``1`` meaning no pool — every
    launch runs inline. Build one through :func:`make_engine` (or
    ``Device(engine="...")``), which maps the three engine names onto
    these choices; ``name`` is what spans, metrics and reports carry.

    The engine owns at most one :class:`_WorkerPool` at a time,
    attached lazily on the first pool-worthy launch and kept until the
    kernel, memory identity or allocation epoch changes (or
    :meth:`close` runs). Workers share the device's volatile image
    through a named segment and return per-chunk results through the
    slot array + arena — no pickled arrays in either direction.

    Requirements on ``batchable`` kernels: every load must decide on
    the group's starting image what it would decide mid-launch (see
    the contract in :mod:`repro.gpu.batch` — block-disjoint outputs
    give it for free; kernels that claim slots establish it per input),
    and any LP wrapper needs commutative checksum lanes. The op-log
    cell additionally requires ``idempotent`` kernels: workers scribble
    the shared volatile image, and the serial continuation after a
    worker failure re-executes scribbled blocks.
    """

    def __init__(self, name: str, vectorize: bool, jobs: int = 1,
                 group_size: int = 256) -> None:
        if jobs < 1:
            raise LaunchError(f"engine {name!r} needs jobs >= 1, got {jobs}")
        if group_size < 1:
            raise LaunchError(
                f"engine {name!r} needs group_size >= 1, got {group_size}")
        #: Stable identifier used by :func:`make_engine` and reports.
        self.name = name
        self.vectorize = vectorize
        self.jobs = jobs
        self.group_size = group_size
        #: Fallbacks by kernel name (see :meth:`_run_scalar_inline`).
        #: Kept on the engine (not only in the metrics registry) so a
        #: caller with no recorder installed can still ask.
        self.fallbacks: collections.Counter = collections.Counter()
        self._pool: _WorkerPool | None = None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Detach: stop pool workers and unlink every shared segment."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "LaunchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self, plan: LaunchPlan) -> _WorkerPool:
        if self._pool is not None and not self._pool.compatible(plan):
            self.close()
        if self._pool is None:
            rec = _recorder()
            with rec.trace.span(
                "engine.shm.attach", cat="engine", track="engine",
                engine=self.name, jobs=self.jobs,
            ):
                self._pool = _WorkerPool(
                    self.jobs, plan.kernel, plan.config, plan.memory)
            if rec.metrics.active:
                rec.metrics.set_gauge(
                    "engine.shm.bytes_shared", self._pool.bytes_shared,
                    engine=self.name,
                )
        return self._pool

    # -- execution -------------------------------------------------------

    def _shape(self, plan: LaunchPlan) -> tuple[bool, bool]:
        """The cell this launch runs in: ``(vector, pooled)``."""
        kernel = plan.kernel
        vector = self.vectorize and bool(kernel.batchable)
        pooled = (
            self.jobs > 1
            and kernel.parallel_safe
            and (vector or kernel.idempotent)
            and len(plan.block_ids) >= 2 * self.jobs
            and "fork" in multiprocessing.get_all_start_methods()
        )
        return vector, pooled

    def execute(self, plan: LaunchPlan) -> tuple[list[int], Tally]:
        """Run every block in ``plan.block_ids``.

        Returns the completed block ids (in execution order) and the
        launch tally, atomic totals included.
        """
        vector, pooled = self._shape(plan)
        tally = plan.new_tally()
        completed: list[int] = []
        outcomes: list = []
        if pooled:
            self._run_pooled(plan, vector, tally, completed, outcomes)
        elif vector:
            self._run_vector_inline(plan, tally, completed, outcomes)
        else:
            self._run_scalar_inline(plan, plan.block_ids, tally, completed,
                                    outcomes)
        rec = _recorder()
        if plan.mode is ExecMode.VALIDATE:
            with rec.trace.span(
                "engine.validate.merge", cat="engine", track="engine",
                engine=self.name, blocks=len(completed),
            ):
                plan.kernel.merge_validation_outcomes(outcomes)
        tally.absorb_atomics(plan.atomics)
        if rec.metrics.active:
            rec.metrics.inc("engine.blocks.completed", len(completed),
                            engine=self.name)
        return completed, tally

    def _run_scalar_inline(self, plan: LaunchPlan, block_ids: list[int],
                           tally: Tally, completed: list[int],
                           outcomes: list) -> None:
        """One block at a time, in this process — the reference cell.

        Also the one fallback rule: under an engine configured for
        anything else, every call here — a whole launch, one
        :class:`~repro.errors.BatchFallbackError` group, the tail of a
        broken pool — is a fallback, and counted.
        """
        rec = _recorder()
        if self.vectorize or self.jobs > 1:
            self.fallbacks[plan.kernel.name] += 1
            if rec.metrics.active:
                rec.metrics.inc("engine.fallbacks", engine=self.name,
                                kernel=plan.kernel.name)
        # One span per 64-block group when tracing, else one null span
        # around the whole loop: the hot loop stays branch-free per
        # block.
        step = TRACE_GROUP_BLOCKS if rec.trace.enabled \
            else max(1, len(block_ids))
        for lo in range(0, len(block_ids), step):
            group = block_ids[lo:lo + step]
            with rec.trace.span(
                "engine.blocks", cat="engine", track="engine",
                engine=self.name, mode=plan.mode.name,
                first=group[0], count=len(group),
            ):
                for block_id in group:
                    ctx = plan.block_context(block_id)
                    _run_scalar(plan.kernel, ctx, plan.mode, outcomes)
                    tally.merge(ctx.finalize_tally())
                    completed.append(block_id)
                    if plan.block_hook is not None:
                        plan.block_hook(len(completed))

    def _run_vector_inline(self, plan: LaunchPlan, tally: Tally,
                           completed: list[int], outcomes: list) -> None:
        """``group_size`` blocks per vectorized pass, in this process.

        A group whose kernel raises
        :class:`~repro.errors.BatchFallbackError` has had no effect yet
        (that is the exception's contract); its blocks run
        scalar-inline instead.
        """
        rec = _recorder()
        ids = plan.block_ids
        for lo in range(0, len(ids), self.group_size):
            group = ids[lo:lo + self.group_size]
            with rec.trace.span(
                "engine.group", cat="engine", track="engine",
                engine=self.name, mode=plan.mode.name,
                first=group[0], count=len(group),
            ):
                bctx = BatchBlockContext(
                    plan.memory, plan.config, group, mode=plan.mode,
                    fence_latency_cycles=plan.fence_latency,
                    fence_concurrency=plan.fence_concurrency,
                    atomics=plan.atomics,
                )
                try:
                    _run_vector(plan.kernel, bctx, plan.mode, outcomes)
                except BatchFallbackError:
                    self._run_scalar_inline(plan, group, tally, completed,
                                            outcomes)
                else:
                    tally.merge(bctx.finalize_tally())
                    _apply_batch_records(
                        plan, group, bctx.store_records,
                        bctx.table_inserts, tally, completed)
            if rec.metrics.active:
                rec.metrics.inc("engine.scheduling.groups",
                                engine=self.name)

    def _chunk(self, block_ids: list[int]) -> list[list[int]]:
        """Contiguous chunks, a few per worker for load balance."""
        n = len(block_ids)
        n_chunks = min(n, self.jobs * _CHUNKS_PER_JOB)
        size = -(-n // n_chunks)
        return [block_ids[i:i + size] for i in range(0, n, size)]

    def _run_pooled(self, plan: LaunchPlan, vectorized: bool, tally: Tally,
                    completed: list[int], outcomes: list) -> None:
        """Chunks on the worker pool, replayed here in launch order."""
        rec = _recorder()
        pool = self._ensure_pool(plan)
        chunks = self._chunk(plan.block_ids)
        if rec.metrics.active:
            rec.metrics.inc("engine.scheduling.chunks", len(chunks),
                            engine=self.name)
        replayed = 0
        busy_ns = 0.0
        merge_ns = 0
        t0 = time.perf_counter_ns()
        try:
            with rec.trace.span(
                "engine.workers", cat="engine", track="engine",
                engine=self.name, jobs=self.jobs, chunks=len(chunks),
                vectorized=vectorized,
            ):
                for chunk_index, payload, slot in pool.iter_chunk_results(
                        plan, chunks, vectorized):
                    group = chunks[chunk_index]
                    m0 = time.perf_counter_ns()
                    busy_ns += slot[_SLOT_BUSY_NS]
                    tally.merge(_tally_from_slot(slot))
                    with rec.trace.span(
                        "engine.replay", cat="engine", track="engine",
                        engine=self.name, first=group[0],
                        count=len(group),
                    ):
                        if vectorized:
                            stores, inserts, outs = \
                                _decode_batch_chunk(payload)
                            _apply_batch_records(
                                plan, group, stores, inserts, tally,
                                completed)
                        else:
                            blocks_ops, outs = _decode_block_chunk(payload)
                            self._replay_block_ops(
                                plan, group, blocks_ops, tally, completed)
                    outcomes.extend(outs)
                    if rec.metrics.active:
                        # live depth: dispatched-but-unmerged chunks, so
                        # a telemetry sampler sees mid-launch pressure
                        rec.metrics.set_gauge(
                            "engine.shm.queue_depth", pool._outstanding,
                            engine=self.name,
                        )
                    merge_ns += time.perf_counter_ns() - m0
                    replayed += 1
        except _PoolBroken:
            # Exactly-once continuation: replayed chunks keep their
            # effects; everything from the first unreplayed chunk on
            # re-runs scalar-inline (worker-side scribbles are
            # overwritten by the deterministic re-execution).
            self.close()
            remaining = [b for chunk in chunks[replayed:] for b in chunk]
            with rec.trace.span(
                "engine.serial_continuation", cat="engine",
                track="engine", engine=self.name, blocks=len(remaining),
            ):
                self._run_scalar_inline(plan, remaining, tally, completed,
                                        outcomes)
            return
        wall_ns = time.perf_counter_ns() - t0
        if rec.metrics.active:
            rec.metrics.inc("engine.slots.merge_ns", merge_ns,
                            engine=self.name)
            rec.metrics.set_gauge(
                "engine.shm.queue_depth_peak", pool.peak_outstanding,
                engine=self.name,
            )
            if wall_ns > 0:
                rec.metrics.set_gauge(
                    "engine.shm.worker_busy_frac",
                    busy_ns / (wall_ns * self.jobs), engine=self.name,
                )


    def _replay_block_ops(self, plan: LaunchPlan, block_ids,
                          blocks_ops: list, tally: Tally,
                          completed: list[int]) -> None:
        memory = plan.memory
        for block_id, block_ops in zip(block_ids, blocks_ops):
            for op in block_ops:
                code = op[0]
                if code == _OP_ST:
                    memory.write(memory[op[1]], op[2], op[3])
                elif code == _OP_ATOMIC_ADD:
                    plan.atomics.add(memory[op[1]], op[2], op[3])
                elif code == _OP_ATOMIC_MAX:
                    plan.atomics.max_(memory[op[1]], op[2], op[3])
                elif code == _OP_TABLE:
                    ctx = plan.block_context(block_id)
                    plan.kernel.apply_table_insert(ctx, op[1], op[2])
                    tally.merge(ctx.finalize_tally())
                else:  # pragma: no cover - defensive
                    raise LaunchError(f"unknown replay op {code!r}")
            completed.append(block_id)
            if plan.block_hook is not None:
                plan.block_hook(len(completed))


#: What each engine name stands for: ``(vectorize, pooled)``.
ENGINES = {
    "serial": (False, False),
    "batched": (True, False),
    "parallel": (True, True),
}


def make_engine(
    spec: LaunchEngine | str | None, jobs: int | None = None
) -> LaunchEngine:
    """Resolve an engine spec: instance, name, or ``None`` (serial).

    ``jobs`` is the pool's worker count and nothing else: ``None`` or
    ``0`` means the container-aware :func:`repro.gpu.shm.cpu_budget`, a
    negative count is a :class:`~repro.errors.LaunchError`, and an
    engine with no pool (``serial``, ``batched``) ignores it.
    """
    if isinstance(spec, LaunchEngine):
        return spec
    name = "serial" if spec is None else spec
    if name not in ENGINES:
        raise LaunchError(
            f"unknown launch engine {spec!r}; "
            "expected 'serial', 'parallel' or 'batched'"
        )
    vectorize, pooled = ENGINES[name]
    return LaunchEngine(
        name, vectorize, (jobs or shm.cpu_budget()) if pooled else 1)
