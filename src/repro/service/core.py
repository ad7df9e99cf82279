"""Socket-free heart of the KV daemon.

:class:`ServiceCore` owns the durable heap, the device, the
:class:`~repro.megakv.store.MegaKVStore` and its
:class:`~repro.megakv.lp.KVBatchSession`, and implements the two
halves of the service's contract:

**The flush path.** A *window* (the requests one batching interval
collected) is split into maximal key-disjoint *sub-batches* in arrival
order (:func:`partition_window`), logged to the request WAL, launched
as LP-instrumented MegaKV batches, and checkpointed — one
``device.drain()`` per window, which is what makes batching pay: N
requests share one persistence-domain drain instead of buying one
each. Only after the drain (and the WAL retire) does the caller get
the responses to ack, so *an acked write is a drained write*.

**The resume path.** A window is one checkpoint epoch described by one
*launch list* (:func:`window_launches`), and that list is what the WAL
holds. On construction with an existing heap the core cold-opens it,
seeds a session at the WAL's allocator cursor and batch counter, and
has the session :meth:`~repro.megakv.lp.KVBatchSession.prepare` the
same list the forward path launched — so every in-flight table and
results buffer lands under the name and at the address the heap
directory knows it by — then adopts the heap and lets the session
recover and checkpoint the epoch (validate, re-execute failed regions,
drain). Acked windows were drained and cleared their WAL record, so
they are untouched; the at-most-one unacked in-flight window either
recovers fully or is re-applied by client retries — both idempotent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import LPConfig, named_lp_config
from repro.errors import ServiceError, TableFullError
from repro.gpu.device import Device
from repro.gpu.engine import make_engine
from repro.megakv.lp import KVBatchSession
from repro.megakv.store import MegaKVStore
from repro.nvm import create_heap, open_heap
from repro.obs import current as _recorder
from repro.service.reqlog import RequestLog, log_path_for


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    #: Record capacity of the store (slots are 8x this — the paper's
    #: <= 12.5 % load-factor sizing).
    capacity: int = 8192
    #: Launch engine. ``batched`` runs each MegaKV launch as one
    #: vectorized pass; ``serial`` is the per-request reference. All
    #: engines are bit-identical in results.
    engine: str = "batched"
    #: Worker count of the ``parallel`` engine's pool (``None``: the
    #: CPU budget); engines with no pool ignore it.
    jobs: int | None = None
    cache_lines: int = 256
    #: LP configuration name (see :data:`repro.core.config.LP_CONFIGS`).
    config: str = "global-array"
    #: Flush the batching window at this many requests ...
    max_batch: int = 128
    #: ... or this many milliseconds after its first request.
    max_wait_ms: float = 2.0
    #: Admission-control bound: requests queued beyond this are shed.
    queue_cap: int = 1024
    threads_per_block: int = 64
    store_name: str = "megakv"

    def lp_config(self) -> LPConfig:
        return named_lp_config(self.config)


@dataclass
class Request:
    """One batchable client request (op in get/put/delete)."""

    op: str
    key: int
    value: int | None = None
    #: Client-assigned request id, echoed in the response.
    req_id: int | None = None
    #: Opaque connection handle the daemon replies on.
    conn: object = None
    #: Enqueue timestamp (monotonic) for latency accounting.
    t_enqueue: float = 0.0


@dataclass
class SubBatch:
    """A key-disjoint slice of a window; its launches commute."""

    inserts: list[Request] = field(default_factory=list)
    deletes: list[Request] = field(default_factory=list)
    searches: list[Request] = field(default_factory=list)


def partition_window(requests: list[Request]) -> list[SubBatch]:
    """Split a window into maximal key-disjoint sub-batches, in order.

    MegaKV batch kernels require unique keys per batch (writes within a
    batch must commute), and a GET must not share a batch with a write
    to the same key (the batch would not know which comes first). The
    rule, scanning in arrival order: a write to a key already written
    *or read* in the current sub-batch starts a new one; so does a read
    of a key already written. Duplicate reads coexist fine.

    Within one sub-batch every op therefore touches a distinct key
    (except repeated GETs), so executing inserts, then deletes, then
    searches is equivalent to any interleaving — arrival order across
    sub-batches carries the semantics.
    """
    batches: list[SubBatch] = []
    current = SubBatch()
    written: set[int] = set()
    read: set[int] = set()
    for req in requests:
        is_write = req.op in ("put", "delete")
        conflict = (req.key in written) or (is_write and req.key in read)
        if conflict:
            batches.append(current)
            current = SubBatch()
            written = set()
            read = set()
        if req.op == "put":
            current.inserts.append(req)
            written.add(req.key)
        elif req.op == "delete":
            current.deletes.append(req)
            written.add(req.key)
        elif req.op == "get":
            current.searches.append(req)
            read.add(req.key)
        else:
            raise ServiceError(f"unbatchable op {req.op!r}")
    if current.inserts or current.deletes or current.searches:
        batches.append(current)
    return batches


def window_launches(sub_batches: list[SubBatch]):
    """A window as one ordered launch list, plus who each launch answers.

    ``launches[i]`` is the JSON-able ``(op, keys, values)`` of the i-th
    kernel launch (``values`` is ``None`` except for inserts) and
    ``groups[i]`` the requests it serves. This function alone fixes the
    order within a sub-batch — inserts, deletes, searches, empty groups
    skipped; the WAL stores ``launches`` verbatim, the forward path
    launches it and the resume path prepares it.
    """
    launches, groups = [], []
    for sb in sub_batches:
        for op, reqs in (("insert", sb.inserts), ("delete", sb.deletes),
                         ("search", sb.searches)):
            if reqs:
                values = [r.value for r in reqs] if op == "insert" else None
                launches.append((op, [r.key for r in reqs], values))
                groups.append(reqs)
    return launches, groups


def _operands(keys, values) -> list[np.ndarray]:
    """The uint64 arrays a launch-list entry passes to the session."""
    return [np.array(column, dtype=np.uint64)
            for column in (keys, values) if column is not None]


@dataclass
class WindowResult:
    """Outcome of one flushed window."""

    #: ``(request, response-doc)`` pairs, one per request, in arrival
    #: order within each op group.
    responses: list[tuple[Request, dict]]
    launches: int
    sub_batches: int
    drained_lines: int
    elapsed_s: float


class ServiceCore:
    """Heap + store + session lifecycle and the window flush path.

    Single-threaded by contract: exactly one thread (the daemon's
    batcher) may call :meth:`execute_window`. Construction runs the
    full cold-open / replay / recover sequence when ``heap_path``
    names an existing heap.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 heap_path=None, shards: int = 0) -> None:
        self.config = config or ServiceConfig()
        self.heap_path = Path(heap_path) if heap_path is not None else None
        self.shards = shards
        self.heap = None
        self.reqlog: RequestLog | None = None
        #: Filled by the resume path; see ``stats()["resume"]``.
        self.resume_info: dict = {
            "resumed": False, "replayed_launches": 0,
            "recovered_blocks": 0, "reattached_buffers": 0,
            "detached_orphans": 0, "torn_lines": 0,
        }
        self._open()

    # ------------------------------------------------------------------
    # Cold start / resume
    # ------------------------------------------------------------------

    def _open(self) -> None:
        cfg = self.config
        engine = make_engine(cfg.engine, jobs=cfg.jobs)
        resuming = self.heap_path is not None and self.heap_path.exists()
        wal = None
        if self.heap_path is not None:
            self.reqlog = RequestLog(log_path_for(self.heap_path))
            if resuming:
                wal = self.reqlog.read()  # refuses a foreign schema first
                self.heap = self._reopen_heap()
            else:
                self.heap_path.parent.mkdir(parents=True, exist_ok=True)
                self.heap = create_heap(self.heap_path, self.shards)
        # No heap_path is the volatile service (bench-serve's latency
        # baseline): same flush path, nothing survives a restart. A
        # reopened heap is adopted once the layout is rebuilt rather
        # than attached buffer by buffer. The store comes first either
        # way — its two buffers are always the first allocations.
        self.device = Device(cache_capacity_lines=cfg.cache_lines,
                             engine=engine,
                             shadow=None if resuming else self.heap)
        self.store = MegaKVStore(self.device, cfg.capacity,
                                 name=cfg.store_name)
        if wal is not None:
            self.device.memory.set_alloc_cursor(wal["next_addr"])
        self.session = KVBatchSession(
            self.device, self.store, cfg.lp_config(),
            threads_per_block=cfg.threads_per_block,
            batch_counter=wal["batch_counter"] if wal is not None else 0)
        if resuming:
            self._resume(wal["launches"] if wal is not None else [])

    def _reopen_heap(self):
        """Open the existing heap by its on-disk magic; a ``shards``
        request that contradicts what is there is refused, not ignored."""
        heap = open_heap(self.heap_path)
        found = heap.n_shards
        if self.shards > 0 and self.shards != found:
            heap.close()
            kind = (f"a {found}-shard manifest" if found
                    else "a plain (unsharded) heap file")
            raise ServiceError(
                f"{self.heap_path}: expected a {self.shards}-shard "
                f"manifest, found {kind}")
        self.shards = found  # stats() reports what is open, not the flag
        self.resume_info["torn_lines"] = len(heap.torn_lines())
        return heap

    def _resume(self, launches: list) -> None:
        """Rebuild the crashed window's epoch on the reopened heap,
        recover it, and keep the session for serving."""
        rec = _recorder()
        info = self.resume_info
        memory = self.device.memory
        with rec.trace.span("service.resume", cat="service",
                            track="service", heap=str(self.heap_path)):
            # The same prepare() the forward path launched through, at
            # the cursor and counter the WAL recorded (see _open).
            for op, keys, values in launches:
                self.session.manager.enrol(self.session.prepare(
                    op, *_operands(keys, values)))

            # Reconcile directory vs rebuilt layout. A prepared buffer
            # the crashed process never reached is missing from the
            # heap — attach it (its seed image equals what the live
            # attach would have written). An entry no rebuilt buffer
            # claims can only be a leftover the crashed process was
            # mid-way through freeing after its drain — drop it.
            for name, buf in memory.buffers.items():
                if buf.persistent and name not in self.heap.entries:
                    self.heap.attach(buf)
                    info["reattached_buffers"] += 1
            for name in list(self.heap.entries):
                if name not in memory:
                    self.heap.detach(name)
                    info["detached_orphans"] += 1
            self.heap.adopt(memory)

            # Engine-pluggable validate + recover, oldest-first, then
            # one drain to retire the whole window.
            if launches:
                reports = self.session.recover()
                info["recovered_blocks"] = sum(
                    len(report.recovered_blocks) for report in reports)
                self.session.checkpoint()
            self.reqlog.clear()
            info.update(resumed=True, replayed_launches=len(launches))
        if rec.metrics.active:
            rec.metrics.inc("service.resumes")
            for key in ("replayed_launches", "recovered_blocks",
                        "reattached_buffers", "detached_orphans"):
                rec.metrics.inc(f"service.resume.{key}", info[key])

    # ------------------------------------------------------------------
    # Flush path
    # ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.heap is not None

    def records(self) -> int:
        """Live record count (non-empty key slots)."""
        keys = self.device.memory[f"{self.store.name}_keys"].array
        return int(np.count_nonzero(keys))

    def execute_window(self, requests: list[Request]) -> WindowResult:
        """Partition, log, launch, checkpoint, and answer one window."""
        t0 = time.perf_counter()
        sub_batches = partition_window(requests)
        responses: list[tuple[Request, dict]] = []

        # Admission guard: refuse puts that could not fit. Sub-batch
        # inserts may still raise TableFullError under pathological
        # bucket skew; that is handled below as a window-wide error.
        n_puts = sum(len(sb.inserts) for sb in sub_batches)
        record_cap = self.store.n_slots // 8  # the sized load-factor target
        if n_puts and self.records() + n_puts > record_cap:
            return self._fail_window(requests, "store_full", t0)

        launches, groups = window_launches(sub_batches)
        if self.durable:
            self.reqlog.begin(
                next_addr=self.device.memory.alloc_cursor,
                batch_counter=self.session.batch_counter,
                launches=launches,
            )
        full = False
        try:
            for (op, keys, values), reqs in zip(launches, groups):
                outcome = getattr(self.session, op)(*_operands(keys, values))
                if op == "search":
                    for req, raw in zip(reqs, outcome.results):
                        value = int(raw)
                        responses.append((req, {
                            "ok": True, "op": "get",
                            "value": value if value else None,
                        }))
                else:
                    responses.extend((req, {"ok": True, "op": req.op})
                                     for req in reqs)
        except TableFullError:
            # Converge whatever did land, retire the window, and report
            # the failure to every requester — their retries are
            # idempotent.
            full = True
        drained = self.session.checkpoint()
        if self.durable:
            self.reqlog.clear()
        if full:
            return self._fail_window(requests, "store_full", t0)
        return WindowResult(
            responses=responses,
            launches=len(launches),
            sub_batches=len(sub_batches),
            drained_lines=drained,
            elapsed_s=time.perf_counter() - t0,
        )

    @staticmethod
    def _fail_window(requests: list[Request], error: str,
                     t0: float) -> WindowResult:
        responses = [
            (req, {"ok": False, "op": req.op, "error": error})
            for req in requests
        ]
        return WindowResult(responses=responses, launches=0,
                            sub_batches=0, drained_lines=0,
                            elapsed_s=time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------

    def backend(self) -> str:
        return "memory" if self.heap is None else self.heap.kind

    def close(self, drain: bool = True) -> None:
        """Release the heap; ``drain=False`` abandons cached lines
        (test hook simulating an unclean stop without a SIGKILL)."""
        if drain:
            self.device.drain()
        if self.heap is not None:
            self.heap.close()
            self.heap = None
