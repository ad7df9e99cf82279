"""Socket-free heart of the KV daemon.

:class:`ServiceCore` owns the durable heap, the device, the
:class:`~repro.megakv.store.MegaKVStore` and its
:class:`~repro.megakv.lp.KVBatchSession`, and implements the two
halves of the service's contract:

**The flush path.** Inside one checkpoint epoch only the state at the
boundary is observable, so a *window* (the requests one batching
interval collected) launches only its durable work.
:func:`partition_window` coalesces it on the host in arrival order —
per key the last write wins, a GET that follows a same-key write is
answered from the window, every other GET reads pre-window state —
into one launch. A window that writes is one LP-instrumented write
(:meth:`~repro.megakv.lp.KVBatchSession.write`) with a lane per
distinct key: its puts and deletes, and a read lane for each GET of
pre-window state, answered before that lane's write. It is logged to
the request WAL and checkpointed with one ``device.drain()``. N
requests share that drain instead of buying one each. A window that
only reads is one plain search
(:meth:`~repro.megakv.lp.KVBatchSession.lookup`: no checksum table,
no WAL, no epoch — a read makes nothing durable) and touches nothing
durable at all. Only after the drain (and the WAL retire) does the
caller get the responses to ack, so *an acked write is a drained
write* and the acks are arrival-order linearizable.

**The resume path.** A window is one checkpoint epoch described by one
*launch list* (:meth:`WindowPlan.launches`), and that list is what the
WAL holds. Every buffer of the service — the store's two, the
session's write checksum table — is allocated once, in a fixed order,
from :class:`ServiceConfig` alone, so on construction with an existing
heap the core rebuilds the same layout, adopts the heap, has the
session :meth:`~repro.megakv.lp.KVBatchSession.prepare` the list the
forward path launched, and lets it recover and checkpoint the epoch
(validate, re-execute failed regions, drain, re-seed the table).
Acked windows were drained and cleared their WAL record, so they are
untouched; the at-most-one unacked in-flight window either recovers
fully or is re-applied by client retries — both idempotent. The
forward order drain → re-seed → WAL clear keeps the invariant the
validation rests on: *a WAL record never coexists with a checksum from
an earlier window* (see :mod:`repro.service.reqlog`).
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
from repro.nvm.layout import geometry
from repro.obs import current as _recorder
from repro.service.reqlog import RequestLog, log_path_for

#: Threads per MegaKV launch block: a window of ``max_batch`` keys is
#: at most ``ceil(max_batch / THREADS_PER_BLOCK)`` LP regions per launch.
THREADS_PER_BLOCK = 64
#: Prefix of the store's two heap buffers (``megakv_keys`` / ``_vals``).
STORE_NAME = "megakv"


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    #: Record capacity of the store (slots are 8x this — the paper's
    #: <= 12.5 % load-factor sizing).
    capacity: int = 8192
    #: Launch engine. ``batched`` runs each MegaKV launch as one
    #: vectorized pass; ``serial`` is the per-request reference. Both
    #: engines are bit-identical in results.
    engine: str = "batched"
    cache_lines: int = 256
    #: LP configuration name (see :data:`repro.core.config.LP_CONFIGS`).
    config: str = "global-array"
    #: Flush the batching window at this many requests ...
    max_batch: int = 128
    #: ... or when the previous window's acks have all been answered,
    #: and at most this many milliseconds after its first request.
    max_wait_ms: float = 2.0
    #: Admission-control bound: requests queued beyond this are shed.
    queue_cap: int = 1024

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
class WindowPlan:
    """A coalesced window: what reaches the device, who is answered how."""

    #: ``(request, response-doc)`` per request, in arrival order. A GET
    #: answered from the window already carries its value; one in
    #: :attr:`deferred` gets it from the launch.
    responses: list[tuple[Request, dict]] = field(default_factory=list)
    #: Distinct GET keys no earlier write of the window covers, in
    #: arrival order (the values are unused): each reads pre-window
    #: state.
    lookups: dict[int, None] = field(default_factory=dict)
    #: ``(response-doc, key)`` of the GETs that wait.
    deferred: list[tuple[dict, int]] = field(default_factory=list)
    #: The window's last write per key; ``None`` is a delete.
    writes: dict[int, int | None] = field(default_factory=dict)
    #: PUT / DELETE requests acked without reaching the device.
    superseded_writes: int = 0
    #: GETs answered from the window's own writes.
    local_gets: int = 0

    def launches(self) -> list[tuple]:
        """The window's write launch, JSON-able ``(op, keys, values,
        reads)``: one ``write`` with a lane per distinct key the window
        touches — its puts, then its deletes (value 0), then the keys
        it only reads; the order the kernel runs its lanes in — and
        ``reads`` marking (1) the lanes of :attr:`lookups`. ``values``
        covers the writing lanes. None for a window that wrote nothing.
        The WAL stores this verbatim, the forward path launches it and
        the resume path prepares it."""
        if not self.writes:
            return []
        # A stable sort: puts, then deletes, each in arrival order.
        lanes = sorted(self.writes.items(), key=lambda kv: kv[1] is None)
        keys = [k for k, _ in lanes]
        keys += [k for k in self.lookups if k not in self.writes]
        return [("write", keys, [0 if v is None else v for _, v in lanes],
                 [int(k in self.lookups) for k in keys])]


def partition_window(requests: list[Request]) -> WindowPlan:
    """Coalesce a window into one launch: a write, or a search.

    One walk in arrival order keeps ``writes[key]``, the value the
    window has left at ``key`` so far (``None``: deleted). A PUT or
    DELETE overwrites it, so only the last write per key reaches the
    device and the earlier ones are acked with it. A GET of a key in
    ``writes`` is answered from it; any other GET precedes every write
    of its key, so it reads pre-window state, and all such GETs share
    one read of their distinct keys — the write's read lanes, or a
    search in a window that wrote nothing.

    MegaKV batch kernels require unique keys per batch; the write holds
    each key at most once, so its lanes commute. Every request is acked
    only after the window's one drain, which makes the acks equivalent
    to executing the window one request at a time in arrival order.
    """
    plan = WindowPlan()
    for req in requests:
        doc = {"ok": True, "op": req.op}
        if req.op in ("put", "delete"):
            if req.key in plan.writes:
                plan.superseded_writes += 1
            plan.writes[req.key] = req.value if req.op == "put" else None
        elif req.op != "get":
            raise ServiceError(f"unbatchable op {req.op!r}")
        elif req.key in plan.writes:
            doc["value"] = plan.writes[req.key]
            plan.local_gets += 1
        else:
            plan.lookups[req.key] = None
            plan.deferred.append((doc, req.key))
        plan.responses.append((req, doc))
    return plan


#: Every span of this module sits on the service track.
_SPAN = {"cat": "service", "track": "service"}


def _operands(keys, values, reads) -> tuple[np.ndarray, ...]:
    """The arrays a launch-list entry passes to the session."""
    return (np.array(keys, dtype=np.uint64),
            np.array(values, dtype=np.uint64), np.array(reads, dtype=bool))


@dataclass
class WindowResult:
    """Outcome of one flushed window."""

    #: ``(request, response-doc)`` pairs, one per request, in arrival
    #: order.
    responses: list[tuple[Request, dict]]
    #: Kernel launches: the write, or a GET-only window's search (at
    #: most 1).
    launches: int
    #: 1 for a served window, 0 for a failed one (a window used to be
    #: cut into several key-disjoint sub-batches).
    sub_batches: int
    drained_lines: int
    elapsed_s: float
    superseded_writes: int = 0
    local_gets: int = 0


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
        #: Attrs the caller wants on the next ``service.window`` span
        #: (the daemon: why the window closed, how long it dwelt).
        self.span_attrs: dict = {}
        #: Filled by the resume path; see ``stats()["resume"]``.
        self.resume_info: dict = {
            "resumed": False, "replayed_launches": 0,
            "recovered_blocks": 0, "reattached_buffers": 0,
            "detached_orphans": 0, "torn_lines": 0, "torn_wal": 0,
        }
        self._open()

    # ------------------------------------------------------------------
    # Cold start / resume
    # ------------------------------------------------------------------

    def _open(self) -> None:
        cfg = self.config
        engine = make_engine(cfg.engine)
        resuming = self.heap_path is not None and self.heap_path.exists()
        inflight: list = []
        if self.heap_path is not None:
            self.heap_path.parent.mkdir(parents=True, exist_ok=True)
            self.reqlog = RequestLog(log_path_for(self.heap_path),
                                     max_keys=cfg.max_batch)
            if resuming:
                inflight = self.reqlog.read()  # refuses a foreign schema first
                self.resume_info["torn_wal"] = int(self.reqlog.torn)
                self.heap = self._reopen_heap()
            else:
                self.reqlog.clear()  # a new heap has no window in flight
                self.heap = create_heap(self.heap_path, self.shards)
        # No heap_path is the volatile service (bench-serve's latency
        # baseline): same flush path, nothing survives a restart. A
        # reopened heap is adopted once the layout is rebuilt rather
        # than attached buffer by buffer. The layout is the store's two
        # buffers, then the session's write checksum table — sized by
        # the one bound the service can give, a window of ``max_batch``
        # requests per epoch — in this order, every start.
        self.device = Device(cache_capacity_lines=cfg.cache_lines,
                             engine=engine,
                             shadow=None if resuming else self.heap)
        self.store = MegaKVStore(self.device, cfg.capacity, name=STORE_NAME)
        self.session = KVBatchSession(
            self.device, self.store, cfg.lp_config(),
            threads_per_block=THREADS_PER_BLOCK, max_keys=cfg.max_batch)
        if resuming:
            self._resume(inflight)

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
        """Adopt the reopened heap into the rebuilt layout, recover the
        crashed window's epoch, and keep the session for serving."""
        rec = _recorder()
        info = self.resume_info
        memory = self.device.memory
        with rec.trace.span("service.resume", heap=str(self.heap_path),
                            **_SPAN):
            if not launches:
                # No window in flight: every checksum table is a seed
                # image, i.e. scratch. One this configuration lays out
                # differently (another --config or --max-batch, a heap
                # laid out by an older build's tables, a first start
                # killed mid-allocation) is dropped and attached
                # afresh. With a window in flight nothing is: a layout
                # that disagrees is adopt()'s typed error, not a
                # silent re-seed of the checksums that window needs.
                for name, entry in list(self.heap.entries.items()):
                    if entry.role == "table" and (
                            name not in memory
                            or geometry(memory[name]) != geometry(entry)):
                        self.heap.detach(name)
                        info["detached_orphans"] += 1
                for name, buf in memory.buffers.items():
                    if buf.persistent and name not in self.heap.entries:
                        self.heap.attach(buf)
                        info["reattached_buffers"] += 1
            self.heap.adopt(memory)

            # The same prepare() the forward path launched through,
            # then engine-pluggable validate + recover, oldest-first,
            # and one drain (+ re-seed) to retire the whole window.
            if launches:
                for op, *operands in launches:
                    self.session.manager.enrol(self.session.prepare(
                        op, *_operands(*operands)))
                reports = self.session.recover()
                info["recovered_blocks"] = sum(
                    len(report.recovered_blocks) for report in reports)
                self.session.checkpoint()
            if launches or info["torn_wal"]:
                self.reqlog.clear()
            info.update(resumed=True, replayed_launches=len(launches))
        if rec.metrics.active:
            rec.metrics.inc("service.resumes")
            for key in ("replayed_launches", "recovered_blocks",
                        "reattached_buffers", "detached_orphans",
                        "torn_wal"):
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
        """Coalesce, log, launch, checkpoint, and answer one window."""
        t0 = time.perf_counter()
        trace = _recorder().trace
        with trace.span("service.window", requests=len(requests),
                        **self.span_attrs, **_SPAN):
            with trace.span("service.window.coalesce", **_SPAN):
                plan = partition_window(requests)
                launches = plan.launches()

            # Admission guard: refuse puts that could not fit. The
            # write may still raise TableFullError under pathological
            # bucket skew; that is handled below as a window-wide error.
            n_puts = sum(v is not None for v in plan.writes.values())
            record_cap = self.store.n_slots // 8  # the sized load-factor target
            if n_puts and self.records() + n_puts > record_cap:
                return self._fail_window(requests, "store_full", t0)

            if launches:
                full, drained, found = self._apply(launches)
            else:
                # A window with no write touches nothing durable: no WAL
                # record, no drain, no msync.
                full, drained, found = False, 0, self._lookup(plan)
        if full:
            return self._fail_window(requests, "store_full", t0)
        for doc, key in plan.deferred:
            doc["value"] = found[key] or None
        return WindowResult(
            responses=plan.responses,
            launches=int(bool(launches or plan.lookups)),
            sub_batches=1,
            drained_lines=drained,
            elapsed_s=time.perf_counter() - t0,
            superseded_writes=plan.superseded_writes,
            local_gets=plan.local_gets,
        )

    def _lookup(self, plan: WindowPlan) -> dict[int, int]:
        """A GET-only window's one plain search: value per lookup key."""
        if not plan.lookups:
            return {}
        with _recorder().trace.span("service.window.lookup",
                                    keys=len(plan.lookups), **_SPAN):
            keys = list(plan.lookups)
            found = self.session.lookup(np.array(keys, dtype=np.uint64))
        return dict(zip(keys, found.tolist()))

    def _apply(self, launches: list[tuple]) -> tuple[bool, int, dict]:
        """A window's durable half: WAL begin, the write launch (which
        answers the window's reads), one checkpoint (drain, then
        re-seed the table), WAL retire — in that order. Returns
        ``(store_full, drained lines, value per read key)``."""
        trace = _recorder().trace
        if self.durable:
            with trace.span("service.window.wal_begin", **_SPAN):
                self.reqlog.begin(launches)
        (_, keys, values, reads), = launches
        full, found = False, {}
        try:
            outcome = self.session.write(*_operands(keys, values, reads))
        except TableFullError:
            # Converge whatever did land, retire the window, and report
            # the failure to every requester — their retries are
            # idempotent.
            full = True
        else:
            if outcome.results is not None:
                found = dict(zip(keys, outcome.results.tolist()))
        drained = self.session.checkpoint()
        if self.durable:
            with trace.span("service.window.wal_clear", **_SPAN):
                self.reqlog.clear()
        return full, drained, found

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
            self.reqlog.close()
