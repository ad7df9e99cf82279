"""The KV daemon: sockets, admission control, and the batching window.

Thread model
------------
* one **listener** thread accepts connections;
* one **reader** thread per connection decodes frames, answers
  ``ping``/``stats``/``shutdown`` inline, and enqueues batchable ops
  onto the bounded admission queue — a full queue means the request is
  *shed* (an immediate counted reject the client may retry), which is
  what keeps a traffic spike from growing the window latency without
  bound;
* one **batcher** thread owns the :class:`~repro.service.core.ServiceCore`
  (and therefore the device): it takes whatever queued while the
  previous window ran, keeps the window open while requests are still
  arriving, and closes it when it holds ``max_batch`` requests, when
  every connection has sent as many requests as the previous window
  acked it (a closed loop answers each ack with one request, so the
  cohort is whole and nobody is left to wait for), or at the latest
  ``max_wait_ms`` after it met the first request — :class:`FlushPolicy`
  counts the answers from the enqueue timestamps.
  It flushes the window as at most two MegaKV launches plus — if
  anything was written — one drain, and only then writes the responses
  back — the ack *is* the durability receipt.

Nothing here knows about persistence details; that is all
:class:`ServiceCore`. The daemon adds networking, queueing and
telemetry on top: every count it keeps is kept once, in one metrics
registry (:attr:`KVServer.metrics`), and :meth:`KVServer.stats` reads
it back.
"""

from __future__ import annotations

import collections
import os
import socket
import threading
import time

from repro.errors import ProtocolError, ServiceError, ServiceUnavailableError
from repro.obs import MetricsRegistry
from repro.obs import current as _recorder
from repro.service import protocol
from repro.service.core import Request, ServiceConfig, ServiceCore
from repro.service.protocol import pack_frame, read_frame, validate_request

STATS_SCHEMA_VERSION = 1

#: Window latencies kept for the p50/p99 stats estimate.
LATENCY_WINDOW = 4096

FLUSH_REASONS = ("fill", "answered", "deadline", "stop")


class FlushPolicy:
    """When the open window closes — arithmetic on arrival times.

    The batcher (or a test with a fake clock) reports each request it
    takes (:meth:`add`, with ``Request.t_enqueue`` and who sent it),
    asks :meth:`decide`, and reports when a window has run and whom its
    acks go to (:meth:`close`). The policy reads no clock, no queue and
    no socket; a source is any hashable.

    What the previous acks release comes back as a burst; a window
    should hold the burst and not wait a moment longer. It closes on
    whichever of three rules comes first.

    *Fill.* It holds ``max_batch`` requests.

    *Answered.* A closed-loop client answers each ack with one request
    on the same connection. :meth:`close` records how many acks each
    source was sent; an arrival stamped at or after them pays one off,
    and once nothing is owed the cohort is whole: the window closes at
    its last arrival. A request stamped before the acks queued behind
    the running window and answers nothing. The rule waits for nobody;
    a source that does not answer (it left, it sends less, it never
    waited for acks) leaves the window to the deadline — for one
    window: the next is owed only what this one acks.

    *Deadline.* ``max_wait`` after the window's first arrival or, if
    later, after the previous window's acks: what a request spent
    queued behind a running window is not time the batcher chose to
    wait.
    """

    def __init__(self, max_batch: int, max_wait_s: float) -> None:
        self.max_batch = max_batch
        self.max_wait = max_wait_s
        self._n = 0             # requests in the open window
        self._first = 0.0       # its first arrival
        self._last = 0.0        # its latest arrival
        self._acked_at = 0.0    # when the previous window's acks began
        self._owed = collections.Counter()  # source -> acks to answer
        self._was_owed = False  # those acks reached somebody

    def add(self, t_enqueue: float, source=None) -> None:
        """A request from ``source`` joins the open window (opening it
        if none is)."""
        if not self._n:
            self._first = t_enqueue
        self._n += 1
        self._last = t_enqueue
        owed = self._owed.get(source)
        if owed and t_enqueue >= self._acked_at:
            if owed > 1:
                self._owed[source] = owed - 1
            else:
                del self._owed[source]

    def decide(self) -> tuple[float | None, str | None]:
        """``(flush at, reason)`` if nobody else arrives; ``(None,
        None)`` while no window is open. ``answered`` is due at the
        last arrival, which is already past: take what is queued, then
        flush."""
        if not self._n:
            return None, None
        if self._n >= self.max_batch:
            return self._last, "fill"
        if self._was_owed and not self._owed:
            return self._last, "answered"
        return max(self._first, self._acked_at) + self.max_wait, "deadline"

    def close(self, now: float, acked=()) -> None:
        """The open window ran; its acks went out from ``now``, one to
        ``acked``'s source for each entry."""
        self._n = 0
        self._acked_at = now
        self._owed = collections.Counter(acked)
        self._was_owed = bool(self._owed)


class _Conn:
    """A client connection: socket + serialized writes."""

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.lock = threading.Lock()
        self.closed = False

    def reply(self, doc: dict) -> bool:
        """Best-effort response write; a dead client is not an error
        (its request simply goes un-acked, and un-acked means
        retryable). False when the response went nowhere."""
        frame = pack_frame(doc)
        with self.lock:
            if self.closed:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                return False

    def close(self) -> bool:
        """Close the socket; True if this call did (not an earlier one)."""
        with self.lock:
            first = not self.closed
            self.closed = True
            try:
                self.sock.close()
            except OSError:
                pass
            return first


class KVServer:
    """Long-lived daemon serving one durable MegaKV store.

    ``address``: a Unix socket path (any ``str``) or ``(host, port)``
    tuple; port 0 binds an ephemeral port (read :attr:`address` after
    :meth:`start` / :meth:`serve_forever` binds).
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 heap_path=None, shards: int = 0,
                 address=("127.0.0.1", 0)) -> None:
        self.config = config or ServiceConfig()
        self.core = ServiceCore(self.config, heap_path=heap_path,
                                shards=shards)
        self._requested_address = address
        self.address = None
        self._listener: socket.socket | None = None
        self._queue: "collections.deque[Request]" = collections.deque()
        self._queue_lock = threading.Lock()
        self._queue_event = threading.Event()
        self._stop = threading.Event()
        self._bound = threading.Event()
        self._conns: list[_Conn] = []
        self._conns_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._t_start = time.monotonic()
        rec = _recorder()
        #: Where every count of this daemon lives: the registry of the
        #: recorder installed at construction if it records (telemetry
        #: and Prometheus read the same series), else one of its own.
        self.metrics = rec.metrics if rec.metrics.active \
            else MetricsRegistry()
        # Several reader threads count at once, and ``inc`` is a
        # read-modify-write.
        self._count_lock = threading.Lock()
        self.occupancy_last = 0
        self._latencies: "collections.deque[float]" = collections.deque(
            maxlen=LATENCY_WINDOW)
        self._policy = FlushPolicy(self.config.max_batch,
                                   self.config.max_wait_ms / 1000.0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _bind(self) -> None:
        addr = self._requested_address
        if isinstance(addr, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            if os.path.exists(addr):
                os.unlink(addr)
            sock.bind(addr)
            self.address = addr
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(addr)
            self.address = sock.getsockname()
        sock.listen(128)
        self._listener = sock
        self._bound.set()

    def start(self) -> "KVServer":
        """Run the daemon on background threads; returns once bound."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="kv-server", daemon=True)
        thread.start()
        self._threads.append(thread)
        if not self._bound.wait(timeout=30):
            raise ServiceError("server failed to bind within 30s")
        return self

    def serve_forever(self) -> None:
        """Bind and serve until :meth:`shutdown` (or a client's
        ``shutdown`` op); then drain-close the core."""
        self._bind()
        batcher = threading.Thread(target=self._batcher_loop,
                                   name="kv-batcher", daemon=True)
        batcher.start()
        accepter = threading.Thread(target=self._accept_loop,
                                    name="kv-accept", daemon=True)
        accepter.start()
        self._stop.wait()
        # Stop intake first, then let the batcher retire the queue.
        try:
            self._listener.close()
        except OSError:
            pass
        self._queue_event.set()
        batcher.join(timeout=60)
        with self._conns_lock:
            for conn in self._conns:
                conn.close()
        self.core.close(drain=True)
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    def shutdown(self) -> None:
        self._stop.set()
        self._queue_event.set()

    def join(self, timeout: float | None = None) -> None:
        for thread in self._threads:
            thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            conn = _Conn(sock, str(peer))
            with self._conns_lock:
                self._conns.append(conn)
            reader = threading.Thread(target=self._reader_loop,
                                      args=(conn,), name="kv-reader",
                                      daemon=True)
            reader.start()

    def _reader_loop(self, conn: _Conn) -> None:
        try:
            while not self._stop.is_set():
                try:
                    doc = read_frame(conn.sock)
                except ProtocolError:  # undecodable or oversized frame
                    self._count("service.requests.errors", reason="protocol")
                    return self._drop(conn, "protocol")
                except ServiceUnavailableError:  # EOF inside a frame
                    return self._drop(conn, "torn")
                except OSError:
                    return self._drop(conn, "reset")
                if doc is None:
                    return
                self._dispatch(conn, doc)
        finally:
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _count(self, name: str, **labels) -> None:
        """One count from a reader thread (or shared with one)."""
        with self._count_lock:
            self.metrics.inc(name, **labels)

    def _drop(self, conn: _Conn, reason: str) -> None:
        """Close a connection the peer did not close cleanly — counted,
        and nobody else's: the daemon keeps serving the others."""
        if conn.close():
            self._count("service.connections.dropped", reason=reason)

    def _reply(self, conn: _Conn | None, doc: dict) -> bool:
        """Answer a queued request; a reply with nowhere to go (the
        client vanished mid-window) is counted, never raised. True if
        it reached the connection."""
        if conn is None:
            return False
        if conn.reply(doc):
            return True
        self.metrics.inc("service.replies.dropped")
        self._drop(conn, "reset")
        return False

    def _dispatch(self, conn: _Conn, doc: dict) -> None:
        req_id = doc.get("id")
        try:
            op = validate_request(doc)
        except ProtocolError as exc:
            self._count("service.requests.errors", reason="protocol")
            conn.reply({"id": req_id, "ok": False, "error": str(exc)})
            return
        if op == "ping":
            conn.reply({"id": req_id, "ok": True, "op": "ping"})
            return
        if op == "stats":
            conn.reply({"id": req_id, "ok": True, "op": "stats",
                        "stats": self.stats()})
            return
        if op == "shutdown":
            conn.reply({"id": req_id, "ok": True, "op": "shutdown"})
            self.shutdown()
            return
        request = Request(op=op, key=doc["key"],
                          value=doc.get("value"), req_id=req_id,
                          conn=conn, t_enqueue=time.monotonic())
        with self._queue_lock:
            if len(self._queue) >= self.config.queue_cap \
                    or self._stop.is_set():
                admitted = False
            else:
                self._queue.append(request)
                admitted = True
        if admitted:
            self._queue_event.set()
        else:
            # Admission control: bounded queue, counted shed. The
            # client sees an immediate, explicit reject instead of an
            # unbounded latency tail.
            self._count("service.requests.shed", op=op)
            conn.reply({"id": req_id, "ok": False, "op": op,
                        "error": "shed", "shed": True})

    # ------------------------------------------------------------------
    # Batcher side
    # ------------------------------------------------------------------

    def _take(self, deadline: float | None) -> Request | None:
        """Pop one queued request — at once if there is one, else
        waiting until ``deadline`` (None: until intake or stop)."""
        while True:
            with self._queue_lock:
                if self._queue:
                    request = self._queue.popleft()
                    if not self._queue:
                        self._queue_event.clear()
                    return request
                self._queue_event.clear()
            if self._stop.is_set():
                return None
            if deadline is None:
                self._queue_event.wait(timeout=0.05)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._queue_event.wait(timeout=remaining)

    def _batcher_loop(self) -> None:
        policy = self._policy
        window: list[Request] = []
        while True:
            # An ``answered`` deadline is already past: ``_take`` then
            # pops what is queued and waits for nothing.
            deadline, reason = policy.decide()
            request = None if reason == "fill" else self._take(deadline)
            if request is not None:
                window.append(request)
                policy.add(request.t_enqueue, request.conn)
            elif window:
                if reason == "deadline" and self._stop.is_set():
                    reason = "stop"  # shutdown cut the wait short
                self._flush(window, reason)
                window = []
            elif self._stop.is_set() and not self._queue:
                return

    def _flush(self, window: list[Request], reason: str) -> None:
        metrics = self.metrics
        for op, n in collections.Counter(r.op for r in window).items():
            metrics.inc("service.requests", n, op=op)
        dwell_ms = (time.monotonic() - window[0].t_enqueue) * 1000.0
        self.core.span_attrs = {"dwell_ms": dwell_ms, "flush_reason": reason}
        try:
            result = self.core.execute_window(window)
        except ServiceError as exc:
            result, error = None, str(exc)
        # The acks start now: whatever is stamped later may be an answer
        # to them, whatever queued earlier cannot be. Only a reply that
        # was delivered can be answered.
        now = time.monotonic()
        metrics.inc("service.window.flush", reason=reason)
        metrics.observe("service.window.dwell_ms", dwell_ms)
        if result is None:
            metrics.inc("service.requests.errors", len(window),
                        reason="window")
            self._policy.close(now, [
                req.conn for req in window
                if self._reply(req.conn, {"id": req.req_id, "ok": False,
                                          "op": req.op, "error": error})])
            return
        # Counted before the first ack goes out, so a client that reads
        # stats() after its answer finds its request in them.
        acked = sum(1 for _, doc in result.responses if doc.get("ok"))
        metrics.inc("service.requests.acked", acked)
        if acked < len(window):
            metrics.inc("service.requests.errors", len(window) - acked,
                        reason="window")
        metrics.inc("service.windows")
        metrics.inc("service.launches", result.launches)
        metrics.inc("service.window.sub_batches", result.sub_batches)
        metrics.inc("service.window.drained_lines", result.drained_lines)
        metrics.inc("service.window.superseded_writes",
                    result.superseded_writes)
        metrics.inc("service.window.local_gets", result.local_gets)
        metrics.observe("service.window.occupancy", len(window))
        metrics.observe("service.window.ms", result.elapsed_s * 1000.0)
        self.occupancy_last = len(window)
        delivered = []
        for req, doc in result.responses:
            doc["id"] = req.req_id
            self._latencies.append(now - req.t_enqueue)
            if self._reply(req.conn, doc):
                delivered.append(req.conn)
        self._policy.close(now, delivered)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        with self._queue_lock:
            return len(self._queue)

    def publish_gauges(self, metrics) -> None:
        """`TelemetrySampler` gauge provider: the readings that are not
        counts (those are in :attr:`metrics` already)."""
        metrics.set_gauge("service.queue.depth", self.queue_depth())
        metrics.set_gauge("service.queue.capacity", self.config.queue_cap)
        metrics.set_gauge("service.batch.occupancy", self.occupancy_last)

    def _latency_quantiles(self, count: int) -> dict:
        sample = sorted(self._latencies)
        if not sample:
            return {"count": 0, "p50_ms": None, "p99_ms": None}

        def pct(q: float) -> float:
            idx = min(len(sample) - 1, int(q * (len(sample) - 1) + 0.5))
            return sample[idx] * 1000.0

        return {"count": count, "p50_ms": pct(0.50), "p99_ms": pct(0.99)}

    def stats(self) -> dict:
        """The daemon's stats document (``service_stats`` schema): its
        counts as :attr:`metrics` holds them, plus configuration, the
        latency sample and what the last restart recovered."""
        metrics = self.metrics
        occupancy = metrics.histogram("service.window.occupancy")

        def count(name: str, **labels) -> int:
            return int(metrics.value(name, **labels))

        return {
            "schema": STATS_SCHEMA_VERSION,
            "backend": self.core.backend(),
            "engine": self.config.engine,
            "uptime_s": time.monotonic() - self._t_start,
            "config": {
                "engine": self.config.engine,
                "capacity": self.config.capacity,
                "cache_lines": self.config.cache_lines,
                "max_batch": self.config.max_batch,
                "max_wait_ms": self.config.max_wait_ms,
                "queue_cap": self.config.queue_cap,
                "shards": self.core.shards,
            },
            "counters": {
                # Requests the batcher took into a window, by op.
                "requests": {op: count("service.requests", op=op)
                             for op in protocol.BATCH_OPS},
                "acked": count("service.requests.acked"),
                "shed": sum(count("service.requests.shed", op=op)
                            for op in protocol.BATCH_OPS),
                "errors": sum(count("service.requests.errors", reason=r)
                              for r in ("protocol", "window")),
                # Responses with nowhere to go: the client closed or
                # vanished between its request and the window's ack.
                "dropped_replies": count("service.replies.dropped"),
                "windows": count("service.windows"),
                "launches": count("service.launches"),
                "sub_batches": count("service.window.sub_batches"),
                "drained_lines": count("service.window.drained_lines"),
                # Work the window absorbed on the host: writes acked
                # without reaching the device (a later write of the
                # window to the same key did), GETs answered from the
                # window's own writes.
                "superseded_writes": count("service.window.superseded_writes"),
                "local_gets": count("service.window.local_gets"),
                # Launches (or block groups) the configured engine ran
                # per block instead, by kernel: empty when every KV
                # launch took the vectorized path.
                "engine_fallbacks": dict(self.core.device.engine.fallbacks),
            },
            "queue_depth": self.queue_depth(),
            "batch_occupancy": {
                "last": self.occupancy_last,
                "mean": occupancy.mean,
                "max": int(occupancy.maximum) if occupancy.count else 0,
            },
            # Why windows closed and what they waited for: a window's
            # dwell is first enqueue -> flush.
            "batching": {
                "flush_reasons": {
                    reason: count("service.window.flush", reason=reason)
                    for reason in FLUSH_REASONS},
                "dwell_ms_mean":
                    metrics.histogram("service.window.dwell_ms").mean,
            },
            # Every request of a served window got a response, so their
            # number is the sum of the windows' occupancies.
            "latency_ms": self._latency_quantiles(int(occupancy.total)),
            "records": self.core.records(),
            "resume": dict(self.core.resume_info),
        }

    # ------------------------------------------------------------------
    # Harness hook
    # ------------------------------------------------------------------

    def install_kill_trigger(self, trigger: str) -> None:
        """Arm a crash-harness kill trigger (``writebacks:N`` et al).

        Harness-internal: the serve crash scenario spawns the daemon in
        its own session and SIGKILLs the whole group from inside the
        armed write-back window, exactly like
        :mod:`repro.harness.crashproc` children do.
        """
        from repro.harness.crashproc import install_kill_trigger

        install_kill_trigger(trigger, self.core.device, self.core.heap)
