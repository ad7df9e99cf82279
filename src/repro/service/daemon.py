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
  (and therefore the device): it collects a window until ``max_batch``
  requests or ``max_wait_ms`` after the window's first request,
  flushes it as at most three MegaKV launches plus — if anything was
  written — one drain, and only then writes the responses back — the
  ack *is* the durability receipt.

Nothing here knows about persistence details; that is all
:class:`ServiceCore`. The daemon adds networking, queueing and
telemetry on top.
"""

from __future__ import annotations

import collections
import os
import socket
import threading
import time

from repro.errors import ProtocolError, ServiceError, ServiceUnavailableError
from repro.obs import current as _recorder
from repro.service import protocol
from repro.service.core import Request, ServiceConfig, ServiceCore
from repro.service.protocol import pack_frame, read_frame, validate_request

STATS_SCHEMA_VERSION = 1

#: Window latencies kept for the p50/p99 stats estimate.
LATENCY_WINDOW = 4096


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
        retryable)."""
        frame = pack_frame(doc)
        with self.lock:
            if self.closed:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                self.closed = True
                return False

    def close(self) -> None:
        with self.lock:
            self.closed = True
            try:
                self.sock.close()
            except OSError:
                pass


class KVServer:
    """Long-lived daemon serving one durable MegaKV store.

    ``address``: a Unix socket path (``str``) or ``(host, port)``
    tuple; port 0 binds an ephemeral port (read :attr:`address` after
    :meth:`start` / :meth:`serve_forever` binds).
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 heap_path=None, shards: int = 0,
                 address="127.0.0.1:0") -> None:
        if isinstance(address, str) and ":" in address:
            host, _, port = address.rpartition(":")
            try:
                address = (host, int(port))
            except ValueError:
                raise ServiceError(
                    f"address {address!r} looks like host:port but the "
                    f"port is not an integer"
                ) from None
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
        # -- counters (batcher/reader threads; ints under the GIL) ----
        self.requests = {"get": 0, "put": 0, "delete": 0}
        self.acked = 0
        self.shed = 0
        self.errors = 0
        self.windows = 0
        self.launches = 0
        self.sub_batches = 0
        self.drained_lines = 0
        self.superseded_writes = 0
        self.local_gets = 0
        self.occupancy_last = 0
        self.occupancy_max = 0
        self._occupancy_sum = 0
        self._latencies: "collections.deque[float]" = collections.deque(
            maxlen=LATENCY_WINDOW)
        self._latency_count = 0

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
                except (ProtocolError, ServiceUnavailableError, OSError):
                    return
                if doc is None:
                    return
                self._dispatch(conn, doc)
        finally:
            conn.close()
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _dispatch(self, conn: _Conn, doc: dict) -> None:
        req_id = doc.get("id")
        try:
            op = validate_request(doc)
        except ProtocolError as exc:
            self.errors += 1
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
            self.requests[op] += 1
            self._queue_event.set()
        else:
            # Admission control: bounded queue, counted shed. The
            # client sees an immediate, explicit reject instead of an
            # unbounded latency tail.
            self.shed += 1
            rec = _recorder()
            if rec.metrics.active:
                rec.metrics.inc("service.requests.shed", op=op)
            conn.reply({"id": req_id, "ok": False, "op": op,
                        "error": "shed", "shed": True})

    # ------------------------------------------------------------------
    # Batcher side
    # ------------------------------------------------------------------

    def _take(self, deadline: float | None) -> Request | None:
        """Pop one queued request, waiting until ``deadline`` (None =
        wait for intake or stop)."""
        while True:
            with self._queue_lock:
                if self._queue:
                    request = self._queue.popleft()
                    if not self._queue:
                        self._queue_event.clear()
                    return request
                self._queue_event.clear()
            if deadline is None:
                if self._stop.is_set():
                    return None
                self._queue_event.wait(timeout=0.05)
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._queue_event.wait(timeout=remaining)

    def _batcher_loop(self) -> None:
        cfg = self.config
        rec = _recorder()
        while True:
            first = self._take(None)
            if first is None:
                if self._stop.is_set() and not self._queue:
                    return
                continue
            window = [first]
            deadline = time.monotonic() + cfg.max_wait_ms / 1000.0
            while len(window) < cfg.max_batch:
                request = self._take(deadline)
                if request is None:
                    break
                window.append(request)
            self._flush(window, rec)

    def _flush(self, window: list[Request], rec) -> None:
        cfg = self.config
        try:
            result = self.core.execute_window(window)
        except ServiceError as exc:
            self.errors += len(window)
            for req in window:
                if req.conn is not None:
                    req.conn.reply({"id": req.req_id, "ok": False,
                                    "op": req.op, "error": str(exc)})
            return
        now = time.monotonic()
        self.windows += 1
        self.launches += result.launches
        self.sub_batches += result.sub_batches
        self.drained_lines += result.drained_lines
        self.superseded_writes += result.superseded_writes
        self.local_gets += result.local_gets
        self.occupancy_last = len(window)
        self.occupancy_max = max(self.occupancy_max, len(window))
        self._occupancy_sum += len(window)
        for req, doc in result.responses:
            doc["id"] = req.req_id
            ok = doc.get("ok", False)
            if ok:
                self.acked += 1
            else:
                self.errors += 1
            latency = now - req.t_enqueue
            self._latencies.append(latency)
            self._latency_count += 1
            if req.conn is not None:
                req.conn.reply(doc)
        if rec.metrics.active:
            rec.metrics.inc("service.windows")
            rec.metrics.inc("service.launches", result.launches)
            rec.metrics.inc("service.window.superseded_writes",
                            result.superseded_writes)
            rec.metrics.inc("service.window.local_gets", result.local_gets)
            rec.metrics.inc("service.requests.acked", len(window))
            rec.metrics.observe("service.window.occupancy", len(window))
            rec.metrics.observe("service.window.ms",
                                result.elapsed_s * 1000.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self) -> int:
        with self._queue_lock:
            return len(self._queue)

    def publish_gauges(self, metrics) -> None:
        """`TelemetrySampler` gauge provider: live service health."""
        metrics.set_gauge("service.queue.depth", self.queue_depth())
        metrics.set_gauge("service.queue.capacity", self.config.queue_cap)
        metrics.set_gauge("service.batch.occupancy", self.occupancy_last)
        metrics.set_gauge("service.shed.requests", self.shed)
        metrics.set_gauge("service.windows.flushed", self.windows)

    def _latency_quantiles(self) -> dict:
        count = self._latency_count
        sample = sorted(self._latencies)
        if not sample:
            return {"count": 0, "p50_ms": None, "p99_ms": None}

        def pct(q: float) -> float:
            idx = min(len(sample) - 1, int(q * (len(sample) - 1) + 0.5))
            return sample[idx] * 1000.0

        return {"count": count, "p50_ms": pct(0.50), "p99_ms": pct(0.99)}

    def stats(self) -> dict:
        """The daemon's stats document (``service_stats`` schema)."""
        occ_mean = (self._occupancy_sum / self.windows
                    if self.windows else 0.0)
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
                "requests": dict(self.requests),
                "acked": self.acked,
                "shed": self.shed,
                "errors": self.errors,
                "windows": self.windows,
                "launches": self.launches,
                "sub_batches": self.sub_batches,
                "drained_lines": self.drained_lines,
                # Work the window absorbed on the host: writes acked
                # without reaching the device (a later write of the
                # window to the same key did), GETs answered from the
                # window's own writes.
                "superseded_writes": self.superseded_writes,
                "local_gets": self.local_gets,
                # Launches (or block groups) the configured engine ran
                # per block instead, by kernel: empty when every KV
                # launch took the vectorized path.
                "engine_fallbacks": dict(self.core.device.engine.fallbacks),
            },
            "queue_depth": self.queue_depth(),
            "batch_occupancy": {
                "last": self.occupancy_last,
                "mean": occ_mean,
                "max": self.occupancy_max,
            },
            "latency_ms": self._latency_quantiles(),
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
