"""KVServer over real sockets: batching, shed, stats, gauges.

Every test runs the daemon in-process on a Unix socket (or loopback
TCP) with real reader/batcher threads — only the process boundary is
elided relative to ``python -m repro serve``.
"""

import dataclasses
import json
import socket
import sys
import threading
import time

import pytest

from repro import obs
from repro.gpu.engine import ENGINES
from repro.obs.schema import load_schema, validate
from repro.service import daemon
from repro.service.core import ServiceConfig
from repro.service.daemon import KVServer
from repro.service.loadgen import LoadConfig, run_load
from repro.service.protocol import HEADER, MAX_FRAME, ServiceClient, pack_frame


@pytest.fixture
def server(tmp_path):
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   address=str(tmp_path / "kv.sock")).start()
    yield srv
    srv.shutdown()
    srv.join(timeout=30)


def test_round_trip_over_unix_socket(server):
    with ServiceClient(server.address) as client:
        assert client.ping()
        client.put(1, 100)
        assert client.get(1) == 100
        client.delete(1)
        assert client.get(1) is None


def test_round_trip_over_tcp(tmp_path):
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   address=("127.0.0.1", 0)).start()
    try:
        host, port = srv.address
        with ServiceClient((host, port)) as client:
            client.put(2, 22)
            assert client.get(2) == 22
    finally:
        srv.shutdown()
        srv.join(timeout=30)


class _Inbox:
    """Stands in for a connection: keeps what the daemon replies."""

    def __init__(self, expected):
        self.docs = []
        self.expected = expected
        self.full = threading.Event()

    def reply(self, doc):
        self.docs.append(doc)
        if len(self.docs) == self.expected:
            self.full.set()
        return True


def _serve_queued_burst(srv, burst):
    """Admit ``burst`` before the batcher exists, then start the
    daemon: its first take finds all of it, so the burst is one window
    whatever the flush policy makes of the clock. Returns the acks."""
    inbox = _Inbox(len(burst))
    for req_id, (op, key, value) in enumerate(burst):
        srv._dispatch(inbox, {"id": req_id, "op": op, "key": key,
                              "value": value})
    srv.start()
    assert inbox.full.wait(timeout=30)
    return inbox.docs


def test_pipelined_requests_batch_into_one_window(tmp_path):
    """What queued while the batcher was away is its next window."""
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   address=str(tmp_path / "kv.sock"))
    try:
        docs = _serve_queued_burst(
            srv, [("put", k + 1, k + 1) for k in range(32)])
        stats = srv.stats()
    finally:
        srv.shutdown()
        srv.join(timeout=30)
    assert all(doc["ok"] for doc in docs)
    assert stats["counters"]["acked"] == 32
    assert stats["counters"]["windows"] == 1
    assert stats["batch_occupancy"]["max"] == 32
    assert sum(stats["batching"]["flush_reasons"].values()) == 1


def test_window_absorbs_same_key_chains_on_the_host(tmp_path):
    """One same-key burst is one window: one write reaches the
    device, the counters say what the window absorbed, and the
    window's phases — and why it closed — show up as spans."""
    burst = [("put", 1, 1), ("get", 1, None), ("put", 1, 2),
             ("get", 1, None), ("delete", 1, None), ("get", 1, None),
             ("put", 1, 3), ("get", 1, None)]
    with obs.recording() as rec:  # the daemon counts into it from birth
        srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                       heap_path=tmp_path / "heap.lpnv",
                       address=str(tmp_path / "kv.sock"))
        try:
            docs = _serve_queued_burst(srv, burst)
            with ServiceClient(srv.address) as client:
                assert client.get(1) == 3
            stats = srv.stats()
        finally:
            srv.shutdown()
            srv.join(timeout=30)
    counters = stats["counters"]
    assert [doc["id"] for doc in docs] == list(range(len(burst)))
    assert [doc.get("value") for doc in docs if doc["op"] == "get"] == \
        [1, 2, None, 3]
    assert (counters["windows"], counters["launches"]) == (2, 2)
    assert (counters["superseded_writes"], counters["local_gets"]) == (3, 4)
    assert rec.metrics.value("service.window.superseded_writes") == 3
    assert rec.metrics.value("service.window.local_gets") == 4
    spans = [event.name for event in rec.trace.sink.events
             if event.ph == "X"]
    for phase in ("coalesce", "lookup", "wal_begin", "wal_clear"):
        assert f"service.window.{phase}" in spans, phase
    assert spans.count("service.window") == 2
    assert spans.count("megakv.release") == 1  # the GET-only window: none
    # Why each window closed, and after how long, is on its span, in
    # the metrics and in the stats document — and the three agree.
    windows = [event.args for event in rec.trace.sink.events
               if event.ph == "X" and event.name == "service.window"]
    reasons = stats["batching"]["flush_reasons"]
    assert sum(reasons.values()) == 2
    for reason, count in reasons.items():
        assert rec.metrics.value("service.window.flush",
                                 reason=reason) == count
        assert sum(w["flush_reason"] == reason for w in windows) == count
    dwell = rec.metrics.snapshot()["histograms"]["service.window.dwell_ms"]
    assert dwell["count"] == 2
    assert dwell["sum"] == pytest.approx(sum(w["dwell_ms"] for w in windows))
    assert stats["batching"]["dwell_ms_mean"] == \
        pytest.approx(dwell["sum"] / 2)


def test_one_per_launch_config_never_batches(tmp_path):
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64,
                                 max_batch=1, max_wait_ms=0.0),
                   address=str(tmp_path / "kv1.sock")).start()
    try:
        with ServiceClient(srv.address) as client:
            for k in range(8):
                client.put(k + 1, 1)
        stats = srv.stats()
        assert stats["counters"]["windows"] == 8
        assert stats["batch_occupancy"]["max"] == 1
    finally:
        srv.shutdown()
        srv.join(timeout=30)


def test_admission_control_sheds_over_capacity(tmp_path):
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64,
                                 queue_cap=2, max_batch=2,
                                 max_wait_ms=50.0),
                   address=str(tmp_path / "shed.sock")).start()
    try:
        with ServiceClient(srv.address) as client:
            ids = [client.send("put", k + 1, 1) for k in range(64)]
            docs = [client.wait(i) for i in ids]
        shed = [d for d in docs if d.get("shed")]
        acked = [d for d in docs if d.get("ok")]
        assert shed, "queue_cap=2 under a 64-deep burst must shed"
        assert len(shed) + len(acked) == 64
        assert srv.stats()["counters"]["shed"] == len(shed)
    finally:
        srv.shutdown()
        srv.join(timeout=30)


def test_concurrent_sheds_are_all_counted(tmp_path):
    """Four connections shed at once, their reader threads switching
    every few microseconds: a count lost between two readers' ``inc``
    would show as fewer sheds than the clients saw."""
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64, queue_cap=1,
                                 max_batch=1, max_wait_ms=50.0),
                   address=str(tmp_path / "shed.sock")).start()
    interval = sys.getswitchinterval()
    seen = [[] for _ in range(4)]

    def burst(shed):
        with ServiceClient(srv.address) as client:
            ids = [client.send("put", k + 1, 1) for k in range(64)]
            shed.extend(bool(client.wait(i).get("shed")) for i in ids)

    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=burst, args=(shed,))
                   for shed in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        try:
            counters = srv.stats()["counters"]
        finally:
            srv.shutdown()
            srv.join(timeout=30)
    assert [len(shed) for shed in seen] == [64] * 4
    assert counters["shed"] == sum(map(sum, seen)) > 0


def test_malformed_requests_get_error_responses(server):
    with ServiceClient(server.address) as client:
        doc = client.call("put", key=0, value=1)
        assert not doc["ok"]
        doc = client.call("get", key=1 << 64)
        assert not doc["ok"]
        # The connection survives recoverable protocol errors.
        client.put(1, 5)
        assert client.get(1) == 5


def _gone(server, n_before):
    """Block (bounded) until the daemon has let go of the extra
    connections, i.e. their reader threads have finished."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        with server._conns_lock:
            if len(server._conns) <= n_before:
                return True
        time.sleep(0.005)
    return False


def test_dropped_connections_are_counted_and_cost_nobody_else(tmp_path):
    """Half a frame, an undecodable frame, an oversized frame: each
    closes its connection with a counted reason (the latter two are
    protocol errors too); a bystander is served throughout."""
    with obs.recording() as rec:
        srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                       address=str(tmp_path / "kv.sock")).start()
        try:
            with ServiceClient(srv.address) as bystander:
                bystander.put(1, 10)
                errors = srv.stats()["counters"]["errors"]
                frame = pack_frame({"id": 1, "op": "put", "key": 2,
                                    "value": 20})
                for payload in (frame[:len(frame) // 2],       # torn
                                HEADER.pack(5) + b"{nope",     # undecodable
                                HEADER.pack(MAX_FRAME + 1)):   # oversized
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(srv.address)
                    sock.sendall(payload)
                    sock.shutdown(socket.SHUT_WR)
                    assert sock.recv(1) == b""  # the daemon hung up
                    sock.close()
                assert _gone(srv, n_before=1)
                assert bystander.get(1) == 10
                assert bystander.get(2) is None  # the half frame never ran
                counters = srv.stats()["counters"]
        finally:
            srv.shutdown()
            srv.join(timeout=30)
    assert rec.metrics.value("service.connections.dropped",
                             reason="torn") == 1
    assert rec.metrics.value("service.connections.dropped",
                             reason="protocol") == 2
    assert rec.metrics.value("service.connections.dropped",
                             reason="reset") == 0
    assert counters["errors"] == errors + 2
    assert counters["dropped_replies"] == 0


def test_a_client_gone_before_its_ack_is_a_counted_dropped_reply(tmp_path):
    """The request is served — a write is durable — and only the reply
    has nowhere to go; the window's other clients get theirs."""
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   address=str(tmp_path / "kv.sock"))
    # Both requests are admitted before the batcher exists, so they are
    # one window, and the first connection is closed before it runs.
    gone, stays = daemon._Conn(socket.socket(), "gone"), _Inbox(1)
    gone.close()
    srv._dispatch(gone, {"id": 1, "op": "put", "key": 7, "value": 70})
    srv._dispatch(stays, {"id": 2, "op": "put", "key": 8, "value": 80})
    srv.start()
    try:
        assert stays.full.wait(timeout=30)
        assert stays.docs == [{"ok": True, "op": "put", "id": 2}]
        with ServiceClient(srv.address) as client:
            assert client.get(7) == 70  # served, just not answered
            counters = client.stats()["counters"]
        assert counters["dropped_replies"] == 1
        assert counters["acked"] == 3 and counters["windows"] == 2
    finally:
        srv.shutdown()
        srv.join(timeout=30)


def test_a_client_that_vanishes_mid_window_is_dropped_as_reset(tmp_path):
    """A peer that is gone by the time its ack is written: the send
    fails, the reply is counted as dropped and the connection as reset."""
    with obs.recording() as rec:
        srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                       address=str(tmp_path / "kv.sock"))
        ours, theirs = socket.socketpair()
        theirs.close()  # the peer is gone; our end finds out on send
        conn = daemon._Conn(ours, "vanished")
        srv._dispatch(conn, {"id": 1, "op": "put", "key": 7, "value": 70})
        srv.start()
        try:
            with ServiceClient(srv.address) as client:
                assert client.get(7) == 70
                assert client.stats()["counters"]["dropped_replies"] == 1
        finally:
            srv.shutdown()
            srv.join(timeout=30)
    assert conn.closed
    assert rec.metrics.value("service.connections.dropped",
                             reason="reset") == 1


def _serve_every_kind_of_count(tmp_path):
    """A served window with a dropped reply, a shed burst, a protocol
    error, then a ``store_full`` window. Returns the server and its
    stats after both."""
    srv = KVServer(ServiceConfig(capacity=32, cache_lines=64, queue_cap=20),
                   address=str(tmp_path / "kv.sock"))
    # Before the batcher exists: 20 PUTs fill the queue (one from a
    # client already gone), three more are shed, one is malformed.
    first, gone = _Inbox(19 + 3 + 1), daemon._Conn(socket.socket(), "gone")
    gone.close()
    srv._dispatch(gone, {"id": 0, "op": "put", "key": 1, "value": 1})
    for key in range(2, 24):
        srv._dispatch(first, {"id": key, "op": "put", "key": key,
                              "value": key})
    srv._dispatch(first, {"id": 99, "op": "put", "key": 0, "value": 1})
    srv.start()
    try:
        assert first.full.wait(timeout=30)
        # 20 records held, capacity 32: 16 more do not fit.
        full = _Inbox(16)
        for key in range(100, 116):
            srv._dispatch(full, {"id": key, "op": "put", "key": key,
                                 "value": key})
        assert full.full.wait(timeout=30)
        assert {doc.get("error") for doc in full.docs} == {"store_full"}
        return srv, srv.stats()
    finally:
        srv.shutdown()
        srv.join(timeout=30)


@pytest.mark.parametrize("recorded", [True, False],
                         ids=["recorder", "own-registry"])
def test_every_count_is_kept_once(tmp_path, recorded):
    """Each count ``stats()`` shows is the value of its registry series:
    the installed recorder's when the daemon was built inside one, else
    the daemon's own."""
    if recorded:
        with obs.recording() as rec:
            srv, stats = _serve_every_kind_of_count(tmp_path)
        registry = rec.metrics
    else:
        srv, stats = _serve_every_kind_of_count(tmp_path)
        registry = srv.metrics
        assert not obs.current().metrics.active
    assert registry.active
    counters = stats["counters"]
    assert counters["requests"] == {"get": 0, "put": 36, "delete": 0}
    assert (counters["acked"], counters["shed"], counters["errors"],
            counters["dropped_replies"]) == (20, 3, 16 + 1, 1)
    assert (counters["windows"], counters["launches"]) == (2, 1)

    def value(name, **labels):
        return int(registry.value(name, **labels))

    ops, reasons = ("get", "put", "delete"), ("protocol", "window")
    assert counters == {
        "requests": {op: value("service.requests", op=op) for op in ops},
        "acked": value("service.requests.acked"),
        "shed": sum(value("service.requests.shed", op=op) for op in ops),
        "errors": sum(value("service.requests.errors", reason=r)
                      for r in reasons),
        "dropped_replies": value("service.replies.dropped"),
        "windows": value("service.windows"),
        "launches": value("service.launches"),
        "sub_batches": value("service.window.sub_batches"),
        "drained_lines": value("service.window.drained_lines"),
        "superseded_writes": value("service.window.superseded_writes"),
        "local_gets": value("service.window.local_gets"),
        "engine_fallbacks": {},
    }
    assert stats["batching"]["flush_reasons"] == {
        reason: value("service.window.flush", reason=reason)
        for reason in daemon.FLUSH_REASONS}
    occupancy = registry.histogram("service.window.occupancy")
    assert stats["batch_occupancy"] == {"last": 16, "mean": 18.0, "max": 20}
    assert (occupancy.count, occupancy.total) == (2, 36)
    assert stats["latency_ms"]["count"] == 36
    validate(stats, load_schema("service_stats"))
    assert srv.metrics is registry


# ----------------------------------------------------------------------
# Windows close when their acks have been answered
# ----------------------------------------------------------------------

class _Lockstep:
    """Pipelined clients driven from the test's own thread: a round
    sends every client's requests, then collects every response. The
    bound is far beyond any scheduling hiccup, so which rule closed a
    window is a matter of who sent what — not of timing."""

    MAX_WAIT_MS = 100.0

    def __init__(self, tmp_path):
        self.srv = KVServer(
            ServiceConfig(capacity=512, cache_lines=64,
                          max_wait_ms=self.MAX_WAIT_MS),
            address=str(tmp_path / "kv.sock")).start()
        self.key = 0

    def send(self, client, depth):
        ids = []
        for _ in range(depth):
            self.key += 1
            ids.append(client.send("put", self.key, self.key))
        return ids

    def round(self, *clients_and_depths):
        sent = [(client, self.send(client, depth))
                for client, depth in clients_and_depths]
        for client, ids in sent:
            for req_id in ids:
                assert client.wait(req_id)["ok"]

    def reasons_since(self, before=None):
        """Non-zero flush reasons (since an earlier ``srv.stats()``)."""
        now = self.srv.stats()["batching"]["flush_reasons"]
        then = before["batching"]["flush_reasons"] if before else {}
        return {reason: count - then.get(reason, 0)
                for reason, count in now.items()
                if count - then.get(reason, 0)}

    def warm_up(self, a, b):
        """The first window knows nothing; the second is owed 8 + 8."""
        self.round((a, 8), (b, 8))
        self.round((a, 8), (b, 8))
        assert self.reasons_since() == {"deadline": 1, "answered": 1}
        return self.srv.stats()

    def stop(self):
        self.srv.shutdown()
        self.srv.join(timeout=30)


@pytest.fixture
def lockstep(tmp_path):
    harness = _Lockstep(tmp_path)
    yield harness
    harness.stop()


def test_a_client_gone_with_requests_in_flight_owes_nothing(lockstep):
    srv = lockstep.srv
    with ServiceClient(srv.address) as a, ServiceClient(srv.address) as b:
        warm = lockstep.warm_up(a, b)
        lockstep.send(a, 8)
        a.close()
        assert _gone(srv, n_before=1)
        # The window is still owed b's 8 and takes them; a's replies go
        # nowhere, so the next window is owed 8, by b alone.
        for _ in range(3):
            lockstep.round((b, 8))
        stats = srv.stats()
    assert stats["counters"]["dropped_replies"] == 8
    assert stats["counters"]["windows"] == 2 + 3
    assert lockstep.reasons_since(warm) == {"answered": 3}


def test_a_client_gone_after_its_acks_costs_one_fallback_window(lockstep):
    srv = lockstep.srv
    with ServiceClient(srv.address) as a, ServiceClient(srv.address) as b:
        warm = lockstep.warm_up(a, b)
        a.close()  # acked 8, answers none of them
        for _ in range(3):
            lockstep.round((b, 8))
        stats = srv.stats()
    assert stats["counters"]["dropped_replies"] == 0
    assert lockstep.reasons_since(warm) == {"deadline": 1, "answered": 2}


def test_a_client_that_halves_its_depth_costs_one_fallback_window(lockstep):
    srv = lockstep.srv
    with ServiceClient(srv.address) as a, ServiceClient(srv.address) as b:
        warm = lockstep.warm_up(a, b)
        for _ in range(3):
            lockstep.round((a, 4), (b, 8))
        stats = srv.stats()
    assert lockstep.reasons_since(warm) == {"deadline": 1, "answered": 2}
    assert stats["counters"]["windows"] == 2 + 3
    assert stats["batch_occupancy"]["last"] == 12


# ----------------------------------------------------------------------
# Acked => msync'd
# ----------------------------------------------------------------------

def _record_sync_and_replies(srv, monkeypatch):
    """Log, in the order they happen: each window's start (with its
    request ids and whether it writes), each return of ``heap.sync``,
    each ``_Conn.reply``."""
    events = []
    sync, execute = srv.core.heap.sync, srv.core.execute_window
    reply = daemon._Conn.reply

    def logged_sync():
        sync()
        events.append(("sync",))

    def logged_window(requests):
        events.append(("window", [r.req_id for r in requests],
                       any(r.op != "get" for r in requests)))
        return execute(requests)

    def logged_reply(conn, doc):
        events.append(("reply", doc.get("id"), doc.get("op")))
        return reply(conn, doc)

    monkeypatch.setattr(srv.core.heap, "sync", logged_sync)
    monkeypatch.setattr(srv.core, "execute_window", logged_window)
    monkeypatch.setattr(daemon._Conn, "reply", logged_reply)
    return events


def _assert_every_ack_follows_its_sync(events):
    """Between a writing window's start and the first reply to one of
    its requests, ``heap.sync`` has returned."""
    writing, synced, checked = set(), False, 0
    for event in events:
        if event[0] == "window":
            writing, synced = (set(event[1]) if event[2] else set()), False
        elif event[0] == "sync":
            synced = True
        elif event[1] in writing:
            assert synced, f"request {event[1]} acked before heap.sync"
            checked += 1
    assert checked, "no writing window was observed"
    return checked


def _mixed_traffic(address):
    with ServiceClient(address) as client:
        ids = [client.send("put", k, k * 3) for k in range(1, 25)]
        ids += [client.send("get", k) for k in range(1, 9)]
        ids += [client.send("delete", k) for k in range(1, 5)]
        for req_id in ids:
            assert client.wait(req_id)["ok"]
        client.put(100, 1)     # and synchronous singles
        assert client.get(100) == 1
        client.delete(100)
    return len(ids) + 3


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_nothing_is_acked_before_its_msync(tmp_path, monkeypatch, shards):
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   heap_path=tmp_path / "h" / "heap.lpnv", shards=shards,
                   address=str(tmp_path / "kv.sock"))
    events = _record_sync_and_replies(srv, monkeypatch)
    srv.start()
    try:
        sent = _mixed_traffic(srv.address)
    finally:
        srv.shutdown()
        srv.join(timeout=30)
    # Every PUT / DELETE, and every GET that shared a window with one.
    assert _assert_every_ack_follows_its_sync(events) >= 24 + 4 + 2
    assert sum(e[0] == "reply" and e[2] != "ping" for e in events) == sent


def test_the_ack_ordering_check_catches_an_early_ack(tmp_path, monkeypatch):
    """Seeded mutation: a daemon that answers a window and *then* makes
    it durable must fail the assertion the real one passes."""
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   heap_path=tmp_path / "heap.lpnv",
                   address=str(tmp_path / "kv.sock"))
    execute = srv.core.execute_window

    def ack_then_execute(requests):
        for req in requests:
            srv._reply(req.conn, {"id": req.req_id, "ok": True,
                                  "op": req.op, "value": None})
        return dataclasses.replace(execute(requests), responses=[])

    monkeypatch.setattr(srv.core, "execute_window", ack_then_execute)
    events = _record_sync_and_replies(srv, monkeypatch)
    srv.start()
    try:
        with ServiceClient(srv.address) as client:
            client.put(1, 10)
    finally:
        srv.shutdown()
        srv.join(timeout=30)
    with pytest.raises(AssertionError, match="acked before heap.sync"):
        _assert_every_ack_follows_its_sync(events)


def test_concurrent_clients_see_consistent_state(server):
    def hammer(base):
        with ServiceClient(server.address) as client:
            for k in range(base, base + 20):
                client.put(k, k * 3)
            for k in range(base, base + 20):
                assert client.get(k) == k * 3

    threads = [threading.Thread(target=hammer, args=(1 + i * 100,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()


def test_stats_document_matches_committed_schema(server):
    schema = load_schema("service_stats")
    # The schema's engine enum is the engine's own name list.
    assert (schema["properties"]["config"]["properties"]["engine"]["enum"]
            == list(ENGINES))
    # ... and its flush reasons are the daemon's, in the daemon's order.
    reasons = schema["properties"]["batching"]["properties"]["flush_reasons"]
    assert (reasons["required"] == list(reasons["properties"])
            == list(daemon.FLUSH_REASONS))
    validate(server.stats(), schema)  # empty server
    run_load(server.address,
             LoadConfig(clients=2, requests_per_client=40, pipeline=4))
    doc = server.stats()
    validate(doc, schema)
    assert doc["counters"]["acked"] == 80
    assert doc["latency_ms"]["p50_ms"] is not None
    # The daemon default is the batched engine, and a mixed run takes
    # its vectorized path for all three KV kernels: nothing fell back.
    assert doc["config"]["engine"] == doc["engine"] == "batched"
    assert doc["counters"]["launches"] > 0
    assert doc["counters"]["engine_fallbacks"] == {}
    # The wire round-trip preserves schema conformance.
    with ServiceClient(server.address) as client:
        validate(client.stats(), schema)


def test_stats_schema_round_trips_as_json(server):
    doc = server.stats()
    validate(json.loads(json.dumps(doc)), load_schema("service_stats"))


def test_gauges_published_to_registry(server):
    """The gauges are the readings that are not counts; the counts are
    the daemon's own registry series."""
    with ServiceClient(server.address) as client:
        for k in range(8):
            client.put(k + 1, 1)
    metrics = obs.MetricsRegistry()
    server.publish_gauges(metrics)
    assert metrics.snapshot()["gauges"] == {
        "service.queue.depth": 0,
        "service.queue.capacity": 1024,
        "service.batch.occupancy": 1,
    }
    assert server.metrics.value("service.windows") >= 1
    assert server.metrics.value("service.requests", op="put") == 8


def test_telemetry_sampler_carries_service_gauges(tmp_path, server):
    """The serve CLI wiring: sampler + gauge_providers over the
    daemon's registry → JSONL lines that validate against the telemetry
    schema and carry the service counters and gauges."""
    with ServiceClient(server.address) as client:
        for k in range(8):
            client.put(k + 1, 1)
    jsonl = tmp_path / "svc-telemetry.jsonl"
    sampler = obs.TelemetrySampler(
        server.metrics, interval=0.05, jsonl_path=jsonl,
        gauge_providers=[server.publish_gauges])
    sampler.start()
    time.sleep(0.3)
    sampler.stop()
    sampler.close()
    lines = [json.loads(line)
             for line in jsonl.read_text().splitlines() if line]
    assert lines
    schema = load_schema("telemetry")
    for line in lines:
        validate(line, schema)
    assert "service.queue.depth" in lines[-1]["gauges"]
    assert lines[-1]["counters"]["service.windows"] >= 1
    assert lines[-1]["counters"]["service.requests.acked"] == 8


def test_durable_server_resumes_after_clean_restart(tmp_path):
    heap = tmp_path / "srv.heap.lpnv"
    sock = str(tmp_path / "srv.sock")
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   heap_path=heap, address=sock).start()
    with ServiceClient(srv.address) as client:
        client.put(1, 10)
        client.put(2, 20)
        client.delete(1)
    srv.shutdown()
    srv.join(timeout=30)

    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   heap_path=heap, address=sock).start()
    try:
        stats = srv.stats()
        assert stats["backend"] == "mapped"
        assert stats["resume"]["resumed"]
        with ServiceClient(srv.address) as client:
            assert client.get(1) is None
            assert client.get(2) == 20
    finally:
        srv.shutdown()
        srv.join(timeout=30)


def test_a_unix_path_with_a_colon_is_served(tmp_path):
    """A ``str`` address is a Unix socket path to the server as it is to
    the client, whatever characters it holds; TCP is a tuple."""
    path = str(tmp_path / "kv:1.sock")
    srv = KVServer(ServiceConfig(capacity=512, cache_lines=64),
                   address=path).start()
    try:
        assert srv.address == path
        with ServiceClient(path) as client:
            client.put(3, 33)
            assert client.get(3) == 33
    finally:
        srv.shutdown()
        srv.join(timeout=30)
