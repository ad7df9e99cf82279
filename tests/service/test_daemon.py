"""KVServer over real sockets: batching, shed, stats, gauges.

Every test runs the daemon in-process on a Unix socket (or loopback
TCP) with real reader/batcher threads — only the process boundary is
elided relative to ``python -m repro serve``.
"""

import json
import threading

import pytest

from repro import obs
from repro.errors import ServiceError
from repro.obs.schema import load_schema, validate
from repro.service.core import ServiceConfig
from repro.service.daemon import KVServer
from repro.service.loadgen import LoadConfig, run_load
from repro.service.protocol import ServiceClient


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
                   address="127.0.0.1:0").start()
    try:
        host, port = srv.address
        with ServiceClient((host, port)) as client:
            client.put(2, 22)
            assert client.get(2) == 22
    finally:
        srv.shutdown()
        srv.join(timeout=30)


def test_pipelined_requests_batch_into_one_window(server):
    """max_wait_ms collects a pipelined burst into few windows."""
    with ServiceClient(server.address) as client:
        ids = [client.send("put", k + 1, k + 1) for k in range(32)]
        for req_id in ids:
            assert client.wait(req_id)["ok"]
    stats = server.stats()
    assert stats["counters"]["acked"] == 32
    assert stats["counters"]["windows"] < 32
    assert stats["batch_occupancy"]["max"] > 1


def test_window_absorbs_same_key_chains_on_the_host(tmp_path):
    """One pipelined same-key burst is one window: one insert reaches
    the device, the counters say what the window absorbed, and the
    window's phases show up as spans."""
    burst = [("put", 1, 1), ("get", 1, None), ("put", 1, 2),
             ("get", 1, None), ("delete", 1, None), ("get", 1, None),
             ("put", 1, 3), ("get", 1, None)]
    with obs.recording() as rec:  # the batcher binds it at start
        srv = KVServer(ServiceConfig(capacity=512, cache_lines=64,
                                     max_batch=len(burst),
                                     max_wait_ms=2000.0),
                       heap_path=tmp_path / "heap.lpnv",
                       address=str(tmp_path / "kv.sock")).start()
        try:
            with ServiceClient(srv.address) as client:
                ids = [client.send(*op) for op in burst]
                docs = [client.wait(req_id) for req_id in ids]
                assert client.get(1) == 3
            counters = srv.stats()["counters"]
        finally:
            srv.shutdown()
            srv.join(timeout=30)
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


def test_malformed_requests_get_error_responses(server):
    with ServiceClient(server.address) as client:
        doc = client.call("put", key=0, value=1)
        assert not doc["ok"]
        doc = client.call("get", key=1 << 64)
        assert not doc["ok"]
        # The connection survives recoverable protocol errors.
        client.put(1, 5)
        assert client.get(1) == 5


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
    with ServiceClient(server.address) as client:
        for k in range(8):
            client.put(k + 1, 1)
    metrics = obs.MetricsRegistry()
    server.publish_gauges(metrics)
    snap = metrics.snapshot()
    gauges = snap["gauges"]
    assert gauges["service.queue.depth"] == 0
    assert gauges["service.queue.capacity"] == 1024
    assert gauges["service.windows.flushed"] >= 1
    assert "service.batch.occupancy" in gauges
    assert "service.shed.requests" in gauges


def test_telemetry_sampler_carries_service_gauges(tmp_path, server):
    """The serve CLI wiring: sampler + gauge_providers → JSONL lines
    that validate against the telemetry schema and carry the service
    gauges."""
    with ServiceClient(server.address) as client:
        for k in range(8):
            client.put(k + 1, 1)
    metrics = obs.MetricsRegistry()
    jsonl = tmp_path / "svc-telemetry.jsonl"
    sampler = obs.TelemetrySampler(
        metrics, interval=0.05, jsonl_path=jsonl,
        gauge_providers=[server.publish_gauges])
    sampler.start()
    import time

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
    assert "service.windows.flushed" in lines[-1]["gauges"]


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


def test_bad_address_rejected():
    with pytest.raises(ServiceError):
        KVServer(ServiceConfig(), address="127.0.0.1:notaport")
