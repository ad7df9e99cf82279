"""``repro bench-serve`` — service latency/throughput measurements.

Runs the daemon in-process (real sockets, real threads — only the
process boundary is elided) under the seeded load generator and
records p50/p99 client latency and sustained QPS per scenario into
``BENCH_serve.json``. Four gates pin the service's reason to exist:

* ``batched_speedup_floor`` — on the same mapped heap, the batching
  window must buy at least 3x the throughput of a one-request-per-
  launch daemon: N requests sharing one persistence-domain drain
  instead of buying one each is the paper's amortization argument,
  restated as a service;
* ``mapped_p50_ceiling`` — serving from a mapped durable heap must
  cost at most 2x the in-memory p50 (durability as a bounded tax,
  matching the mapped-overhead gate in ``BENCH_sim.json``);
* ``sharded_qps_floor`` — the 4-shard heap must serve at least 0.8x
  the mapped heap's batched QPS: sharding buys parallel recovery and
  torn-write containment, and may not tax the normal path for it. A
  16-shard scenario is recorded beside it;
* ``lone_get_dwell_ceiling`` — a lone synchronous client (nobody to
  batch with) must see at most 2x the GET p50 it gets from a
  ``max_wait_ms=0`` daemon: the window waits for company only while
  there is evidence of any. The closed-loop scenarios above cannot see
  this case — they always have a full cohort in flight.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.tmpdir import ManagedTmpdir
from repro.service.core import ServiceConfig
from repro.service.daemon import KVServer
from repro.service.loadgen import LoadConfig, run_load

BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_serve.json"

#: Batched QPS over one-request-per-launch QPS must be at least this.
BATCHED_SPEEDUP_FLOOR = 3.0
#: Mapped-backed p50 over in-memory p50 must be at most this.
MAPPED_P50_CEILING = 2.0
#: 4-shard batched QPS over mapped batched QPS must be at least this.
SHARDED_QPS_FLOOR = 0.8
#: A lone client's p50 at the default config over its p50 with
#: ``max_wait_ms=0`` must be at most this.
LONE_GET_DWELL_CEILING = 2.0

#: Shared load shape: enough in-flight traffic (clients x pipeline)
#: to fill windows, a key space wide enough that most of a window's
#: requests reach the device instead of coalescing on the host.
_LOAD = dict(clients=4, pipeline=8, key_space=1024, theta=0.9,
             get_frac=0.5, put_frac=0.4, delete_frac=0.1, seed=7)

#: One synchronous client, nine GETs in ten (so the median is a GET).
_LONE = dict(clients=1, pipeline=1, key_space=256, theta=0.9,
             get_frac=0.9, put_frac=0.1, delete_frac=0.0, seed=7)

_SERVICE = dict(capacity=8192, cache_lines=512)


def _scenario(name: str, service_cfg: ServiceConfig, load_cfg: LoadConfig,
              tmp: ManagedTmpdir, heap: bool = False,
              shards: int = 0) -> dict:
    heap_path = tmp.file(f"{name}.heap.lpnv") if heap else None
    server = KVServer(service_cfg, heap_path=heap_path, shards=shards,
                      address=str(tmp.file(f"{name}.sock"))).start()
    try:
        report = run_load(server.address, load_cfg)
        failures = [c.failure for c in report.clients if c.failure]
        if failures:
            raise RuntimeError(f"{name}: client failures: {failures}")
        stats = server.stats()
    finally:
        server.shutdown()
        server.join(timeout=60)
    doc = report.to_dict()
    doc["server"] = {
        "backend": stats["backend"],
        "windows": stats["counters"]["windows"],
        "launches": stats["counters"]["launches"],
        "superseded_writes": stats["counters"]["superseded_writes"],
        "local_gets": stats["counters"]["local_gets"],
        "drained_lines": stats["counters"]["drained_lines"],
        "batch_occupancy": stats["batch_occupancy"],
        "batching": stats["batching"],
        "records": stats["records"],
    }
    return doc


def run_suite(quick: bool = False) -> dict:
    """Measure every scenario; returns the BENCH_serve document."""
    rpc_baseline = 40 if quick else 75
    rpc_batched = 150 if quick else 400
    results: dict[str, dict] = {}
    with ManagedTmpdir(prefix="repro-bench-serve-") as tmp:
        results["one_per_launch"] = _scenario(
            "one_per_launch",
            ServiceConfig(max_batch=1, max_wait_ms=0.0, **_SERVICE),
            LoadConfig(requests_per_client=rpc_baseline, **_LOAD),
            tmp, heap=True)
        results["batched_memory"] = _scenario(
            "batched_memory",
            ServiceConfig(max_batch=128, max_wait_ms=2.0, **_SERVICE),
            LoadConfig(requests_per_client=rpc_batched, **_LOAD),
            tmp)
        results["batched_mapped"] = _scenario(
            "batched_mapped",
            ServiceConfig(max_batch=128, max_wait_ms=2.0, **_SERVICE),
            LoadConfig(requests_per_client=rpc_batched, **_LOAD),
            tmp, heap=True)
        for name, shards in (("batched_sharded", 4),
                             ("batched_sharded16", 16)):
            results[name] = _scenario(
                name,
                ServiceConfig(max_batch=128, max_wait_ms=2.0, **_SERVICE),
                LoadConfig(requests_per_client=rpc_batched, **_LOAD),
                tmp, heap=True, shards=shards)
        for name, max_wait_ms in (("lone_client", 2.0),
                                  ("lone_client_nowait", 0.0)):
            results[name] = _scenario(
                name,
                ServiceConfig(max_batch=128, max_wait_ms=max_wait_ms,
                              **_SERVICE),
                LoadConfig(requests_per_client=rpc_batched, **_LONE),
                tmp, heap=True)

    speedup = (results["batched_mapped"]["qps"]
               / max(results["one_per_launch"]["qps"], 1e-9))
    p50_ratio = (results["batched_mapped"]["p50_ms"]
                 / max(results["batched_memory"]["p50_ms"], 1e-9))
    sharded_ratio = (results["batched_sharded"]["qps"]
                     / max(results["batched_mapped"]["qps"], 1e-9))
    lone_ratio = (results["lone_client"]["p50_ms"]
                  / max(results["lone_client_nowait"]["p50_ms"], 1e-9))
    return {
        "benchmark": "serve_smoke",
        "schema": 1,
        "command": "PYTHONPATH=src python -m repro bench-serve",
        "gates": {
            "batched_speedup_floor": BATCHED_SPEEDUP_FLOOR,
            "mapped_p50_ceiling": MAPPED_P50_CEILING,
            "sharded_qps_floor": SHARDED_QPS_FLOOR,
            "lone_get_dwell_ceiling": LONE_GET_DWELL_CEILING,
        },
        "derived": {
            "batched_speedup": speedup,
            "mapped_p50_ratio": p50_ratio,
            "sharded_qps_ratio": sharded_ratio,
            "lone_get_dwell_ratio": lone_ratio,
        },
        "scenarios": results,
    }


def check_gates(doc: dict) -> list[str]:
    """Gate failures in a BENCH_serve document (empty = pass)."""
    failures = []
    speedup = doc["derived"]["batched_speedup"]
    if speedup < doc["gates"]["batched_speedup_floor"]:
        failures.append(
            f"batched service throughput is only {speedup:.2f}x the "
            f"one-request-per-launch baseline "
            f"(floor {doc['gates']['batched_speedup_floor']}x)")
    ratio = doc["derived"]["mapped_p50_ratio"]
    if ratio > doc["gates"]["mapped_p50_ceiling"]:
        failures.append(
            f"mapped-backed p50 is {ratio:.2f}x in-memory p50 "
            f"(ceiling {doc['gates']['mapped_p50_ceiling']}x)")
    ratio = doc["derived"]["sharded_qps_ratio"]
    if ratio < doc["gates"]["sharded_qps_floor"]:
        failures.append(
            f"4-shard batched throughput is only {ratio:.2f}x the mapped "
            f"heap's (floor {doc['gates']['sharded_qps_floor']}x)")
    ratio = doc["derived"]["lone_get_dwell_ratio"]
    if ratio > doc["gates"]["lone_get_dwell_ceiling"]:
        failures.append(
            f"a lone client's p50 is {ratio:.2f}x what max_wait_ms=0 "
            f"gives it (ceiling {doc['gates']['lone_get_dwell_ceiling']}x)")
    return failures


def run(out, quick: bool = False, check: bool = False) -> int:
    """``repro bench-serve``: measure, write ``out``, print the gates;
    non-zero only when ``check`` is set and a gate failed."""
    doc = run_suite(quick=quick)
    Path(out).write_text(json.dumps(doc, indent=2) + "\n")
    for name, sc in doc["scenarios"].items():
        print(f"{name:>17}: {sc['qps']:8.1f} req/s  "
              f"p50 {sc['p50_ms']:.2f} ms  p99 {sc['p99_ms']:.2f} ms  "
              f"(shed {sc['shed']})")
    print(f"batched speedup: {doc['derived']['batched_speedup']:.2f}x "
          f"(floor {doc['gates']['batched_speedup_floor']}x); "
          f"mapped p50 ratio: {doc['derived']['mapped_p50_ratio']:.2f}x "
          f"(ceiling {doc['gates']['mapped_p50_ceiling']}x); "
          f"sharded qps ratio: {doc['derived']['sharded_qps_ratio']:.2f}x "
          f"(floor {doc['gates']['sharded_qps_floor']}x); "
          f"lone-client dwell ratio: "
          f"{doc['derived']['lone_get_dwell_ratio']:.2f}x "
          f"(ceiling {doc['gates']['lone_get_dwell_ceiling']}x)")
    failures = check_gates(doc)
    for failure in failures:
        print(f"GATE FAIL: {failure}")
    return 1 if (failures and check) else 0
