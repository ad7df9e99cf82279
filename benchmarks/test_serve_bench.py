"""Tier-2 gate: KV-service throughput/latency vs BENCH_serve.json.

Re-measures the ``bench-serve`` scenarios (quick shape) and enforces
the four service gates: the batching window buys >= 3x the throughput
of a one-request-per-launch daemon on the same mapped heap, serving
durably costs at most 2x the in-memory p50, the 4-shard heap serves
at >= 0.8x the mapped heap's QPS, and a lone synchronous client's p50
is at most 2x what a ``max_wait_ms=0`` daemon gives it. Also sanity-checks
the committed baseline itself — the gates must hold for the numbers we
ship, not just the machine re-running them.
"""

import json

import pytest

from repro.service import bench


@pytest.fixture(scope="module")
def suite():
    if not bench.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {bench.BASELINE_PATH}")
    return bench.run_suite(quick=True)


@pytest.mark.tier2
def test_committed_baseline_passes_its_own_gates():
    if not bench.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {bench.BASELINE_PATH}")
    doc = json.loads(bench.BASELINE_PATH.read_text())
    assert doc["benchmark"] == "serve_smoke"
    assert bench.check_gates(doc) == []


@pytest.mark.tier2
def test_batched_speedup_floor(suite):
    assert bench.check_gates(suite) == []


@pytest.mark.tier2
def test_sharded_qps_floor(suite):
    assert (suite["derived"]["sharded_qps_ratio"]
            >= bench.SHARDED_QPS_FLOOR), suite["derived"]
    assert suite["scenarios"]["batched_sharded16"]["server"][
        "backend"] == "sharded"


@pytest.mark.tier2
def test_no_requests_lost_or_shed(suite):
    for name, sc in suite["scenarios"].items():
        assert sc["errors"] == 0, name
        assert sc["shed"] == 0, name
        assert sc["reconnects"] == 0, name


@pytest.mark.tier2
def test_batching_actually_batches(suite):
    assert suite["scenarios"]["one_per_launch"]["server"][
        "batch_occupancy"]["max"] == 1
    assert suite["scenarios"]["batched_mapped"]["server"][
        "batch_occupancy"]["max"] > 4


@pytest.mark.tier2
def test_lone_client_does_not_wait_for_company(suite):
    assert (suite["derived"]["lone_get_dwell_ratio"]
            <= bench.LONE_GET_DWELL_CEILING), suite["derived"]
    lone = suite["scenarios"]["lone_client"]["server"]
    assert lone["batch_occupancy"]["max"] == 1
    # It got there by answering every ack itself, not by a zero bound:
    # only the first window, which is owed nothing yet, sits that out.
    assert lone["batching"]["flush_reasons"]["answered"] > 0
    assert lone["batching"]["flush_reasons"]["deadline"] <= 1
