"""Tier-2 gate: launch-engine throughput vs the committed baseline.

Re-measures :mod:`perf_smoke` and fails on a >30 % blocks/sec
regression against ``BENCH_sim.json``. Also pins the headline claims of
the engine work: the batched engine is at least 3x faster than serial
on every 128-block-or-larger reference workload (spmv, tmm, and the
three MEGA-KV kernels — search, insert, delete; the one-block
service-size rows are regression-checked only), the shared-memory
parallel engine is at
least 2x faster than serial on spmv and tmm (and within tolerance of
the batched engine it composes with), and post-crash *validation* is
at least 5x (batched) / 1x (parallel) faster than serial on the
recovery scenario — all with bit-identical results; parity is asserted
inside the measurements themselves.
"""

import pytest

import perf_smoke


@pytest.fixture(scope="module")
def suite():
    if not perf_smoke.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {perf_smoke.BASELINE_PATH}")
    return perf_smoke.run_suite()


@pytest.fixture(scope="module")
def recovery_suite():
    if not perf_smoke.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {perf_smoke.BASELINE_PATH}")
    return perf_smoke.run_recovery_suite()


@pytest.fixture(scope="module")
def mapped_suite():
    if not perf_smoke.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {perf_smoke.BASELINE_PATH}")
    return perf_smoke.run_mapped_suite()


@pytest.fixture(scope="module")
def telemetry_suite():
    if not perf_smoke.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {perf_smoke.BASELINE_PATH}")
    return perf_smoke.run_telemetry_suite()


@pytest.fixture(scope="module")
def sharded_suite():
    if not perf_smoke.BASELINE_PATH.exists():
        pytest.skip(f"no baseline at {perf_smoke.BASELINE_PATH}")
    return perf_smoke.run_sharded_suite()


@pytest.mark.tier2
def test_no_regression_vs_baseline(suite, recovery_suite, mapped_suite,
                                   telemetry_suite, sharded_suite):
    assert perf_smoke.check_against_baseline(
        suite, recovery_suite, mapped_suite, telemetry_suite,
        sharded_suite
    ) == 0


@pytest.mark.tier2
@pytest.mark.parametrize("workload", list(perf_smoke.WORKLOADS))
def test_batched_engine_speedup(suite, workload):
    speedup = suite[workload]["batched"]["speedup_vs_serial"]
    assert speedup >= 3.0, (
        f"{workload}: batched engine only {speedup:.2f}x vs serial"
    )


@pytest.mark.tier2
def test_batched_validation_speedup(recovery_suite):
    speedup = recovery_suite["batched"]["validate_speedup_vs_serial"]
    assert speedup >= 5.0, (
        f"recovery: batched validation only {speedup:.2f}x vs serial"
    )


@pytest.mark.tier2
@pytest.mark.parametrize("workload", perf_smoke.PARALLEL_SPEEDUP_WORKLOADS)
def test_parallel_engine_speedup(suite, workload):
    speedup = suite[workload]["parallel"]["speedup_vs_serial"]
    assert speedup >= perf_smoke.PARALLEL_SPEEDUP_FLOOR, (
        f"{workload}: parallel engine only {speedup:.2f}x vs serial "
        f"(floor {perf_smoke.PARALLEL_SPEEDUP_FLOOR:.1f}x)"
    )


@pytest.mark.tier2
@pytest.mark.parametrize("workload", perf_smoke.PARALLEL_SPEEDUP_WORKLOADS)
def test_parallel_of_batched_tracks_batched(suite, workload):
    ratio = (suite[workload]["parallel"]["blocks_per_sec"]
             / suite[workload]["batched"]["blocks_per_sec"])
    assert ratio >= perf_smoke.PARALLEL_VS_BATCHED_FLOOR, (
        f"{workload}: parallel(batched) at {ratio:.2f}x of batched "
        f"(floor {perf_smoke.PARALLEL_VS_BATCHED_FLOOR:.1f}x)"
    )


@pytest.mark.tier2
def test_parallel_validation_not_slower_than_serial(recovery_suite):
    speedup = recovery_suite["parallel"]["validate_speedup_vs_serial"]
    assert speedup >= 1.0, (
        f"recovery: parallel validation {speedup:.2f}x vs serial — "
        "the parallel pipeline must never lose to serial"
    )


@pytest.mark.tier2
def test_mapped_writeback_overhead(mapped_suite):
    ratio = mapped_suite["overhead_ratio"]
    assert ratio <= perf_smoke.MAPPED_OVERHEAD_LIMIT, (
        f"mapped heap write-back costs {ratio:.2f}x the in-memory "
        f"shadow (limit {perf_smoke.MAPPED_OVERHEAD_LIMIT:.1f}x)"
    )


@pytest.mark.tier2
def test_telemetry_sampler_overhead(telemetry_suite):
    ratio = telemetry_suite["overhead_ratio"]
    assert ratio <= perf_smoke.TELEMETRY_OVERHEAD_LIMIT, (
        f"sampler-enabled launch costs {ratio:.2f}x the sampler-off "
        f"launch (limit {perf_smoke.TELEMETRY_OVERHEAD_LIMIT:.2f}x)"
    )
    assert telemetry_suite["samples_taken"] > 0, (
        "the sampler thread never sampled during the measured launch"
    )


@pytest.mark.tier2
def test_sharded_recovery_speedup(sharded_suite):
    row = sharded_suite["recovery"]
    assert row["speedup_vs_single"] >= \
        perf_smoke.SHARDED_RECOVERY_SPEEDUP_FLOOR, (
            f"{row['n_shards']}-shard cold recovery only "
            f"{row['speedup_vs_single']:.2f}x the single heap "
            f"(floor {perf_smoke.SHARDED_RECOVERY_SPEEDUP_FLOOR:.1f}x)"
        )
    assert row["n_failed"] > 0, (
        "sharded_recovery measured an empty failed-block set — the "
        "crash plan lost nothing, the speedup is meaningless"
    )


@pytest.mark.tier2
def test_sharded_writeback_overhead(sharded_suite):
    row = sharded_suite["writeback"]
    assert row["overhead_ratio"] <= perf_smoke.SHARDED_WRITEBACK_LIMIT, (
        f"{row['n_shards']}-shard write-back fan-out costs "
        f"{row['overhead_ratio']:.2f}x the single mapped heap "
        f"(limit {perf_smoke.SHARDED_WRITEBACK_LIMIT:.1f}x)"
    )
