"""Tier-2 gate: the launch-engine ratio gates of :mod:`perf_smoke`.

Re-measures :mod:`perf_smoke` on this machine and applies its
``check_*`` predicates — one test per predicate, so a failure names the
gate. Ratios only, each between two arms timed in the same run: the
batched engine is at least 3x faster than serial on every
128-block-or-larger reference workload (spmv, tmm, and the three
MEGA-KV kernels — search, insert, delete) and on sad at ``medium`` (the
one-block service-size rows, the other five Parboil rows and the
hash-table rows are recorded only), post-crash *validation* is at least 5x faster under
batched than serial on the recovery scenario, and the mapped heap, the
4-shard heap and the telemetry sampler each stay inside their overhead
limit — all with bit-identical results; parity is asserted inside the
measurements themselves. This machine's absolute blocks/sec is not
compared with ``BENCH_sim.json``.
"""

import pytest

import perf_smoke


@pytest.fixture(scope="module")
def suite():
    return perf_smoke.run_suite()


@pytest.fixture(scope="module")
def recovery_suite():
    return perf_smoke.run_recovery_suite()


@pytest.fixture(scope="module")
def mapped_suite():
    return perf_smoke.run_mapped_suite()


@pytest.fixture(scope="module")
def telemetry_suite():
    return perf_smoke.run_telemetry_suite()


@pytest.fixture(scope="module")
def sharded_suite():
    return perf_smoke.run_sharded_suite()


def passes(failure):
    assert failure is None, failure


@pytest.mark.tier2
@pytest.mark.parametrize("workload", perf_smoke.BATCHED_SPEEDUP_WORKLOADS)
def test_batched_engine_speedup(suite, workload):
    passes(perf_smoke.check_batched_speedup(suite, workload))


@pytest.mark.tier2
@pytest.mark.parametrize("engine", list(perf_smoke.VALIDATE_SPEEDUP_FLOORS))
def test_validation_speedup(recovery_suite, engine):
    passes(perf_smoke.check_validation_speedup(recovery_suite, engine))


@pytest.mark.tier2
def test_mapped_writeback_overhead(mapped_suite):
    passes(perf_smoke.check_mapped_writeback(mapped_suite))


@pytest.mark.tier2
def test_telemetry_sampler_overhead(telemetry_suite):
    passes(perf_smoke.check_telemetry_overhead(telemetry_suite))


@pytest.mark.tier2
def test_sharded_recovery_not_slower(sharded_suite):
    passes(perf_smoke.check_sharded_recovery(sharded_suite))


@pytest.mark.tier2
def test_sharded_writeback_overhead(sharded_suite):
    passes(perf_smoke.check_sharded_writeback(sharded_suite))
