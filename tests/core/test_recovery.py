"""Unit tests for post-crash validation and eager recovery."""

import numpy as np
import pytest

import repro
from repro.core.recovery import RecoveryManager
from repro.core.runtime import LPRuntime
from repro.errors import RecoveryError
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads import WORKLOADS, make_workload


class StampKernel(Kernel):
    """Each block stamps (block_id + 1) over its output slice."""

    name = "stamp"
    protected_buffers = ("st_out",)

    def __init__(self, n_blocks=8, threads=32):
        self._cfg = LaunchConfig.linear(n_blocks, threads)

    def launch_config(self):
        return self._cfg

    def run_block_batch(self, ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("st_out", idx, ctx.block_ids[:, None] + 1, slots=ctx.tid)


def build(cache_lines=8, config=None, n_blocks=8):
    device = repro.Device(cache_capacity_lines=cache_lines)
    device.alloc("st_out", (n_blocks * 32,), np.float32)
    kernel = StampKernel(n_blocks)
    lp_kernel = LPRuntime(
        device, config or repro.LPConfig.paper_best()
    ).instrument(kernel)
    return device, lp_kernel


def expected(n_blocks=8):
    return np.repeat(np.arange(1, n_blocks + 1, dtype=np.float32), 32)


def test_validation_report_clean_run():
    device, lp_kernel = build(cache_lines=1024)
    device.launch(lp_kernel)
    device.drain()
    report = RecoveryManager(device, lp_kernel).validate()
    assert report.all_passed
    assert report.n_blocks == 8
    assert report.n_failed == 0


def test_crash_then_recover_restores_output():
    device, lp_kernel = build()
    result = device.launch(
        lp_kernel, crash_plan=repro.CrashPlan(after_blocks=5,
                                              persist_fraction=0.3, seed=2)
    )
    assert result.crashed
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    assert np.array_equal(device.memory["st_out"].array, expected())


def test_recovery_reexecutes_only_failures():
    device, lp_kernel = build(cache_lines=2048)
    # Everything persists except we drop the whole cache at the end.
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(after_blocks=8))
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    assert set(report.recovered_blocks) == set(report.initial.failed_blocks)
    assert np.array_equal(device.memory["st_out"].array, expected())


def test_recovery_on_clean_state_is_noop():
    device, lp_kernel = build(cache_lines=1024)
    device.launch(lp_kernel)
    device.drain()
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    assert report.recovered_blocks == []
    assert report.recovery_launches == []


def test_recovery_restarts_crashed_device():
    device, lp_kernel = build()
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(after_blocks=3))
    assert device.crashed
    RecoveryManager(device, lp_kernel).recover()
    assert not device.crashed


def test_recovery_total_cycles_accumulate():
    device, lp_kernel = build()
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(after_blocks=3))
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.total_recovery_cycles > report.initial.launch.total_cycles


def test_recovery_detects_corruption_not_just_crashes():
    device, lp_kernel = build(cache_lines=1024)
    device.launch(lp_kernel)
    device.drain()
    repro.FaultInjector().flip_bit(device.memory, "st_out", 100, 7)
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    assert report.recovered_blocks == [100 // 32]
    assert np.array_equal(device.memory["st_out"].array, expected())


@pytest.mark.parametrize("config", [
    repro.LPConfig.naive_quadratic(),
    repro.LPConfig.naive_cuckoo(),
])
def test_recovery_with_hash_tables(config):
    device, lp_kernel = build(config=config)
    device.launch(
        lp_kernel, crash_plan=repro.CrashPlan(after_blocks=4,
                                              persist_fraction=0.5, seed=3)
    )
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    assert np.array_equal(device.memory["st_out"].array, expected())


def test_unconverging_recovery_raises():
    """Validation that can never pass must surface as RecoveryError."""
    device, lp_kernel = build()
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(after_blocks=4))
    # Sabotage the table: every lookup misses, so every block fails
    # validation no matter how often it is re-executed. Validation
    # fetches checksums through the vectorized lookup_many; patch both
    # entry points so scalar callers miss too.
    n_lanes = lp_kernel.table.n_lanes
    lp_kernel.table.lookup = lambda key: None
    lp_kernel.table.lookup_many = lambda keys: (
        np.zeros((len(keys), n_lanes), dtype=np.uint64),
        np.zeros(len(keys), dtype=bool),
    )
    with pytest.raises(RecoveryError):
        RecoveryManager(device, lp_kernel).recover(max_rounds=2)


def test_recovery_validates_persistence_not_semantics():
    """A recovery function that writes *different but consistent* data
    passes validation: LP certifies that what is in memory matches its
    checksum, not that a custom recovery reproduced the original values
    (Section IV-A leaves non-idempotent recovery to the application).
    """

    class RewritingRecovery(StampKernel):
        def recover_block_batch(self, ctx):
            idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
            ctx.st("st_out", idx, -1.0, slots=ctx.tid)

    device = repro.Device(cache_capacity_lines=8)
    device.alloc("st_out", (8 * 32,), np.float32)
    lp_kernel = LPRuntime(device).instrument(RewritingRecovery())
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(after_blocks=4))
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered  # consistent, though semantically rewritten
    out = device.memory["st_out"].array
    assert np.any(out == -1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_clean_launch_validates_under_an_order_sensitive_lane(name):
    """Adler-32 folds in store order: validation must fetch a block's
    output map in the order the block stored it (MRI-Q stores ``qr``
    then ``qi``), or a launch nothing happened to never validates."""
    config = repro.LPConfig(checksums=(repro.ChecksumKind.ADLER32,),
                            reduction=repro.ReductionMode.SEQUENTIAL_MEMORY)
    device = repro.Device()
    lp_kernel = LPRuntime(device, config).instrument(
        make_workload(name, scale="tiny", seed=0).setup(device))
    device.launch(lp_kernel)
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.initial.failed_blocks == []
