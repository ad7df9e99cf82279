"""Unit tests for thread-block fusion of LP regions."""

import numpy as np
import pytest

import repro
from repro.core.fusion import FusedKernel, fuse_blocks
from repro.core.recovery import RecoveryManager
from repro.core.runtime import LPRuntime
from repro.errors import LaunchError
from repro.workloads.tmm import TMMWorkload


def test_factor_one_is_identity():
    device = repro.Device()
    kernel = TMMWorkload(scale="tiny").setup(device)
    assert fuse_blocks(kernel, 1) is kernel


def test_bad_factor_rejected():
    device = repro.Device()
    kernel = TMMWorkload(scale="tiny").setup(device)
    with pytest.raises(LaunchError):
        fuse_blocks(kernel, 0)


@pytest.mark.parametrize("factor", [2, 3, 4, 16])
def test_fused_kernel_output_matches(factor):
    device = repro.Device()
    work = TMMWorkload(scale="tiny")
    fused = fuse_blocks(work.setup(device), factor)
    device.launch(fused)
    work.verify(device)


def test_fused_launch_geometry():
    device = repro.Device()
    kernel = TMMWorkload(scale="tiny").setup(device)  # 16 blocks
    fused = fuse_blocks(kernel, 3)
    assert fused.launch_config().n_blocks == 6  # ceil(16/3)
    assert isinstance(fused, FusedKernel)
    assert fused.protected_buffers == kernel.protected_buffers


def test_fusion_shrinks_checksum_table():
    device = repro.Device()
    work = TMMWorkload(scale="tiny")
    fused = fuse_blocks(work.setup(device), 4)
    lp_kernel = LPRuntime(device).instrument(fused)
    assert lp_kernel.table.capacity == 4


def test_one_checksum_covers_the_whole_fused_region():
    device = repro.Device()
    work = TMMWorkload(scale="tiny")
    fused = fuse_blocks(work.setup(device), 16)  # everything in one
    lp_kernel = LPRuntime(device).instrument(fused)
    device.launch(lp_kernel)
    all_values = device.memory["tmm_C"].array.reshape(-1)
    expect = lp_kernel.cset.checksum_of(all_values)
    # Not exactly: fused region folds blocks in tile order, but the
    # lanes are commutative so any order gives the same value.
    assert np.array_equal(lp_kernel.table.lookup(0), expect)


@pytest.mark.parametrize("factor", [2, 4])
def test_fused_crash_recovery(factor):
    device = repro.Device(cache_capacity_lines=8)
    work = TMMWorkload(scale="tiny")
    fused = fuse_blocks(work.setup(device), factor)
    lp_kernel = LPRuntime(device,
                          repro.LPConfig.naive_cuckoo()).instrument(fused)
    n_fused = fused.launch_config().n_blocks
    device.launch(
        lp_kernel,
        crash_plan=repro.CrashPlan(after_blocks=n_fused // 2,
                                   persist_fraction=0.4, seed=5),
    )
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    work.verify(device)


def test_fused_validation_detects_corruption_at_region_granularity():
    device = repro.Device(cache_capacity_lines=1024)
    work = TMMWorkload(scale="tiny")
    fused = fuse_blocks(work.setup(device), 4)
    lp_kernel = LPRuntime(device).instrument(fused)
    device.launch(lp_kernel)
    device.drain()
    repro.FaultInjector().flip_bit(device.memory, "tmm_C", 0, 5)
    manager = RecoveryManager(device, lp_kernel)
    report = manager.validate()
    # Element 0 lives in inner block 0 -> fused region 0.
    assert report.failed_blocks == [0]
    recovery = manager.recover()
    assert recovery.recovered
    work.verify(device)


def test_fused_adler32_region_recovers():
    """An order-sensitive lane over a fused region: each constituent
    folds, in order, on a sibling of the one fused row, and
    validation folds them back in that order."""
    device = repro.Device(cache_capacity_lines=8)
    work = TMMWorkload(scale="tiny")
    fused = fuse_blocks(work.setup(device), 4)
    config = repro.LPConfig(checksums=(repro.ChecksumKind.ADLER32,),
                            reduction=repro.ReductionMode.SEQUENTIAL_MEMORY)
    lp_kernel = LPRuntime(device, config).instrument(fused)
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(
        after_blocks=2, persist_fraction=0.4, seed=5))
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered and report.initial.failed_blocks
    work.verify(device)


def test_fusing_a_kernel_that_is_not_batchable_is_refused():
    device = repro.Device()
    kernel = TMMWorkload(scale="tiny").setup(device)
    with pytest.raises(LaunchError, match="not batchable"):
        fuse_blocks(repro.EPRuntime(device).instrument(kernel), 2)
