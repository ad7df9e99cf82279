"""Integration tests for the Eager Persistency runtime."""

import numpy as np
import pytest

import repro
from repro.ep import EPRecoveryManager, EPRuntime
from repro.errors import ConfigError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import ExecMode
from repro.workloads.tmm import TMMWorkload


def build(cache_lines=8, scale="tiny"):
    device = repro.Device(cache_capacity_lines=cache_lines)
    work = TMMWorkload(scale=scale)
    kernel = work.setup(device)
    ep_kernel = EPRuntime(device).instrument(kernel)
    return device, work, ep_kernel


def test_clean_run_matches_reference_and_commits():
    device, work, ep_kernel = build(cache_lines=1024)
    device.launch(ep_kernel)
    work.verify(device)
    n_blocks = ep_kernel.launch_config().n_blocks
    assert all(ep_kernel.log.is_committed(b) for b in range(n_blocks))


def test_committed_regions_are_durable_without_drain():
    """EP's whole point: no reliance on natural eviction."""
    device, work, ep_kernel = build(cache_lines=4)
    device.launch(ep_kernel)
    device.memory.crash()  # no drain!
    # Data was flushed before each commit, so NVM already has it all.
    work.verify(device)


def test_crash_mid_launch_recovers():
    device, work, ep_kernel = build()
    device.launch(ep_kernel,
                  crash_plan=repro.CrashPlan(after_blocks=7, seed=3))
    report = EPRecoveryManager(device, ep_kernel).recover()
    assert report.recovered
    assert report.uncommitted_blocks  # the blocks that never ran
    work.verify(device)


def test_intra_region_crash_rolls_back_torn_writes():
    """The undo log's real job: a region died between its data writes
    and its commit. (The device crashes only at block boundaries, so
    the torn state is constructed explicitly.)"""
    device, work, ep_kernel = build(cache_lines=2048)
    n_blocks = ep_kernel.launch_config().n_blocks
    # Run all but the last block normally.
    device.launch(ep_kernel, block_ids=list(range(n_blocks - 1)))

    # Manually execute the last block's logged stores WITHOUT the
    # commit: log entries + torn data, then power failure.
    torn = n_blocks - 1
    row = BatchBlockContext(device.memory, ep_kernel.launch_config(),
                            (torn,), immediate=True)
    from repro.ep.runtime import _EPInterceptor

    row.ep_interceptor = _EPInterceptor(
        ep_kernel.log, frozenset(ep_kernel.protected_buffers), row
    )
    ep_kernel.inner.run_block_batch(row)
    # Flush the torn data so the "bad" state is what NVM would hold.
    device.drain()
    device.memory.crash()

    assert not ep_kernel.log.is_committed(torn)
    report = EPRecoveryManager(device, ep_kernel).recover()
    assert torn in report.uncommitted_blocks
    assert report.undo_records_applied > 0
    work.verify(device)


def test_recovery_is_noop_when_all_committed():
    device, work, ep_kernel = build(cache_lines=1024)
    device.launch(ep_kernel)
    report = EPRecoveryManager(device, ep_kernel).recover()
    assert report.uncommitted_blocks == []
    assert report.relaunch is None


def test_ep_charges_flush_and_fence_costs():
    device, work, ep_kernel = build(cache_lines=1024)
    base_dev = repro.Device(cache_capacity_lines=1024)
    base_work = TMMWorkload(scale="tiny")
    base_kernel = base_work.setup(base_dev)

    ep_result = device.launch(ep_kernel)
    base_result = base_dev.launch(base_kernel)
    assert ep_result.tally.serial_cycles > 0
    assert ep_result.total_cycles > base_result.total_cycles


def test_ep_write_amplification_exceeds_lp():
    def lines(mode):
        device = repro.Device()
        work = TMMWorkload(scale="tiny")
        kernel = work.setup(device)
        if mode == "lp":
            kernel = repro.LPRuntime(device).instrument(kernel)
        elif mode == "ep":
            kernel = EPRuntime(device).instrument(kernel)
        device.launch(kernel)
        device.drain()
        return device.memory.write_stats.total_lines

    base, lp, ep = lines("base"), lines("lp"), lines("ep")
    assert base < lp < ep
    assert (ep - base) > 5 * (lp - base)


def test_ep_rejects_unprotected_kernels():
    device = repro.Device()
    work = TMMWorkload(scale="tiny")
    kernel = work.setup(device)
    kernel.protected_buffers = ()
    with pytest.raises(ConfigError):
        EPRuntime(device).instrument(kernel)


def test_recover_mode_resets_log_then_reruns():
    device, work, ep_kernel = build()
    device.launch(ep_kernel,
                  crash_plan=repro.CrashPlan(after_blocks=3, seed=9))
    device.restart()
    device.launch(ep_kernel, block_ids=[10], mode=ExecMode.RECOVER)
    assert ep_kernel.log.is_committed(10)


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
def test_ep_over_fused_blocks_logs_under_the_region(crash):
    """A fused region's constituents store through sibling rows with
    their inner block ids; their undo records still go to the region's
    own log slab, so recovery rolls back and commits the right one."""
    device = repro.Device(cache_capacity_lines=8)
    work = TMMWorkload(scale="tiny")
    fused = repro.fuse_blocks(work.setup(device), 2)
    ep_kernel = EPRuntime(device).instrument(fused)
    log = ep_kernel.log
    n_blocks = ep_kernel.launch_config().n_blocks
    assert log.n_blocks == n_blocks
    plan = repro.CrashPlan(after_blocks=n_blocks // 2, seed=3) if crash else None
    device.launch(ep_kernel, crash_plan=plan)
    if crash:
        report = EPRecoveryManager(device, ep_kernel).recover()
        assert report.uncommitted_blocks
    work.verify(device)

    assert all(log.is_committed(b) for b in range(n_blocks))
    entries = log.entries.array
    out = device.memory.buffers["tmm_C"]
    for block in range(n_blocks):
        cursor = int(log.cursors.array[block])
        assert 0 < cursor <= log.capacity
        base = block * log.capacity * 2
        addrs = entries[base:base + cursor * 2:2].astype(np.int64)
        logged = (addrs - out.base_addr) // out.dtype.itemsize
        assert set(logged) == set(fused.block_output_map(block)["tmm_C"])
