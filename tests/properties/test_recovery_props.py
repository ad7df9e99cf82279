"""Property-based end-to-end: any crash point, any persistence lottery,
any table kind — recovery must restore the reference output."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.recovery import RecoveryManager
from repro.core.runtime import LPRuntime
from repro.workloads.tmm import TMMWorkload

configs = st.sampled_from([
    repro.LPConfig.paper_best(),
    repro.LPConfig.naive_quadratic(),
    repro.LPConfig.naive_cuckoo(),
])


@given(
    config=configs,
    after_blocks=st.integers(0, 16),
    persist_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 1000),
    cache_lines=st.integers(1, 64),
)
# A crash that leaves block 3's key in both cuckoo tables, the table-0
# copy (the one lookup reads) correct: recovery may not swap them.
@example(config=repro.LPConfig.naive_cuckoo(), after_blocks=16,
         persist_fraction=0.3125, seed=99, cache_lines=10)
@settings(max_examples=40, deadline=None)
def test_tmm_recovers_from_any_crash(config, after_blocks,
                                     persist_fraction, seed, cache_lines):
    device = repro.Device(cache_capacity_lines=cache_lines)
    work = TMMWorkload(scale="tiny")
    kernel = work.setup(device)
    lp_kernel = LPRuntime(device, config).instrument(kernel)
    device.launch(
        lp_kernel,
        crash_plan=repro.CrashPlan(after_blocks=after_blocks,
                                   persist_fraction=persist_fraction,
                                   seed=seed),
    )
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    work.verify(device)


@given(seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_double_crash_still_recovers(seed):
    """Crash during the original run AND during recovery re-execution."""
    device = repro.Device(cache_capacity_lines=8)
    work = TMMWorkload(scale="tiny")
    kernel = work.setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel,
                  crash_plan=repro.CrashPlan(after_blocks=7, seed=seed))
    device.restart()

    # First recovery round interrupted by a second crash.
    manager = RecoveryManager(device, lp_kernel)
    report1 = manager.validate()
    if report1.failed_blocks:
        device.launch(
            lp_kernel,
            block_ids=report1.failed_blocks,
            mode=repro.ExecMode.RECOVER,
            crash_plan=repro.CrashPlan(
                after_blocks=max(0, len(report1.failed_blocks) // 2),
                seed=seed + 1,
            ),
        )
    # Eager recovery from whatever state that left behind.
    final = manager.recover()
    assert final.recovered
    work.verify(device)
