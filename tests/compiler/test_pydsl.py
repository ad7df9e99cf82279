"""Unit tests for the executable Python kernel DSL."""

import numpy as np
import pytest

import repro
from repro.compiler.pydsl import (
    FunctionKernel,
    kernel_from_function,
    lazy_persistent,
)
from repro.core.recovery import RecoveryManager
from repro.gpu.kernel import LaunchConfig


def make_double(grid=(4, 1), block=(32, 1)):
    @kernel_from_function(grid=grid, block=block, protected=("out",))
    def double_it(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, ctx.ld("inp", idx) * 2, slots=ctx.tid)

    return double_it


def setup(device, n=128):
    device.alloc("inp", (n,), np.float32,
                 init=np.arange(n, dtype=np.float32))
    device.alloc("out", (n,), np.float32)


def test_decorator_builds_a_kernel():
    k = make_double()
    assert isinstance(k, FunctionKernel)
    assert k.name == "double_it"
    assert k.protected_buffers == ("out",)
    assert k.launch_config().n_blocks == 4


def test_function_kernel_runs():
    device = repro.Device()
    setup(device)
    device.launch(make_double())
    assert np.array_equal(device.memory["out"].array,
                          np.arange(128) * 2)


def test_lazy_persistent_wraps_and_runs():
    device = repro.Device()
    setup(device)
    lp_kernel = lazy_persistent(device, make_double())
    device.launch(lp_kernel)
    assert np.array_equal(device.memory["out"].array,
                          np.arange(128) * 2)
    assert lp_kernel.table.capacity == 4


def test_dsl_kernel_survives_crash_recovery():
    device = repro.Device(cache_capacity_lines=4)
    setup(device)
    lp_kernel = lazy_persistent(device, make_double(),
                                config=repro.LPConfig.naive_quadratic())
    device.launch(lp_kernel,
                  crash_plan=repro.CrashPlan(after_blocks=2,
                                             persist_fraction=0.4, seed=1))
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    assert np.array_equal(device.memory["out"].array,
                          np.arange(128) * 2)


def test_custom_recover_and_validate_hooks():
    calls = []

    def body(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0, slots=ctx.tid)

    def recover(ctx):
        calls.append(("recover", int(ctx.block_ids[0])))
        body(ctx)

    kernel = FunctionKernel(
        body, LaunchConfig.linear(2, 32), protected=("out",),
        name="hooked", recover_fn=recover,
    )
    device = repro.Device(cache_capacity_lines=2)
    setup(device, n=64)
    lp_kernel = lazy_persistent(device, kernel)
    device.launch(lp_kernel, crash_plan=repro.CrashPlan(after_blocks=1))
    RecoveryManager(device, lp_kernel).recover()
    assert calls  # the custom recovery ran


def test_non_idempotent_dsl_kernel_flag():
    @kernel_from_function(grid=(1, 1), block=(32, 1), protected=("out",),
                          idempotent=False)
    def risky(ctx):
        ctx.st("out", ctx.tid[None], 1.0)

    assert not risky.idempotent
    from repro.errors import UnrecoverableRegionError
    from repro.gpu.batch import BatchBlockContext
    from repro.gpu.memory import GlobalMemory

    mem = GlobalMemory(cache_capacity_lines=8)
    mem.alloc("out", (32,), np.float32)
    ctx = BatchBlockContext(mem, risky.launch_config(), (0,), immediate=True)
    with pytest.raises(UnrecoverableRegionError):
        risky.recover_block_batch(ctx)
