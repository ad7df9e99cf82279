"""Unit tests for the EP primitives: clwb and persist barriers."""

import numpy as np
import pytest

import repro
from repro.errors import OutOfBoundsError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.nvm.model import WritebackReason


def make_ctx(cache_lines=64, **kw):
    mem = GlobalMemory(cache_capacity_lines=cache_lines)
    buf = mem.alloc("a", (128,), np.int32)
    scratch = mem.alloc("s", (32,), np.int32, persistent=False)
    ctx = BatchBlockContext(mem, LaunchConfig.linear(2, 32), (0,),
                            atomics=AtomicUnit(mem), immediate=True, **kw)
    return mem, buf, scratch, ctx


def test_memory_flush_persists_specific_lines():
    mem, buf, _, ctx = make_ctx()
    mem.write(buf, np.arange(64), np.arange(64).astype(np.int32))
    flushed = mem.flush(buf, np.arange(32))  # first line (32 int32)
    assert flushed == 1
    assert np.array_equal(buf.nvm_array[:32], np.arange(32))
    assert np.all(buf.nvm_array[32:64] == 0)  # second line still dirty
    assert mem.write_stats.by_reason[WritebackReason.FLUSH] == 1


def test_flush_clean_lines_costs_nothing():
    mem, buf, _, ctx = make_ctx()
    assert mem.flush(buf, np.arange(8)) == 0


def test_flush_non_persistent_is_noop():
    mem, _, scratch, ctx = make_ctx()
    scratch.data[:] = 5
    assert mem.flush(scratch, np.arange(8)) == 0


def test_flush_bounds_checked():
    mem, buf, _, ctx = make_ctx()
    with pytest.raises(OutOfBoundsError):
        mem.flush(buf, np.array([500]))


def test_ctx_clwb_tracks_pending_and_charges():
    mem, buf, _, ctx = make_ctx()
    ctx.st(buf, np.arange(64)[None], 1)
    flushed = ctx.clwb(buf, np.arange(64))
    assert flushed == 2
    assert ctx.tally.alu_ops >= 2
    assert ctx._pending_flush_lines == 2


def test_persist_barrier_charges_serial_stall():
    mem, buf, _, ctx = make_ctx(fence_latency=500.0,
                                fence_concurrency=1)
    ctx.st(buf, np.arange(32)[None], 1)
    ctx.clwb(buf, np.arange(32))
    ctx.persist_barrier()
    assert ctx.tally.serial_cycles == pytest.approx(500.0 + 8.0)
    assert ctx._pending_flush_lines == 0


def test_persist_barrier_amortized_by_concurrency():
    def stall(concurrency):
        _, buf, _, ctx = make_ctx(fence_latency=400.0,
                                  fence_concurrency=concurrency)
        ctx.st(buf, np.arange(32)[None], 1)
        ctx.clwb(buf, np.arange(32))
        ctx.persist_barrier()
        return ctx.tally.serial_cycles

    assert stall(8) == pytest.approx(stall(1) / 8)


def test_barrier_without_pending_still_stalls_a_little():
    _, _, _, ctx = make_ctx(fence_latency=300.0,
                            fence_concurrency=1)
    ctx.persist_barrier()
    assert ctx.tally.serial_cycles == pytest.approx(300.0)


def test_device_sets_fence_params_from_nvm():
    """Slower NVM must make fences dearer end to end."""
    import repro
    from repro.ep import EPRuntime
    from repro.workloads.tmm import TMMWorkload

    def cycles(nvm):
        device = repro.Device(nvm=nvm)
        work = TMMWorkload(scale="tiny")
        kernel = EPRuntime(device).instrument(work.setup(device))
        return device.launch(kernel).tally.serial_cycles

    dram = cycles(repro.NVMSpec.dram_like())
    nvm = cycles(repro.NVMSpec.paper_nvm())
    assert nvm > dram
