"""Unit tests for the device: launches, ordering, crashes."""

import numpy as np
import pytest

from repro.errors import CrashedDeviceError, LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.nvm.crash import CrashPlan


class FillKernel(Kernel):
    """Each block writes its id into its slice of the output."""

    name = "fill"
    protected_buffers = ("fill_out",)

    def __init__(self, n_blocks=8, threads=32):
        self._cfg = LaunchConfig.linear(n_blocks, threads)

    def launch_config(self):
        return self._cfg

    def run_block_batch(self, ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("fill_out", idx, ctx.block_ids[:, None])
        ctx.flops(1)


def setup(device, n_blocks=8, threads=32):
    kernel = FillKernel(n_blocks, threads)
    device.alloc("fill_out", (n_blocks * threads,), np.float32)
    return kernel


def test_launch_runs_all_blocks():
    device = Device()
    kernel = setup(device)
    result = device.launch(kernel)
    assert result.n_completed == 8
    assert not result.crashed
    out = device.memory["fill_out"].array
    assert out[0] == 0 and out[255] == 7


def test_launch_result_carries_cost():
    device = Device()
    kernel = setup(device)
    result = device.launch(kernel)
    assert result.total_cycles > 0
    assert result.tally.global_write_bytes == 256 * 4


def test_shuffled_order_same_final_state():
    seq = Device(block_order="sequential")
    shuf = Device(block_order="shuffled", seed=11)
    k1, k2 = setup(seq), setup(shuf)
    seq.launch(k1)
    shuf.launch(k2)
    assert np.array_equal(
        seq.memory["fill_out"].array, shuf.memory["fill_out"].array
    )


def test_shuffled_order_is_seeded():
    orders = []
    for _ in range(2):
        device = Device(block_order="shuffled", seed=5)
        kernel = setup(device)
        result = device.launch(kernel)
        orders.append(result.completed_blocks)
    assert orders[0] == orders[1]
    assert orders[0] != sorted(orders[0])  # actually shuffled


def test_bad_block_order_rejected():
    with pytest.raises(LaunchError):
        Device(block_order="sideways")


def test_block_subset_launch():
    device = Device()
    kernel = setup(device)
    result = device.launch(kernel, block_ids=[2, 5])
    assert sorted(result.completed_blocks) == [2, 5]
    out = device.memory["fill_out"].array
    assert out[2 * 32] == 2
    assert out[0] == 0 and out[32] == 0  # untouched blocks


def test_block_subset_validated():
    device = Device()
    kernel = setup(device)
    with pytest.raises(LaunchError):
        device.launch(kernel, block_ids=[99])


def test_crash_plan_stops_and_poisons_device():
    device = Device(cache_capacity_lines=4)
    kernel = setup(device)
    result = device.launch(kernel, crash_plan=CrashPlan(after_blocks=3))
    assert result.crashed
    assert result.n_completed == 3
    assert result.crash_report is not None
    with pytest.raises(CrashedDeviceError):
        device.launch(kernel)
    device.restart()
    device.launch(kernel, block_ids=[0])  # usable again


def test_crash_after_zero_blocks():
    device = Device()
    kernel = setup(device)
    result = device.launch(kernel, crash_plan=CrashPlan(after_blocks=0))
    assert result.n_completed == 0
    assert np.all(device.memory["fill_out"].array == 0)


def test_crash_loses_unevicted_stores():
    device = Device(cache_capacity_lines=2)
    kernel = setup(device)
    device.launch(kernel, crash_plan=CrashPlan(after_blocks=8))
    out = device.memory["fill_out"].array
    # Early blocks' lines were evicted (persisted); the last writes died
    # in cache.
    assert out[255] == 0
    assert np.any(out != 0)


def test_drain_then_crash_is_lossless():
    device = Device()
    kernel = setup(device)
    device.launch(kernel)
    device.drain()
    device.memory.crash()
    out = device.memory["fill_out"].array
    assert out[255] == 7


def test_free_through_device():
    device = Device()
    setup(device)
    device.free("fill_out")
    assert "fill_out" not in device.memory
