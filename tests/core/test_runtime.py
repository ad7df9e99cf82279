"""Unit tests for the LP runtime (kernel instrumentation)."""

import numpy as np
import pytest

import repro
from repro.core.config import LPConfig, TableKind
from repro.core.runtime import LazyPersistentKernel, LPRuntime
from repro.errors import ConfigError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig


class SquareKernel(Kernel):
    """Each block squares its slice of the input into the output."""

    name = "square"
    protected_buffers = ("sq_out",)

    def __init__(self, n_blocks=4, threads=32):
        self._cfg = LaunchConfig.linear(n_blocks, threads)

    def launch_config(self):
        return self._cfg

    def run_block_batch(self, ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        x = ctx.ld("sq_in", idx)
        ctx.st("sq_out", idx, x * x, slots=ctx.tid)
        ctx.flops(1)


def setup(device, n_blocks=4, threads=32, seed=0):
    rng = np.random.default_rng(seed)
    n = n_blocks * threads
    data = rng.integers(1, 50, size=n).astype(np.int64)
    device.alloc("sq_in", (n,), np.int64, init=data)
    device.alloc("sq_out", (n,), np.int64)
    return SquareKernel(n_blocks, threads), data


def test_instrument_allocates_table_sized_to_grid():
    device = repro.Device()
    kernel, _ = setup(device)
    runtime = LPRuntime(device, LPConfig.paper_best())
    lp_kernel = runtime.instrument(kernel)
    assert lp_kernel.table.capacity == 4
    assert lp_kernel.table.n_lanes == 2
    assert lp_kernel.launch_config().n_blocks == 4


def test_instrumented_kernel_computes_same_output():
    device = repro.Device()
    kernel, data = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel)
    assert np.array_equal(device.memory["sq_out"].array, data * data)


def test_every_block_inserted_a_checksum():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel)
    for block in range(4):
        assert lp_kernel.table.lookup(block) is not None


def test_checksum_matches_stored_data():
    device = repro.Device()
    kernel, data = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel)
    block0_vals = (data * data)[:32]
    expect = lp_kernel.cset.checksum_of(block0_vals)
    assert np.array_equal(lp_kernel.table.lookup(0), expect)


def test_unprotected_kernel_rejected():
    class NoOutputs(SquareKernel):
        protected_buffers = ()

    device = repro.Device()
    setup(device)
    with pytest.raises(ConfigError):
        LPRuntime(device).instrument(NoOutputs())


def test_validate_all_pass_after_drain():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel)
    device.drain()
    lp_kernel.reset_validation()
    device.launch(lp_kernel, mode=ExecMode.VALIDATE)
    assert lp_kernel.validation_failures == []


def test_validate_flags_corrupted_block():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel)
    device.drain()
    # Corrupt one element of block 2's output in NVM.
    repro.FaultInjector().flip_bit(device.memory, "sq_out",
                                   flat_index=2 * 32 + 5, bit=3)
    lp_kernel.reset_validation()
    device.launch(lp_kernel, mode=ExecMode.VALIDATE)
    assert lp_kernel.validation_failures == [2]
    assert lp_kernel.missing_checksums == []


def test_validate_flags_missing_checksum():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    # Run only three of four blocks; block 3 has no checksum entry.
    device.launch(lp_kernel, block_ids=[0, 1, 2])
    device.drain()
    lp_kernel.reset_validation()
    device.launch(lp_kernel, mode=ExecMode.VALIDATE)
    assert 3 in lp_kernel.validation_failures
    assert 3 in lp_kernel.missing_checksums


def test_validate_requires_validate_context():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    result = device.launch(lp_kernel)
    assert result.n_completed == 4
    ctx = BatchBlockContext(device.memory, lp_kernel.launch_config(), (0,),
                            ExecMode.NORMAL, immediate=True)
    with pytest.raises(ConfigError):
        lp_kernel.validate_block_batch(ctx)


@pytest.mark.parametrize("config", [LPConfig.naive_quadratic(),
                                    LPConfig.paper_best()],
                         ids=["quadratic", "global-array"])
def test_row_entry_inserts_the_block_checksum(config):
    """``run_block_batch`` called on an immediate row outside the engine
    still leaves the block's checksum in the table — a hash table's
    insert included, which an immediate row runs at the end of its LP
    pass."""
    from repro.gpu.atomics import AtomicUnit

    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device, config).instrument(kernel)
    ctx = BatchBlockContext(device.memory, lp_kernel.launch_config(), (2,),
                            atomics=AtomicUnit(device.memory),
                            immediate=True)
    lp_kernel.run_block_batch(ctx)
    assert ctx.table_inserts is None
    assert lp_kernel.table.lookup(2) is not None
    assert lp_kernel.table.lookup(1) is None


def test_space_overhead_metric():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    # Global array: 4 blocks x 2 lanes x 8 B over 128 int64 outputs.
    expect = (4 * 2 * 8) / (128 * 8)
    assert lp_kernel.space_overhead() == pytest.approx(expect)


def test_kernel_name_encodes_config():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device, LPConfig.naive_quadratic()).instrument(kernel)
    assert "quadratic" in lp_kernel.name
    assert lp_kernel.name.startswith("square+lp")


def test_runtime_respects_table_choice():
    device = repro.Device()
    kernel, _ = setup(device)
    lp = LPRuntime(device, LPConfig.naive_cuckoo()).instrument(
        kernel, table_name="custom"
    )
    assert lp.table.kind is TableKind.CUCKOO
    assert any("custom" in n for n in lp.table.buffer_names)


def test_recover_block_refreshes_checksum():
    device = repro.Device()
    kernel, _ = setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)
    device.launch(lp_kernel)
    stored = lp_kernel.table.lookup(1).copy()
    device.launch(lp_kernel, block_ids=[1], mode=ExecMode.RECOVER)
    assert np.array_equal(lp_kernel.table.lookup(1), stored)
