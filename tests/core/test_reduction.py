"""Unit tests for block-level reductions (parallel vs sequential)."""

import numpy as np
import pytest

from repro.core.checksum import BatchChecksumState, ChecksumSet
from repro.core.config import (
    PAPER_CHECKSUM_PAIR,
    ChecksumKind,
    ReductionMode,
)
from repro.core.reduction import (
    apply_reduction_tally,
    reduce_block,
    reduce_parallel,
    reduce_sequential,
    reduction_tally,
)
from repro.errors import ConfigError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.costs import Tally
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory


def make_state(n_threads, seed=0, kinds=PAPER_CHECKSUM_PAIR):
    rng = np.random.default_rng(seed)
    state = BatchChecksumState(ChecksumSet(kinds), n_threads)
    state.update(make_values(n_threads, seed)[None],
                 np.arange(n_threads * 3) % n_threads)
    return state


def make_values(n_threads, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_threads * 3).astype(np.float32)


def reference(n_threads, seed=0, kinds=PAPER_CHECKSUM_PAIR):
    """The flat fold of the same values: what every reduction must give."""
    return ChecksumSet(kinds).checksum_of(make_values(n_threads, seed))


def make_ctx(n_threads):
    mem = GlobalMemory(cache_capacity_lines=64)
    cfg = LaunchConfig.linear(1, n_threads)
    return BatchBlockContext(mem, cfg, (0,), atomics=AtomicUnit(mem),
                             immediate=True)


@pytest.mark.parametrize("n_threads", [1, 31, 32, 33, 64, 256, 1024])
def test_parallel_equals_reference(n_threads):
    state = make_state(n_threads)
    assert np.array_equal(reduce_parallel(state), reference(n_threads))


@pytest.mark.parametrize("n_threads", [1, 32, 100, 512])
def test_sequential_equals_reference(n_threads):
    state = make_state(n_threads)
    assert np.array_equal(reduce_sequential(state), reference(n_threads))


def test_parallel_equals_sequential_with_ctx():
    state = make_state(96, seed=7)
    par = reduce_parallel(make_state(96, seed=7), make_ctx(96))
    seq = reduce_sequential(state, make_ctx(96))
    assert np.array_equal(par, seq)


def test_reduce_block_dispatch():
    expect = reference(64)
    for mode in ReductionMode:
        assert np.array_equal(
            reduce_block(make_state(64), mode), expect
        )


def test_parallel_rejects_order_sensitive_lanes():
    kinds = (ChecksumKind.MODULAR, ChecksumKind.ADLER32)
    state = make_state(32, kinds=kinds)
    with pytest.raises(ConfigError):
        reduce_parallel(state)
    # Sequential handles them fine.
    assert np.array_equal(reduce_sequential(state),
                          reference(32, kinds=kinds))


def test_block_reduction_reads_one_block():
    state = BatchChecksumState(ChecksumSet(PAPER_CHECKSUM_PAIR), 32, 2)
    with pytest.raises(ConfigError):
        reduce_sequential(state)


def test_functional_charges_match_analytic_tally_parallel():
    """The analytic profile costs must mirror the functional charges."""
    n_threads = 96
    ctx = make_ctx(n_threads)
    reduce_parallel(make_state(n_threads), ctx)
    tally = ctx.finalize_tally()
    cost = reduction_tally(ReductionMode.PARALLEL_SHUFFLE, n_threads, 2)
    assert tally.shuffle_ops == cost.shuffle_ops
    assert tally.alu_ops == cost.alu_ops
    assert tally.shared_bytes == cost.shared_bytes
    assert tally.syncthreads == cost.syncthreads
    assert tally.global_read_bytes + tally.global_write_bytes == 0


def test_functional_charges_match_analytic_tally_sequential():
    n_threads = 64
    ctx = make_ctx(n_threads)
    reduce_sequential(make_state(n_threads), ctx)
    tally = ctx.finalize_tally()
    cost = reduction_tally(ReductionMode.SEQUENTIAL_MEMORY, n_threads, 2)
    assert tally.shared_bytes == cost.shared_bytes
    assert tally.global_read_bytes + tally.global_write_bytes == cost.global_bytes
    assert tally.alu_ops == cost.alu_ops
    assert tally.syncthreads == cost.syncthreads


def test_parallel_cheaper_in_steps_than_sequential():
    par = reduction_tally(ReductionMode.PARALLEL_SHUFFLE, 1024, 2)
    seq = reduction_tally(ReductionMode.SEQUENTIAL_MEMORY, 1024, 2)
    assert par.global_bytes == 0
    assert seq.global_bytes > 0


def test_zero_lanes_tally_is_empty():
    cost = reduction_tally(ReductionMode.PARALLEL_SHUFFLE, 64, 0)
    assert cost.alu_ops == 0 and cost.shared_bytes == 0


def test_apply_reduction_tally():
    tally = Tally()
    cost = reduction_tally(ReductionMode.SEQUENTIAL_MEMORY, 64, 2)
    apply_reduction_tally(tally, cost, n_blocks=10)
    assert tally.alu_ops == cost.alu_ops * 10
    assert tally.global_read_bytes == cost.global_bytes / 2 * 10
