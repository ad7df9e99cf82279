"""Unit tests for the insertion concurrency protocols."""

import numpy as np
import pytest

from repro.core.config import AtomicMode, LockMode, LPConfig
from repro.core.tables.locks import InsertionProtocol
from repro.gpu.atomics import AtomicUnit
from repro.gpu.costs import CostModel
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory


def make_env(config):
    mem = GlobalMemory(cache_capacity_lines=64)
    keys = mem.alloc("keys", (16,), np.uint64,
                     init=np.zeros(16, np.uint64))
    ctx = BatchBlockContext(mem, LaunchConfig.linear(4, 32), (0,),
                            atomics=AtomicUnit(mem), immediate=True)
    protocol = InsertionProtocol(config, CostModel(), population=1000)
    return keys, ctx, protocol


def test_hardware_claim_uses_atomic_cas():
    keys, ctx, protocol = make_env(LPConfig.naive_quadratic())
    old = protocol.claim_if_empty(ctx, keys, 3, np.uint64(0),
                                  np.uint64(42))
    assert old == 0
    assert keys.array[3] == 42
    assert ctx.atomics.total_ops == 1


def test_emulated_claim_same_semantics_no_atomics():
    config = LPConfig.naive_quadratic().with_(atomics=AtomicMode.EMULATED)
    keys, ctx, protocol = make_env(config)
    old = protocol.claim_if_empty(ctx, keys, 3, np.uint64(0),
                                  np.uint64(42))
    assert old == 0 and keys.array[3] == 42
    # Occupied slot: no overwrite, old value returned.
    old = protocol.claim_if_empty(ctx, keys, 3, np.uint64(0),
                                  np.uint64(99))
    assert old == 42 and keys.array[3] == 42
    assert ctx.atomics.total_ops == 0
    assert ctx.tally.serial_cycles > 0  # the emulation penalty


def test_hardware_swap_vs_emulated_swap():
    for config, expect_atomics in (
        (LPConfig.naive_cuckoo(), 1),
        (LPConfig.naive_cuckoo().with_(atomics=AtomicMode.EMULATED), 0),
    ):
        keys, ctx, protocol = make_env(config)
        old = protocol.swap(ctx, keys, 5, np.uint64(7))
        assert old == 0 and keys.array[5] == 7
        assert ctx.atomics.total_ops == expect_atomics


def test_lock_free_charges_no_convoy():
    keys, ctx, protocol = make_env(LPConfig.naive_quadratic())
    protocol.charge_lock(ctx, chain_length=3)
    assert ctx.tally.serial_cycles == 0


def test_lock_based_convoy_scales_with_chain():
    config = LPConfig.naive_quadratic().with_(locks=LockMode.LOCK_BASED)
    keys, ctx, protocol = make_env(config)
    protocol.charge_lock(ctx, chain_length=1)
    short = ctx.tally.serial_cycles
    protocol.charge_lock(ctx, chain_length=10)
    long_total = ctx.tally.serial_cycles
    assert short > 0
    assert long_total - short > short  # longer chains hold the lock longer


def test_population_drives_contention():
    config = LPConfig.naive_quadratic().with_(locks=LockMode.LOCK_BASED)
    mem = GlobalMemory(cache_capacity_lines=64)
    ctx = BatchBlockContext(mem, LaunchConfig.linear(4, 32), (0,),
                            atomics=AtomicUnit(mem), immediate=True)
    small = InsertionProtocol(config, CostModel(), population=10)
    big = InsertionProtocol(config, CostModel(), population=100000)
    small.charge_lock(ctx, 1)
    after_small = ctx.tally.serial_cycles
    big.charge_lock(ctx, 1)
    assert ctx.tally.serial_cycles - after_small > after_small
