"""Unit tests for the atomic unit."""

import numpy as np

from repro.gpu.atomics import AtomicUnit
from repro.gpu.memory import GlobalMemory


def make():
    mem = GlobalMemory(cache_capacity_lines=64)
    buf = mem.alloc("a", (64,), np.uint64)
    return mem, buf, AtomicUnit(mem)


def test_cas_claims_empty_slot():
    _, buf, au = make()
    old = au.cas(buf, 3, 0, 42)
    assert old == 0
    assert buf.array[3] == 42


def test_cas_fails_on_occupied_slot():
    _, buf, au = make()
    au.cas(buf, 3, 0, 42)
    old = au.cas(buf, 3, 0, 99)
    assert old == 42
    assert buf.array[3] == 42  # unchanged


def test_exch_always_swaps():
    _, buf, au = make()
    assert au.exch(buf, 5, 7) == 0
    assert au.exch(buf, 5, 9) == 7
    assert buf.array[5] == 9


def test_add_handles_duplicate_indices():
    mem = GlobalMemory(cache_capacity_lines=64)
    buf = mem.alloc("h", (8,), np.int64)
    au = AtomicUnit(mem)
    au.add(buf, np.array([1, 1, 1, 2]), np.array([1, 1, 1, 5]))
    assert buf.array[1] == 3
    assert buf.array[2] == 5


def test_hot_max_tracks_worst_address():
    _, buf, au = make()
    for _ in range(5):
        au.exch(buf, 7, 1)
    au.exch(buf, 8, 1)
    assert au.hot_max == 5
    assert au.total_ops == 6


def test_atomic_writes_enter_persistence_domain():
    mem = GlobalMemory(cache_capacity_lines=64)
    buf = mem.alloc("a", (8,), np.uint64)
    au = AtomicUnit(mem)
    au.exch(buf, 0, 42)
    assert mem.cache.n_dirty >= 1
    mem.drain()
    assert buf.nvm_array[0] == 42


def test_add_routes_dirty_lines():
    mem = GlobalMemory(cache_capacity_lines=64)
    buf = mem.alloc("h", (8,), np.int64)
    au = AtomicUnit(mem)
    au.add(buf, np.array([0, 1]), np.array([1, 1]))
    mem.drain()
    assert buf.nvm_array[0] == 1


def test_empty_unit_hot_max_zero():
    _, _, au = make()
    assert au.hot_max == 0
