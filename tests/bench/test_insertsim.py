"""Pinning the host insertion simulator to the functional tables."""

import numpy as np
import pytest

from repro.bench.insertsim import (
    InsertSim,
    simulate_cuckoo,
    simulate_insertions,
    simulate_quadratic,
)
from repro.core.config import LPConfig, TableKind
from repro.core.tables import CuckooTable, QuadraticTable
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory


def functional_stats(table_cls, n_keys, config):
    mem = GlobalMemory(cache_capacity_lines=4096)
    ctx = BatchBlockContext(mem, LaunchConfig.linear(n_keys, 32), (0,),
                            atomics=AtomicUnit(mem), immediate=True)
    table = table_cls(mem, "t", n_keys, 2, config)
    lanes = np.zeros(2, dtype=np.uint64)
    for key in range(n_keys):
        table.insert(ctx, key, lanes)
    return table.stats


@pytest.mark.parametrize("n_keys", [16, 100, 500])
def test_quadratic_sim_matches_functional_table(n_keys):
    config = LPConfig.naive_quadratic()
    sim = simulate_quadratic(n_keys, config.quad_target_load_factor)
    stats = functional_stats(QuadraticTable, n_keys, config)
    assert sim.collisions == stats.collisions
    assert sim.probes == stats.probes
    assert sim.max_chain == stats.max_chain


@pytest.mark.parametrize("n_keys", [16, 100, 500])
def test_cuckoo_sim_matches_functional_table(n_keys):
    config = LPConfig.naive_cuckoo()
    sim = simulate_cuckoo(n_keys, config.cuckoo_target_load_factor)
    stats = functional_stats(CuckooTable, n_keys, config)
    assert sim.collisions == stats.collisions
    assert sim.probes == stats.probes
    assert sim.rehashes == stats.rehashes


def test_cuckoo_sim_matches_under_rehash_pressure():
    """High load factor forces evictions/rehashes; still must agree."""
    config = LPConfig.naive_cuckoo().with_(cuckoo_target_load_factor=0.5)
    sim = simulate_cuckoo(300, 0.5)
    stats = functional_stats(CuckooTable, 300, config)
    assert sim.collisions == stats.collisions
    assert sim.rehashes == stats.rehashes


def test_perfect_hash_has_zero_collisions():
    assert simulate_quadratic(1000, perfect_hash=True).collisions == 0
    assert simulate_cuckoo(1000, perfect_hash=True).collisions == 0


def test_collisions_scale_with_keys():
    small = simulate_quadratic(1000)
    big = simulate_quadratic(100000)
    assert big.collisions > 10 * small.collisions


def test_simulate_insertions_is_memoized():
    config = LPConfig.naive_quadratic()
    a = simulate_insertions(config, 5000)
    b = simulate_insertions(config, 5000)
    assert a is b


def test_global_array_sim_is_trivial():
    sim = simulate_insertions(LPConfig.paper_best(), 1234)
    assert sim.kind is TableKind.GLOBAL_ARRAY
    assert sim.collisions == 0
    assert sim.capacity == 1234


def test_insert_sim_properties():
    sim = InsertSim(TableKind.QUADRATIC, 100, 256, 150, 50, 0, 5)
    assert sim.load_factor == pytest.approx(100 / 256)
    assert sim.collisions_per_insert == pytest.approx(0.5)
