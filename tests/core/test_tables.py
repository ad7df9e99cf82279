"""Unit tests for the three checksum-table organizations."""

import numpy as np
import pytest

from repro.core.config import AtomicMode, LockMode, LPConfig, TableKind
from repro.core.tables import (
    EMPTY_KEY,
    CuckooTable,
    GlobalArrayTable,
    QuadraticTable,
    make_table,
    mix64,
    mix64_array,
    pow2_ceil,
)
from repro.errors import TableError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.costs import CostModel
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory


def make_env(n_blocks=16, threads=32):
    mem = GlobalMemory(cache_capacity_lines=512)
    cfg = LaunchConfig.linear(n_blocks, threads)
    ctx = BatchBlockContext(mem, cfg, (0,), atomics=AtomicUnit(mem),
                            immediate=True)
    return mem, ctx


def lanes_for(key, n_lanes=2):
    return np.array([key * 3 + 1, key * 7 + 2], dtype=np.uint64)[:n_lanes]


# -- helpers -------------------------------------------------------------------

def test_pow2_ceil():
    assert pow2_ceil(0) == 1
    assert pow2_ceil(1) == 1
    assert pow2_ceil(5) == 8
    assert pow2_ceil(64) == 64


def test_mix64_is_deterministic_and_spread():
    a = mix64(1, 0)
    assert a == mix64(1, 0)
    assert mix64(1, 0) != mix64(2, 0)
    assert mix64(1, 0) != mix64(1, 1)


def test_mix64_array_matches_scalar():
    keys = np.arange(100, dtype=np.uint64)
    vec = mix64_array(keys, 12345)
    scalars = [mix64(int(k), 12345) for k in keys]
    assert np.array_equal(vec, np.array(scalars, dtype=np.uint64))


# -- factory -------------------------------------------------------------------

def test_make_table_dispatch():
    for config, cls in (
        (LPConfig.naive_quadratic(), QuadraticTable),
        (LPConfig.naive_cuckoo(), CuckooTable),
        (LPConfig.paper_best(), GlobalArrayTable),
    ):
        mem, _ = make_env()
        table = make_table(mem, "t", 16, 2, config)
        assert isinstance(table, cls)


def test_make_table_rejects_perfect_global_array():
    mem, _ = make_env()
    with pytest.raises(TableError):
        make_table(mem, "t", 16, 2, LPConfig.paper_best(),
                   perfect_hash=True)


def test_table_validates_arguments():
    mem, _ = make_env()
    with pytest.raises(TableError):
        QuadraticTable(mem, "t", 0, 2, LPConfig.naive_quadratic())
    with pytest.raises(TableError):
        QuadraticTable(mem, "t", 4, 0, LPConfig.naive_quadratic())


# -- shared behaviour across kinds -----------------------------------------------

@pytest.mark.parametrize("config", [
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
    LPConfig.paper_best(),
])
def test_insert_then_lookup_roundtrip(config):
    mem, ctx = make_env()
    table = make_table(mem, "t", 16, 2, config)
    for key in range(16):
        table.insert(ctx, key, lanes_for(key))
    for key in range(16):
        assert np.array_equal(table.lookup(key), lanes_for(key))
    assert table.stats.inserts == 16


@pytest.mark.parametrize("config", [
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
    LPConfig.paper_best(),
])
def test_reinsert_overwrites_lanes(config):
    """Recovery re-execution must refresh an existing entry in place."""
    mem, ctx = make_env()
    table = make_table(mem, "t", 16, 2, config)
    table.insert(ctx, 3, lanes_for(3))
    fresh = np.array([111, 222], dtype=np.uint64)
    table.insert(ctx, 3, fresh)
    assert np.array_equal(table.lookup(3), fresh)


@pytest.mark.parametrize("config", [
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
])
def test_missing_key_lookup_returns_none(config):
    mem, _ = make_env()
    table = make_table(mem, "t", 16, 2, config)
    assert table.lookup(7) is None
    assert table.stats.failed_lookups == 1


@pytest.mark.parametrize("config", [
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
    LPConfig.paper_best(),
])
def test_table_buffers_are_persistent_and_prefixed(config):
    mem, _ = make_env()
    table = make_table(mem, "t", 16, 2, config)
    assert table.buffer_names
    for name in table.buffer_names:
        assert name.startswith("__lp_")
        assert mem[name].persistent
    assert table.space_bytes == sum(
        mem[name].nbytes for name in table.buffer_names
    )


def test_table_free_releases_buffers():
    mem, _ = make_env()
    table = make_table(mem, "t", 16, 2, LPConfig.paper_best())
    names = list(table.buffer_names)
    table.free()
    for name in names:
        assert name not in mem


def _table_for_reset(kind, mem):
    if kind == "cuckoo-rehashed":
        # A minuscule chain bound forces rehashes (fresh hash seeds).
        return CuckooTable(mem, "t", 24, 2, LPConfig.naive_cuckoo(),
                           max_chain=2)
    config = {"global-array": LPConfig.paper_best(),
              "quadratic": LPConfig.naive_quadratic(),
              "cuckoo": LPConfig.naive_cuckoo()}[kind]
    return make_table(mem, "t", 24, 2, config)


@pytest.mark.parametrize("durable", [False, True],
                         ids=["memory", "mapped"])
@pytest.mark.parametrize("kind", ["global-array", "quadratic", "cuckoo",
                                  "cuckoo-rehashed"])
def test_reset_leaves_a_fresh_table(kind, durable, tmp_path):
    """reset() == a newly constructed table: both images, the cache,
    and every insert / lookup that follows, bit for bit."""
    from repro.nvm import create_heap

    def env(tag):
        heap = create_heap(tmp_path / f"{tag}.lpnv") if durable else None
        mem = GlobalMemory(cache_capacity_lines=512, shadow=heap)
        ctx = BatchBlockContext(mem, LaunchConfig.linear(24, 32), (0,),
                                atomics=AtomicUnit(mem), immediate=True)
        return mem, ctx, _table_for_reset(kind, mem)

    def images(mem, table):
        return [(mem[name].data.tolist(), mem[name].shadow.tolist())
                for name in table.buffer_names]

    used_mem, used_ctx, used = env("used")
    fresh_mem, fresh_ctx, fresh = env("fresh")
    seed = images(fresh_mem, fresh)

    # Half the entries reach NVM, the other half stay dirty in the cache.
    for key in range(24):
        used.insert(used_ctx, key, lanes_for(key))
        if key == 11:
            used_mem.drain()
    assert used_mem.cache.n_dirty > 0
    assert images(used_mem, used) != seed
    if kind == "cuckoo-rehashed":
        assert used.stats.rehashes > 0
    inserts = used.stats.inserts

    used.reset()

    assert images(used_mem, used) == seed
    assert used_mem.cache.n_dirty == 0
    for mem, ctx, table in ((used_mem, used_ctx, used),
                            (fresh_mem, fresh_ctx, fresh)):
        for key in reversed(range(24)):
            table.insert(ctx, key, lanes_for(key + 100))
    assert used_mem.cache.dirty_lines == fresh_mem.cache.dirty_lines
    assert images(used_mem, used) == images(fresh_mem, fresh)
    used_mem.drain(), fresh_mem.drain()
    assert images(used_mem, used) == images(fresh_mem, fresh)
    keys = np.arange(24)
    for got, want in zip(used.lookup_many(keys), fresh.lookup_many(keys)):
        assert np.array_equal(got, want)
    assert used.stats.inserts == inserts + 24  # stats keep counting


# -- quadratic specifics ---------------------------------------------------------

def test_quadratic_counts_collisions():
    mem, ctx = make_env()
    # Tiny load factor target forces a small table and collisions.
    config = LPConfig.naive_quadratic().with_(quad_target_load_factor=1.0)
    table = QuadraticTable(mem, "t", 8, 2, config)
    assert table.capacity == 8
    for key in range(8):
        table.insert(ctx, key, lanes_for(key))
    assert table.stats.collisions > 0
    assert table.stats.probes == 8 + table.stats.collisions
    for key in range(8):
        assert table.lookup(key) is not None


def test_quadratic_capacity_targets_load_factor():
    mem, _ = make_env()
    table = QuadraticTable(mem, "t", 100, 2, LPConfig.naive_quadratic())
    assert table.capacity >= 100 / 0.7
    assert table.capacity & (table.capacity - 1) == 0


def test_quadratic_perfect_hash_has_no_collisions():
    mem, ctx = make_env()
    table = QuadraticTable(mem, "t", 64, 2, LPConfig.naive_quadratic(),
                           perfect_hash=True)
    for key in range(64):
        table.insert(ctx, key, lanes_for(key))
    assert table.stats.collisions == 0
    assert table.lookup(13) is not None


def test_quadratic_lock_based_charges_serial_cycles():
    mem, ctx = make_env()
    config = LPConfig.naive_quadratic().with_(locks=LockMode.LOCK_BASED)
    table = QuadraticTable(mem, "t", 16, 2, config,
                           cost_model=CostModel())
    table.insert(ctx, 0, lanes_for(0))
    assert ctx.tally.serial_cycles > 0


def test_quadratic_emulated_atomics_work_functionally():
    mem, ctx = make_env()
    config = LPConfig.naive_quadratic().with_(atomics=AtomicMode.EMULATED)
    table = QuadraticTable(mem, "t", 16, 2, config)
    for key in range(16):
        table.insert(ctx, key, lanes_for(key))
    for key in range(16):
        assert np.array_equal(table.lookup(key), lanes_for(key))
    assert ctx.tally.serial_cycles > 0  # the emulation penalty
    assert ctx.atomics.total_ops == 0   # no hardware atomics used


# -- cuckoo specifics -------------------------------------------------------------

def test_cuckoo_two_tables_sizing():
    mem, _ = make_env()
    table = CuckooTable(mem, "t", 100, 2, LPConfig.naive_cuckoo())
    assert table.capacity == 2 * table.per_table_capacity
    # Combined load factor at most the configured target.
    assert 100 / table.capacity <= 0.45


def test_cuckoo_eviction_chain_displaces_and_preserves():
    mem, ctx = make_env()
    # Force a crowded table (per-table capacity close to n).
    config = LPConfig.naive_cuckoo().with_(cuckoo_target_load_factor=0.5)
    table = CuckooTable(mem, "t", 32, 2, config)
    for key in range(32):
        table.insert(ctx, key, lanes_for(key))
    assert table.stats.collisions > 0
    for key in range(32):
        assert np.array_equal(table.lookup(key), lanes_for(key))


def test_cuckoo_rehash_preserves_entries():
    mem, ctx = make_env()
    config = LPConfig.naive_cuckoo().with_(cuckoo_target_load_factor=0.5)
    # A minuscule chain bound forces rehashes quickly.
    table = CuckooTable(mem, "t", 24, 2, config, max_chain=2)
    for key in range(24):
        table.insert(ctx, key, lanes_for(key))
    assert table.stats.rehashes > 0
    for key in range(24):
        assert np.array_equal(table.lookup(key), lanes_for(key))


def test_cuckoo_lookup_is_two_probes():
    mem, ctx = make_env()
    table = CuckooTable(mem, "t", 16, 2, LPConfig.naive_cuckoo())
    table.insert(ctx, 5, lanes_for(5))
    assert table.lookup(5) is not None
    assert table.lookup(6) is None  # exactly checks both slots


def test_cuckoo_emulated_swap_functional():
    mem, ctx = make_env()
    config = LPConfig.naive_cuckoo().with_(atomics=AtomicMode.EMULATED)
    table = CuckooTable(mem, "t", 16, 2, config)
    for key in range(16):
        table.insert(ctx, key, lanes_for(key))
    for key in range(16):
        assert np.array_equal(table.lookup(key), lanes_for(key))
    assert ctx.atomics.total_ops == 0


# -- global array specifics --------------------------------------------------------

def test_global_array_is_exact_size():
    mem, _ = make_env()
    table = GlobalArrayTable(mem, "t", 100, 2, LPConfig.paper_best())
    assert table.capacity == 100
    assert table.space_bytes == 100 * 2 * 8


def test_global_array_never_collides_or_uses_atomics():
    mem, ctx = make_env()
    table = GlobalArrayTable(mem, "t", 64, 2, LPConfig.paper_best())
    for key in range(64):
        table.insert(ctx, key, lanes_for(key))
    assert table.stats.collisions == 0
    assert ctx.atomics.total_ops == 0
    assert ctx.tally.serial_cycles == 0


def test_global_array_missing_entry_is_sentinel():
    mem, _ = make_env()
    table = GlobalArrayTable(mem, "t", 8, 2, LPConfig.paper_best())
    assert table.lookup(5) is None


def test_global_array_rejects_foreign_keys():
    mem, ctx = make_env()
    table = GlobalArrayTable(mem, "t", 8, 2, LPConfig.paper_best())
    with pytest.raises(TableError):
        table.insert(ctx, 8, lanes_for(8))
    with pytest.raises(TableError):
        table.lookup(-1)


def test_empty_key_sentinel():
    assert int(EMPTY_KEY) == (1 << 64) - 1


# -- batched lookup (lookup_many) ------------------------------------------------

ALL_CONFIGS = [
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
    LPConfig.paper_best(),
]


def _assert_lookup_many_matches_scalar(table, keys):
    """lookup_many must agree with a per-key lookup loop, per element."""
    lanes, found = table.lookup_many(np.asarray(keys, dtype=np.int64))
    assert lanes.shape == (len(keys), table.n_lanes)
    assert lanes.dtype == np.uint64
    assert found.shape == (len(keys),)
    for i, key in enumerate(keys):
        scalar = table.lookup(int(key))
        assert bool(found[i]) == (scalar is not None)
        if scalar is not None:
            assert np.array_equal(lanes[i], scalar)


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_lookup_many_matches_scalar_lookup(config):
    mem, ctx = make_env()
    table = make_table(mem, "t", 16, 2, config)
    for key in range(0, 16, 2):  # half present, half missing
        table.insert(ctx, key, lanes_for(key))
    _assert_lookup_many_matches_scalar(table, list(range(16)))


@pytest.mark.parametrize("config", [
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
])
def test_lookup_many_perfect_hash_variant(config):
    mem, ctx = make_env()
    table = make_table(mem, "t", 16, 2, config, perfect_hash=True)
    for key in range(0, 16, 3):
        table.insert(ctx, key, lanes_for(key))
    _assert_lookup_many_matches_scalar(table, list(range(16)))


def test_lookup_many_quadratic_with_long_probe_chains():
    mem, ctx = make_env()
    table = QuadraticTable(mem, "t", 16, 2, LPConfig.naive_quadratic())
    for key in range(24):  # overload → collisions, long probe chains
        table.insert(ctx, key, lanes_for(key))
    assert table.stats.collisions > 0
    _assert_lookup_many_matches_scalar(table, list(range(32)))


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_lookup_many_stats_match_scalar_loop(config):
    mem, ctx = make_env()
    keys = list(range(16))
    present = list(range(0, 16, 2))

    table_a = make_table(mem, "ta", 16, 2, config)
    table_b = make_table(mem, "tb", 16, 2, config)
    for key in present:
        table_a.insert(ctx, key, lanes_for(key))
        table_b.insert(ctx, key, lanes_for(key))

    for key in keys:
        table_a.lookup(key)
    table_b.lookup_many(np.asarray(keys, dtype=np.int64))

    assert table_b.stats.lookups == table_a.stats.lookups == len(keys)
    assert table_b.stats.failed_lookups == table_a.stats.failed_lookups


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_lookup_many_empty_batch(config):
    mem, _ = make_env()
    table = make_table(mem, "t", 16, 2, config)
    lanes, found = table.lookup_many(np.array([], dtype=np.int64))
    assert lanes.shape == (0, 2)
    assert found.shape == (0,)
    assert table.stats.lookups == 0


def test_lookup_many_global_array_rejects_foreign_keys():
    mem, _ = make_env()
    table = GlobalArrayTable(mem, "t", 8, 2, LPConfig.paper_best())
    with pytest.raises(TableError):
        table.lookup_many(np.array([0, 8], dtype=np.int64))
    with pytest.raises(TableError):
        table.lookup_many(np.array([-1], dtype=np.int64))
