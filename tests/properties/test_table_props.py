"""Property-based tests for checksum tables."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.config import AtomicMode, LockMode, LPConfig, TableKind
from repro.core.tables import CuckooTable, make_table
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory

configs = st.sampled_from([
    LPConfig.naive_quadratic(),
    LPConfig.naive_cuckoo(),
    LPConfig.paper_best(),
])


def make_ctx(mem):
    return BatchBlockContext(mem, LaunchConfig.linear(4, 32), (0,),
                             atomics=AtomicUnit(mem), immediate=True)


@given(configs, st.integers(1, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_insert_then_lookup_every_key(config, n_keys, salt):
    mem = GlobalMemory(cache_capacity_lines=4096)
    ctx = make_ctx(mem)
    table = make_table(mem, "t", n_keys, 2, config)
    for key in range(n_keys):
        lanes = np.array([key ^ salt, key + salt], dtype=np.uint64)
        table.insert(ctx, key, lanes)
    for key in range(n_keys):
        lanes = table.lookup(key)
        assert lanes is not None
        assert lanes[0] == np.uint64(key ^ salt)
        assert lanes[1] == np.uint64(key) + np.uint64(salt)


@given(configs, st.integers(2, 100),
       st.lists(st.integers(0, 99), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_reinsertion_is_idempotent(config, n_keys, reinserts):
    """Recovery may re-insert any subset of keys, any number of times;
    the table must end up exactly as after a single pass."""
    mem = GlobalMemory(cache_capacity_lines=4096)
    ctx = make_ctx(mem)
    table = make_table(mem, "t", n_keys, 2, config)

    def lanes_of(key):
        return np.array([key * 3 + 1, key * 5 + 2], dtype=np.uint64)

    for key in range(n_keys):
        table.insert(ctx, key, lanes_of(key))
    for r in reinserts:
        table.insert(ctx, r % n_keys, lanes_of(r % n_keys))
    for key in range(n_keys):
        assert np.array_equal(table.lookup(key), lanes_of(key))


@given(st.integers(1, 400))
@settings(max_examples=30, deadline=None)
def test_quadratic_probe_accounting_invariant(n_keys):
    """probes == inserts + collisions, always."""
    mem = GlobalMemory(cache_capacity_lines=4096)
    ctx = make_ctx(mem)
    table = make_table(mem, "t", n_keys, 2, LPConfig.naive_quadratic())
    lanes = np.zeros(2, dtype=np.uint64)
    for key in range(n_keys):
        table.insert(ctx, key, lanes)
    assert table.stats.probes == n_keys + table.stats.collisions


# -- crash-aware model ------------------------------------------------------

#: Every table kind under every insertion protocol it admits.
ALL_PROTOCOLS = [LPConfig.paper_best()] + [
    preset().with_(locks=locks, atomics=atomics)
    for preset in (LPConfig.naive_quadratic, LPConfig.naive_cuckoo)
    for locks in LockMode for atomics in AtomicMode]


class CrashAwareTable(RuleBasedStateMachine):
    """The LP contract restricted to the one structure recovery trusts.

    Inserts, crashes that persist an arbitrary subset of the dirty
    lines, and recovery passes that re-insert every key whose
    ``lookup_many`` lanes no longer match. Whenever no crash is pending
    recovery, ``lookup_many`` must return each key's last inserted
    lanes: a re-insert (or any later insert) may not disturb a key
    that validated. ``crowded`` tables run near their load limit, and a
    crowded cuckoo table's chain bound of 3 makes evictions and
    rehashes common.
    """

    @initialize(config=st.sampled_from(ALL_PROTOCOLS),
                n_keys=st.integers(1, 40), crowded=st.booleans(),
                cache_lines=st.integers(1, 16))
    def build(self, config, n_keys, crowded, cache_lines):
        self.mem = GlobalMemory(cache_capacity_lines=cache_lines)
        self.ctx = BatchBlockContext(
            self.mem, LaunchConfig.linear(n_keys, 32), (0,),
            atomics=AtomicUnit(self.mem), immediate=True)
        if crowded and config.table is TableKind.CUCKOO:
            self.table = CuckooTable(
                self.mem, "t", n_keys, 2,
                config.with_(cuckoo_target_load_factor=0.5), max_chain=3)
        elif crowded and config.table is TableKind.QUADRATIC:
            self.table = make_table(
                self.mem, "t", n_keys, 2,
                config.with_(quad_target_load_factor=1.0))
        else:
            self.table = make_table(self.mem, "t", n_keys, 2, config)
        self.n_keys = n_keys
        self.want: dict[int, np.ndarray] = {}
        self.version = 0
        self.crashed = False

    @rule(key=st.integers(0, 39))
    def insert(self, key):
        key %= self.n_keys
        self.version += 1
        lanes = np.array([key, self.version], dtype=np.uint64)
        self.table.insert(self.ctx, key, lanes)
        self.want[key] = lanes

    @rule(persist_fraction=st.floats(0.0, 1.0),
          seed=st.integers(0, 2**16))
    def crash(self, persist_fraction, seed):
        self.mem.crash(persist_fraction, np.random.default_rng(seed))
        self.crashed = True

    @rule()
    def recover(self):
        keys = sorted(self.want)
        for key, ok in zip(keys, self._matches(keys)):
            if not ok:
                self.table.insert(self.ctx, key, self.want[key])
        self.crashed = False

    def _matches(self, keys) -> np.ndarray:
        lanes, found = self.table.lookup_many(np.asarray(keys, np.int64))
        want = np.array([self.want[k] for k in keys], dtype=np.uint64)
        return found & (lanes == want.reshape(lanes.shape)).all(axis=1)

    @invariant()
    def lookup_many_returns_every_last_insert(self):
        if self.want and not self.crashed:
            keys = sorted(self.want)
            assert self._matches(keys).all(), keys


CrashAwareTableTest = CrashAwareTable.TestCase
CrashAwareTableTest.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)


def _replay(config, n_keys, crowded, cache_lines, *steps):
    """One pinned run of :class:`CrashAwareTable`, checked every step."""
    machine = CrashAwareTable()
    machine.build(config, n_keys, crowded, cache_lines)
    for name, *args in steps:
        getattr(machine, name)(*args)
        machine.lookup_many_returns_every_last_insert()


def test_a_chain_meeting_its_other_copy_keeps_table_0s():
    """The crashes leave key 0 in both tables; key 1's re-insert evicts
    one copy onto the other."""
    _replay(LPConfig.naive_cuckoo(), 2, False, 4,
            ("insert", 0), ("crash", 0.5, 1), ("insert", 1),
            ("crash", 0.5, 0), ("recover",))


def test_a_rehash_reinserts_only_table_0s_copy():
    """The last crash leaves a key in both tables, and a recovery
    re-insert rehashes."""
    _replay(LPConfig.naive_cuckoo(), 12, True, 15,
            ("insert", 8), ("insert", 3), ("insert", 5), ("crash", 0.5, 18),
            ("insert", 7), ("insert", 1), ("insert", 2), ("insert", 11),
            ("crash", 0.5, 7), ("insert", 9), ("insert", 10),
            ("crash", 0.75, 68), ("recover",))


def test_a_rehash_drops_a_stale_orphan():
    """The chain that overflows into a rehash ends carrying the
    table-1 copy of a key whose table-0 copy the rehash re-inserts."""
    _replay(LPConfig.naive_cuckoo(), 8, True, 16,
            ("insert", 5), ("insert", 6), ("crash", 0.5, 27),
            ("insert", 0), ("insert", 2), ("crash", 0.0, 38),
            ("insert", 7), ("crash", 0.5, 56), ("insert", 5), ("recover",))


def test_entries_a_crash_left_off_their_home_slots_are_dropped():
    """Insert 3 rehashes; the crash after it keeps part of the old
    layout, whose entries sit off their new home slots."""
    _replay(LPConfig.naive_cuckoo(), 13, True, 12,
            ("insert", 0), ("insert", 5), ("insert", 11), ("insert", 6),
            ("insert", 1), ("crash", 0.75, 21), ("insert", 3),
            ("insert", 9), ("insert", 0), ("insert", 11),
            ("crash", 0.75, 61), ("recover",))
