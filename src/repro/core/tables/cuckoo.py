"""Two-table cuckoo-hashing checksum table (Fig. 4).

Each key has one candidate slot per table (``T1[H1(key)]`` and
``T2[H2(key)]``). Insertion claims its ``T1`` slot unconditionally with
``atomicExch``; if a victim key was evicted, the victim re-inserts into
the *other* table, and so on — the paper's step (1)-(4) walk. A chain
that exceeds the cycle bound triggers a **rehash**: new hash seeds,
both tables rebuilt (every reinsert's collisions are counted, so a
rehash is visibly expensive in the Table II statistics).

The paper's observations reproduced here:

* amortized-constant insertion, bounded lookups (exactly two probes);
* the load factor must stay under ~50 % combined, hence the sizing from
  :attr:`~repro.core.config.LPConfig.cuckoo_target_load_factor`;
* ``atomicExch`` (not CAS) suffices because the slot is overwritten
  whether or not it is occupied (Section IV-C-1).

``perfect_hash`` implements the Section IV-D-2 collision-free ablation,
as for the quadratic table.

The eviction walk exists once, :func:`eviction_walk`, over a
:class:`CuckooLayout` and a backend's slot operations: the table's
issue them on the block's row, :mod:`repro.bench.insertsim`'s on
host arrays.

A crash can leave entries :meth:`~CuckooTable.lookup` never reads: a
key in *both* tables (lookup reads the table-0 copy), or, after a
rehash, entries off their home slots. Recovery validated what lookup
reads, so the walk keeps exactly that: a chain that evicts an unread
entry drops it and stops (meeting the carried key's other copy, it
keeps table 0's), and a rehash re-inserts only what lookup reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LPConfig, TableKind
from repro.core.tables.base import (
    EMPTY_KEY,
    WORD_BYTES,
    ChecksumTable,
    TableStats,
    mix64,
    mix64_array,
    pow2_ceil,
)
from repro.core.tables.locks import InsertionProtocol
from repro.errors import RehashLimitError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import CostModel
from repro.gpu.memory import GlobalMemory
from repro.obs import current as _recorder

#: Eviction-chain length that declares a cycle and forces a rehash.
DEFAULT_MAX_CHAIN = 48
#: Consecutive rehash attempts before giving up.
MAX_REHASH_ATTEMPTS = 16


class CuckooLayout:
    """Where a key may sit: one slot in each of two tables of
    ``per_table`` slots, under two hash seeds that a rehash replaces."""

    def __init__(self, per_table: int, seed: int,
                 max_chain: int = DEFAULT_MAX_CHAIN,
                 perfect_hash: bool = False) -> None:
        self.per_table = per_table
        self.max_chain = max_chain
        self.perfect_hash = perfect_hash
        #: Replaced, never mutated, by :meth:`rehash`.
        self.seeds = self.initial_seeds = [seed, seed ^ 0x6A09E667F3BCC909]

    def index(self, table: int, key) -> int:
        """``key``'s slot in ``table``."""
        if self.perfect_hash:
            return int(key) % self.per_table
        return mix64(int(key), self.seeds[table]) % self.per_table

    def indices(self, table: int, keys: np.ndarray) -> np.ndarray:
        """:meth:`index` of every one of ``keys`` (uint64) at once."""
        if self.perfect_hash:
            return (keys % np.uint64(self.per_table)).astype(np.int64)
        return (mix64_array(keys, self.seeds[table])
                % np.uint64(self.per_table)).astype(np.int64)

    def rehash(self, depth: int) -> None:
        """Replace the seeds, for a rehash at chain ``depth``."""
        self.seeds = [mix64(s, 0xD1B54A32D192ED03 + depth)
                      for s in self.seeds]


def eviction_walk(layout: CuckooLayout, slots, key, lanes,
                  stats: TableStats | None = None) -> TableStats:
    """Insert ``key`` with its ``lanes``, counting the insert (its
    rehashes' re-inserts included) into ``stats`` (a fresh
    :class:`TableStats` by default), which it returns.

    ``slots`` is the backend, with these slot operations:
    ``key_at(t, i)`` reads a key; ``refresh(t, i, lanes)`` rewrites a
    resident key's lanes; ``swap(t, i, key)`` writes a key and returns
    the one it displaced (``atomicExch``); ``move(t, i, lanes)`` returns
    a slot's lane words and writes ``lanes`` there (unless ``None``);
    ``charge_lock(chain)`` ends a chain's critical section;
    ``take_all(depth)`` empties both tables for a rehash and returns
    their ``(table, slot, key, lanes)`` entries, table 0's first.
    """
    stats = TableStats() if stats is None else stats
    stats.inserts += 1
    _walk(layout, slots, key, lanes, 0, stats)
    return stats


def _walk(layout: CuckooLayout, slots, key, lanes, depth: int,
          stats: TableStats) -> None:
    # Recovery idempotence: refresh in place if the key is already
    # resident (two reads; lookups are cheap and bounded).
    homes = (layout.index(0, key), layout.index(1, key))
    for t in (0, 1):
        if slots.key_at(t, homes[t]) == key:
            slots.refresh(t, homes[t], lanes)
            return
    table = 0
    for chain in range(layout.max_chain + 1):
        idx = layout.index(table, key)
        old_key = slots.swap(table, idx, key)
        # An entry lookup never reads is dropped and ends the chain: the
        # carried key's other copy (table 0's stays: the slot's in table
        # 0, the carried one in table 1), or a stray off its home slot.
        own = old_key == key
        old_lanes = slots.move(table, idx, None if own and table == 0
                               else lanes)
        stats.probes += 1
        if (own or old_key == EMPTY_KEY
                or layout.index(table, old_key) != idx):
            stats.note_chain(chain + 1)
            slots.charge_lock(chain + 1)
            return
        stats.collisions += 1
        key, lanes, table = old_key, old_lanes, table ^ 1

    # Cycle detected: rehash with fresh seeds and retry the orphan.
    slots.charge_lock(layout.max_chain + 1)
    if depth >= MAX_REHASH_ATTEMPTS:
        raise RehashLimitError(
            f"cuckoo table rehashed {depth} times without converging")
    stats.rehashes += 1
    # Re-insert what lookup reads: entries on their home slots, and of
    # a key on both, table 0's (``take_all`` lists table 0 first). The
    # orphan, evicted from its home in table ``table ^ 1``, goes last.
    entries = [(k, v) for t, i, k, v in slots.take_all(depth)
               if layout.index(t, k) == i]
    layout.rehash(depth)
    placed = set()
    for old_key, old_lanes in entries:
        if old_key not in placed:
            placed.add(old_key)
            _walk(layout, slots, old_key, old_lanes, depth + 1, stats)
    if table == 1 or key not in placed:
        _walk(layout, slots, key, lanes, depth + 1, stats)


class CuckooTable(ChecksumTable):
    """Standard two-table cuckoo hash for per-block checksums."""

    kind = TableKind.CUCKOO
    #: Hash seed a table built without one derives both tables' from.
    SEED = 0x2545F491

    def __init__(
        self,
        memory: GlobalMemory,
        name: str,
        n_keys: int,
        n_lanes: int,
        config: LPConfig,
        cost_model: CostModel | None = None,
        seed: int = SEED,
        max_chain: int = DEFAULT_MAX_CHAIN,
        perfect_hash: bool = False,
    ) -> None:
        super().__init__(memory, name, n_keys, n_lanes, config, cost_model)
        per_table = self.slots_for(
            n_keys, config.cuckoo_target_load_factor, perfect_hash)
        self.per_table_capacity = per_table
        self.capacity = 2 * per_table
        self.layout = CuckooLayout(per_table, seed, max_chain, perfect_hash)
        self._keys = [self._alloc(f"keys{t}", (per_table,), fill=EMPTY_KEY)
                      for t in (0, 1)]
        self._lanes = [self._alloc(f"lanes{t}", (per_table * n_lanes,),
                                   fill=EMPTY_KEY) for t in (0, 1)]
        self._protocol = InsertionProtocol(config, self.cost_model, n_keys)

    def reset(self) -> None:
        """Re-seed the buffers and undo any rehash: the hash seeds a
        fresh table starts from go with its empty slots."""
        super().reset()
        self.layout.seeds = self.layout.initial_seeds

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    @staticmethod
    def slots_for(n_keys: int, load_factor: float,
                  perfect_hash: bool = False) -> int:
        """Slots *per table*: a power of two keeping the combined load
        factor ``n_keys / (2 * slots)`` under ``load_factor`` (at least
        ``n_keys`` under ``perfect_hash``)."""
        if perfect_hash:
            return pow2_ceil(n_keys)
        return pow2_ceil(int(np.ceil(n_keys / (2 * load_factor))))

    @classmethod
    def space_for(cls, n_keys: int, n_lanes: int, config: LPConfig,
                  perfect_hash: bool = False) -> int:
        """Two tables of a key word and ``n_lanes`` lane words per slot."""
        slots = cls.slots_for(n_keys, config.cuckoo_target_load_factor,
                              perfect_hash)
        return 2 * slots * (1 + n_lanes) * WORD_BYTES

    # ------------------------------------------------------------------
    # Device-side insertion
    # ------------------------------------------------------------------

    def insert(self, row: BatchBlockContext, key: int, lanes: np.ndarray) -> None:
        self._add_insert(eviction_walk(
            self.layout, _DeviceSlots(self, row), np.uint64(key),
            np.asarray(lanes, dtype=np.uint64)))

    # ------------------------------------------------------------------
    # Host-side lookup (recovery path)
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> np.ndarray | None:
        key64 = np.uint64(key)
        for t in (0, 1):
            idx = self.layout.index(t, key)
            if self._keys[t].array[idx] == key64:
                base = idx * self.n_lanes
                self._count_lookups(1, 0)
                return self._lanes[t].array[base:base + self.n_lanes].copy()
        self._count_lookups(1, 1)
        return None

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized exactly-two-probe lookup over both tables.

        Probes table 0 for every key, then table 1 only for the keys
        table 0 missed — the same first-match preference as the scalar
        loop, which matters when a crash leaves a stale copy of a key
        in both tables.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        n = keys.size
        lanes = np.full((n, self.n_lanes), EMPTY_KEY, dtype=np.uint64)
        found = np.zeros(n, dtype=bool)
        if n == 0:
            return lanes, found
        keys64 = keys.astype(np.uint64)
        lane_off = np.arange(self.n_lanes)
        for t in (0, 1):
            pending = np.flatnonzero(~found)
            if pending.size == 0:
                break
            idx = self.layout.indices(t, keys64[pending])
            is_key = self._keys[t].array[idx] == keys64[pending]
            if is_key.any():
                hit = pending[is_key]
                base = idx[is_key][:, None] * self.n_lanes + lane_off
                lanes[hit] = self._lanes[t].array[base]
                found[hit] = True
        self._count_lookups(n, int(n - np.count_nonzero(found)))
        return lanes, found


@dataclass
class _DeviceSlots:
    """:func:`eviction_walk`'s slot operations on the device: each a
    load, store or swap issued on ``row``, in the walk's order, so the
    block's tally, cache traffic and crash image are the walk's own."""

    table: CuckooTable
    row: BatchBlockContext

    def key_at(self, t: int, idx: int) -> np.uint64:
        return self.row.ld(self.table._keys[t], [[idx]])[0, 0]

    def refresh(self, t: int, idx: int, lanes: np.ndarray) -> None:
        self.row.st(self.table._lanes[t], self.table._lane_slice([idx]), lanes)
        self.charge_lock(1)

    def swap(self, t: int, idx: int, key: np.uint64) -> np.uint64:
        return self.table._protocol.swap(self.row, self.table._keys[t], idx,
                                         key)

    def move(self, t: int, idx: int, lanes: np.ndarray | None) -> np.ndarray:
        buf, words = self.table._lanes[t], self.table._lane_slice([idx])
        old = self.row.ld(buf, words)[0]
        if lanes is not None:
            self.row.st(buf, words, lanes)
        return old

    def charge_lock(self, chain: int) -> None:
        self.table._protocol.charge_lock(self.row, chain)

    def take_all(self, depth: int) -> list[tuple]:
        table = self.table
        _recorder().trace.instant(
            "table.rehash", cat="table", track="table",
            table=table.kind.value, depth=depth,
        )
        entries = []
        for t in (0, 1):
            keys = table._keys[t].array
            lanes = table._lanes[t].array.reshape(-1, table.n_lanes)
            entries += [(t, idx, keys[idx], lanes[idx].copy())
                        for idx in np.flatnonzero(keys != EMPTY_KEY)]
            # Clearing the tables is real device traffic.
            self.row.st(table._keys[t], [np.arange(keys.size)], EMPTY_KEY)
            self.row.st(table._lanes[t], [np.arange(lanes.size)], EMPTY_KEY)
        return entries
