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
"""

from __future__ import annotations

import numpy as np

from repro.core.config import LPConfig, TableKind
from repro.core.tables.base import (
    EMPTY_KEY,
    WORD_BYTES,
    ChecksumTable,
    mix64,
    mix64_array,
    pow2_ceil,
)
from repro.core.tables.locks import InsertionProtocol
from repro.errors import RehashLimitError
from repro.gpu.costs import CostModel
from repro.gpu.kernel import BlockContext
from repro.gpu.memory import GlobalMemory
from repro.obs import current as _recorder

#: Eviction-chain length that declares a cycle and forces a rehash.
DEFAULT_MAX_CHAIN = 48
#: Consecutive rehash attempts before giving up.
MAX_REHASH_ATTEMPTS = 16


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
        self.perfect_hash = perfect_hash
        per_table = self.slots_for(
            n_keys, config.cuckoo_target_load_factor, perfect_hash)
        self.per_table_capacity = per_table
        self.capacity = 2 * per_table
        self.max_chain = max_chain
        self._initial_seeds = self.seeds_for(seed)
        self._seeds = list(self._initial_seeds)
        self._keys = [
            self._alloc("keys0", (per_table,), np.uint64, fill=EMPTY_KEY),
            self._alloc("keys1", (per_table,), np.uint64, fill=EMPTY_KEY),
        ]
        self._lanes = [
            self._alloc("lanes0", (per_table * n_lanes,), np.uint64,
                        fill=EMPTY_KEY),
            self._alloc("lanes1", (per_table * n_lanes,), np.uint64,
                        fill=EMPTY_KEY),
        ]
        self._protocol = InsertionProtocol(config, self.cost_model, n_keys)

    def reset(self) -> None:
        """Re-seed the buffers and undo any rehash: the hash seeds a
        fresh table starts from go with its empty slots."""
        super().reset()
        self._seeds = list(self._initial_seeds)

    # ------------------------------------------------------------------
    # Sizing and seeds (shared with the host-side insertion model)
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

    @staticmethod
    def seeds_for(seed: int) -> tuple[int, int]:
        """The two tables' hash seeds, derived from one."""
        return seed, seed ^ 0x6A09E667F3BCC909

    @staticmethod
    def rehash_seeds(seeds, depth: int) -> list[int]:
        """The seeds after a rehash at chain ``depth``."""
        return [mix64(s, 0xD1B54A32D192ED03 + depth) for s in seeds]

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------

    def _index(self, table: int, key: int) -> int:
        if self.perfect_hash:
            return int(key) % self.per_table_capacity
        return mix64(int(key), self._seeds[table]) % self.per_table_capacity

    # ------------------------------------------------------------------
    # Device-side insertion
    # ------------------------------------------------------------------

    def insert(self, ctx: BlockContext, key: int, lanes: np.ndarray) -> None:
        self.stats.inserts += 1
        marker = self._stats_marker()
        try:
            self._insert_inner(ctx, np.uint64(key),
                               np.asarray(lanes, dtype=np.uint64), depth=0)
        finally:
            # Rehash recursion goes through _insert_inner, so the whole
            # chain (evictions, rebuild reinserts) publishes as one
            # insert's delta here.
            self._publish_insert(marker)

    def _insert_inner(
        self, ctx: BlockContext, key: np.uint64, lanes: np.ndarray, depth: int
    ) -> None:
        # Recovery idempotence: refresh in place if the key is already
        # resident (two reads; lookups are cheap and bounded).
        for t in (0, 1):
            idx = self._index(t, int(key))
            if ctx.ld(self._keys[t], idx)[0] == key:
                ctx.st(self._lanes[t], self._lane_slice(idx), lanes)
                self._protocol.charge_lock(ctx, 1)
                return

        cur_key, cur_lanes = key, lanes
        table = 0
        chain = 0
        while chain <= self.max_chain:
            idx = self._index(table, int(cur_key))
            old_key = self._protocol.swap(ctx, self._keys[table], idx, cur_key)
            old_lanes = ctx.ld(self._lanes[table], self._lane_slice(idx))
            ctx.st(self._lanes[table], self._lane_slice(idx), cur_lanes)
            self.stats.probes += 1
            if old_key == EMPTY_KEY:
                self.stats.note_chain(chain + 1)
                self._protocol.charge_lock(ctx, chain + 1)
                return
            self.stats.collisions += 1
            cur_key, cur_lanes = old_key, old_lanes.copy()
            table ^= 1
            chain += 1

        # Cycle detected: rehash with fresh seeds and retry the orphan.
        self._protocol.charge_lock(ctx, chain)
        self._rehash(ctx, depth)
        self._insert_inner(ctx, cur_key, cur_lanes, depth + 1)

    def _rehash(self, ctx: BlockContext, depth: int) -> None:
        if depth >= MAX_REHASH_ATTEMPTS:
            raise RehashLimitError(
                f"cuckoo table {self.name!r} rehashed {depth} times "
                "without converging"
            )
        self.stats.rehashes += 1
        _recorder().trace.instant(
            "table.rehash", cat="table", track="table",
            table=self.kind.value, depth=depth,
        )
        entries: list[tuple[np.uint64, np.ndarray]] = []
        for t in (0, 1):
            keys = self._keys[t].array
            lanes = self._lanes[t].array
            occupied = np.flatnonzero(keys != EMPTY_KEY)
            for idx in occupied:
                base = int(idx) * self.n_lanes
                entries.append(
                    (np.uint64(keys[idx]),
                     lanes[base:base + self.n_lanes].copy())
                )
            # Clearing the tables is real device traffic.
            all_idx = np.arange(self.per_table_capacity)
            ctx.st(self._keys[t], all_idx, EMPTY_KEY)
            ctx.st(self._lanes[t], np.arange(lanes.size), EMPTY_KEY)

        self._seeds = self.rehash_seeds(self._seeds, depth)
        for old_key, old_lanes in entries:
            self._insert_inner(ctx, old_key, old_lanes, depth + 1)

    # ------------------------------------------------------------------
    # Host-side lookup (recovery path)
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> np.ndarray | None:
        key64 = np.uint64(key)
        self.stats.lookups += 1
        for t in (0, 1):
            idx = self._index(t, int(key))
            if self._keys[t].array[idx] == key64:
                base = idx * self.n_lanes
                self._publish_lookup(found=True)
                return self._lanes[t].array[base:base + self.n_lanes].copy()
        self.stats.failed_lookups += 1
        self._publish_lookup(found=False)
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
            if self.perfect_hash:
                idx = (keys64[pending]
                       % np.uint64(self.per_table_capacity)).astype(np.int64)
            else:
                idx = (mix64_array(keys64[pending], self._seeds[t])
                       % np.uint64(self.per_table_capacity)).astype(np.int64)
            is_key = self._keys[t].array[idx] == keys64[pending]
            if is_key.any():
                hit = pending[is_key]
                base = idx[is_key][:, None] * self.n_lanes + lane_off
                lanes[hit] = self._lanes[t].array[base]
                found[hit] = True
        self.stats.lookups += n
        n_failed = int(n - np.count_nonzero(found))
        self.stats.failed_lookups += n_failed
        self._publish_lookup_many(n, n_failed)
        return lanes, found
