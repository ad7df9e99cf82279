"""Fast host-side simulation of checksum-table insertion at paper scale.

Table II's collision counts (and the insertion-cost terms of Figure 5
and Tables III-IV) require inserting the paper-scale key sets — up to
SAD's 128 640 block ids — into the hash tables. Running those through
the full functional device (line tracking, atomic accounting) would be
needlessly slow for a statistic that only depends on the probing logic,
so this module re-implements *exactly* the probe/eviction walks of
:mod:`repro.core.tables` on host arrays. Table sizes and hash seeds
are not re-implemented: they come from the table classes themselves
(``slots_for``, ``seeds_for``, ``rehash_seeds``).

Fidelity is pinned by tests: for equal (keys, seeds, capacity) the
counts here must equal the functional tables' ``TableStats``.
Results are memoized per (kind, n_keys, options).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LPConfig, TableKind
from repro.core.tables.base import mix64
from repro.core.tables.cuckoo import (
    DEFAULT_MAX_CHAIN,
    MAX_REHASH_ATTEMPTS,
    CuckooTable,
)
from repro.core.tables.quadratic import QuadraticTable
from repro.errors import RehashLimitError, TableFullError

#: uint64 empty sentinel as a Python int (host arrays use -1 via object
#: comparison-free int64 space; we use -1 in int64 arrays).
_EMPTY = -1


@dataclass(frozen=True)
class InsertSim:
    """Aggregate insertion statistics of one simulated table fill."""

    kind: TableKind
    n_keys: int
    capacity: int
    probes: int
    collisions: int
    rehashes: int
    max_chain: int

    @property
    def load_factor(self) -> float:
        """Final occupancy."""
        return self.n_keys / self.capacity

    @property
    def collisions_per_insert(self) -> float:
        """Average extra probes per insertion."""
        return self.collisions / max(self.n_keys, 1)


def simulate_quadratic(
    n_keys: int,
    target_load_factor: float = 0.70,
    seed: int = QuadraticTable.SEED,
    perfect_hash: bool = False,
) -> InsertSim:
    """Replay :class:`~repro.core.tables.quadratic.QuadraticTable`."""
    capacity = QuadraticTable.slots_for(n_keys, target_load_factor,
                                        perfect_hash)
    slots = np.full(capacity, _EMPTY, dtype=np.int64)

    probes = collisions = max_chain = 0
    for key in range(n_keys):
        home = key % capacity if perfect_hash else mix64(key, seed) % capacity
        placed = False
        chain = 0
        for i in range(capacity + 1):
            idx = (home + i * i) % capacity
            probes += 1
            if slots[idx] == _EMPTY:
                slots[idx] = key
                placed = True
                break
            collisions += 1
            chain += 1
        if not placed:
            for idx in range(capacity):
                probes += 1
                if slots[idx] == _EMPTY:
                    slots[idx] = key
                    placed = True
                    break
                collisions += 1
                chain += 1
        if not placed:
            raise TableFullError(f"quadratic sim full at key {key}")
        max_chain = max(max_chain, chain + 1)

    return InsertSim(TableKind.QUADRATIC, n_keys, capacity,
                     probes, collisions, 0, max_chain)


def simulate_cuckoo(
    n_keys: int,
    target_load_factor: float = 0.45,
    seed: int = CuckooTable.SEED,
    max_chain: int = DEFAULT_MAX_CHAIN,
    perfect_hash: bool = False,
) -> InsertSim:
    """Replay :class:`~repro.core.tables.cuckoo.CuckooTable`."""
    per_table = CuckooTable.slots_for(n_keys, target_load_factor,
                                      perfect_hash)
    tables = [
        np.full(per_table, _EMPTY, dtype=np.int64),
        np.full(per_table, _EMPTY, dtype=np.int64),
    ]
    seeds = list(CuckooTable.seeds_for(seed))
    stats = {"probes": 0, "collisions": 0, "rehashes": 0, "max_chain": 0}

    def index(t: int, key: int) -> int:
        if perfect_hash:
            return key % per_table
        return mix64(key, seeds[t]) % per_table

    def insert(key: int, depth: int) -> None:
        # (The functional table's refresh-in-place check never fires
        # for unique block ids, so it contributes no probes here.)
        cur = key
        table = 0
        chain = 0
        while chain <= max_chain:
            idx = index(table, cur)
            old = tables[table][idx]
            tables[table][idx] = cur
            stats["probes"] += 1
            if old == _EMPTY:
                stats["max_chain"] = max(stats["max_chain"], chain + 1)
                return
            stats["collisions"] += 1
            cur = int(old)
            table ^= 1
            chain += 1
        rehash(depth)
        insert(cur, depth + 1)

    def rehash(depth: int) -> None:
        if depth >= MAX_REHASH_ATTEMPTS:
            raise RehashLimitError("cuckoo sim rehashed too many times")
        stats["rehashes"] += 1
        entries: list[int] = []
        for t in (0, 1):
            live = tables[t][tables[t] != _EMPTY]
            entries.extend(int(k) for k in live)
            tables[t][:] = _EMPTY
        seeds[:] = CuckooTable.rehash_seeds(seeds, depth)
        for k in entries:
            insert(k, depth + 1)

    for key in range(n_keys):
        insert(key, 0)

    return InsertSim(TableKind.CUCKOO, n_keys, 2 * per_table,
                     stats["probes"], stats["collisions"],
                     stats["rehashes"], stats["max_chain"])


_CACHE: dict[tuple, InsertSim] = {}


def simulate_insertions(
    config: LPConfig, n_keys: int, perfect_hash: bool = False
) -> InsertSim:
    """Insertion statistics for ``config.table`` at ``n_keys`` keys.

    Memoized; the global array is collision-free by construction and
    returns a trivial record without simulation.
    """
    key = (config.table, n_keys, perfect_hash,
           round(config.quad_target_load_factor, 4),
           round(config.cuckoo_target_load_factor, 4))
    if key in _CACHE:
        return _CACHE[key]
    if config.table is TableKind.QUADRATIC:
        sim = simulate_quadratic(
            n_keys, config.quad_target_load_factor, perfect_hash=perfect_hash
        )
    elif config.table is TableKind.CUCKOO:
        sim = simulate_cuckoo(
            n_keys, config.cuckoo_target_load_factor,
            perfect_hash=perfect_hash,
        )
    else:
        sim = InsertSim(TableKind.GLOBAL_ARRAY, n_keys, n_keys,
                        n_keys, 0, 0, 1)
    _CACHE[key] = sim
    return sim
