"""Host-side checksum-table insertion at paper scale.

Table II's collision counts (and the insertion-cost terms of Figure 5
and Tables III-IV) require inserting the paper-scale key sets — up to
SAD's 128 640 block ids — into the hash tables. Running those through
the full functional device (line tracking, atomic accounting) would be
needlessly slow for a statistic that only depends on the probing logic,
so this module runs the tables' own walks —
:func:`~repro.core.tables.quadratic.probe_walk` and
:func:`~repro.core.tables.cuckoo.eviction_walk` — on host key arrays,
with no device and no lane words. It implements no walk of its own;
table sizes and hash seeds come from the table classes too.

The host slot operations refuse what unique block ids cannot do: a key
already resident, or met again by an eviction chain or a rehash. Results
are memoized per (kind, n_keys, options).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import LPConfig, TableKind
from repro.core.tables.base import EMPTY_KEY, TableStats
from repro.core.tables.cuckoo import (
    DEFAULT_MAX_CHAIN,
    CuckooLayout,
    CuckooTable,
    eviction_walk,
)
from repro.core.tables.quadratic import QuadraticTable, home_slots, probe_walk
from repro.errors import TableError


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
    """Block ids ``0..n_keys-1`` through the quadratic probe walk."""
    capacity = QuadraticTable.slots_for(n_keys, target_load_factor,
                                        perfect_hash)
    slots = np.full(capacity, EMPTY_KEY, dtype=np.uint64)

    def claim(idx: int, key: int) -> np.uint64:
        old = slots[idx]
        if old == EMPTY_KEY:
            slots[idx] = key
        elif old == key:
            raise TableError(f"block id {key} inserted twice")
        return old

    homes = home_slots(np.arange(n_keys, dtype=np.uint64), capacity, seed,
                       perfect_hash).tolist()
    stats = TableStats()
    for key in range(n_keys):
        probe_walk(capacity, homes[key], key, claim, stats)
    return InsertSim(TableKind.QUADRATIC, n_keys, capacity, stats.probes,
                     stats.collisions, 0, stats.max_chain)


#: The host tables' empty slot: :data:`EMPTY_KEY` as a Python int.
_EMPTY = int(EMPTY_KEY)


class _HostCuckoo(CuckooLayout):
    """Block ids ``0..n_keys-1`` on two host key lists: the eviction
    walk's layout (every id hashed at once per seed set) and its slot
    operations, with no device and no lane words. Slots hold Python
    ints (:data:`_EMPTY` when free), so a probe reads no numpy scalar.
    Block ids are unique, so a key met twice is refused, not assumed
    away."""

    def __init__(self, n_keys: int, per_table: int, *args) -> None:
        super().__init__(per_table, *args)
        self.ids = np.arange(n_keys, dtype=np.uint64)
        self.keys = [[_EMPTY] * per_table for _ in (0, 1)]
        self._hash()

    def _hash(self) -> None:
        self._slots = [self.indices(t, self.ids).tolist() for t in (0, 1)]

    def rehash(self, depth: int) -> None:
        super().rehash(depth)
        self._hash()

    def index(self, table: int, key: int) -> int:
        return self._slots[table][key]

    def key_at(self, t: int, idx: int) -> int:
        return self.keys[t][idx]

    def refresh(self, t: int, idx: int, lanes) -> None:
        raise TableError(f"block id {self.keys[t][idx]} inserted twice")

    def swap(self, t: int, idx: int, key: int) -> int:
        keys = self.keys[t]
        old = keys[idx]
        if old == key:
            raise TableError(f"an eviction chain met block id {key} twice")
        keys[idx] = key
        return old

    def move(self, t: int, idx: int, lanes) -> None:
        return None

    def charge_lock(self, chain: int) -> None:
        pass

    def take_all(self, depth: int) -> list[tuple]:
        entries = [(t, idx, key, None) for t in (0, 1)
                   for idx, key in enumerate(self.keys[t]) if key != _EMPTY]
        if not {e[2] for e in entries if e[0] == 0}.isdisjoint(
                e[2] for e in entries if e[0] == 1):
            raise TableError("a rehash found a block id in both tables")
        self.keys = [[_EMPTY] * self.per_table for _ in (0, 1)]
        return entries


def simulate_cuckoo(
    n_keys: int,
    target_load_factor: float = 0.45,
    seed: int = CuckooTable.SEED,
    max_chain: int = DEFAULT_MAX_CHAIN,
    perfect_hash: bool = False,
) -> InsertSim:
    """Block ids ``0..n_keys-1`` through the cuckoo eviction walk."""
    per_table = CuckooTable.slots_for(n_keys, target_load_factor,
                                      perfect_hash)
    host = _HostCuckoo(n_keys, per_table, seed, max_chain, perfect_hash)
    stats = TableStats()
    for key in range(n_keys):
        eviction_walk(host, host, key, None, stats)
    return InsertSim(TableKind.CUCKOO, n_keys, 2 * per_table, stats.probes,
                     stats.collisions, stats.rehashes, stats.max_chain)


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
    if key not in _CACHE:
        if config.table is TableKind.QUADRATIC:
            sim = simulate_quadratic(n_keys, config.quad_target_load_factor,
                                     perfect_hash=perfect_hash)
        elif config.table is TableKind.CUCKOO:
            sim = simulate_cuckoo(n_keys, config.cuckoo_target_load_factor,
                                  perfect_hash=perfect_hash)
        else:
            sim = InsertSim(TableKind.GLOBAL_ARRAY, n_keys, n_keys,
                            n_keys, 0, 0, 1)
        _CACHE[key] = sim
    return _CACHE[key]
