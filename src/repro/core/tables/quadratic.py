"""Open-addressing checksum table with quadratic probing (Fig. 3 right).

On a collision at probe ``i``, the next candidate index adds ``i**2``
to the original hash — the paper's ``+1, +4, +9, ...`` walk. Slots are
claimed with ``atomicCAS`` (lock-free) so two blocks can never both win
the same empty slot.

Known limitations the paper calls out, both reproduced here:

* worst-case insertion time is unbounded in collisions (the stats track
  the longest chain);
* behaviour degrades past ~70 % load factor, hence the sizing policy
  targets :attr:`~repro.core.config.LPConfig.quad_target_load_factor`.

The ``perfect_hash`` flag implements the Section IV-D-2 ablation: the
first probed slot is always empty (hashing block ids identically into a
table of at least ``n_keys`` slots), isolating how much of the overhead
is collision-induced.

The probe walk exists once, :func:`probe_walk`, reaching the key array
only through ``claim``: the table's claims on the block's row,
:mod:`repro.bench.insertsim`'s on a host array. A walk stops at the
first slot that is empty or already holds its key, so a recovery
re-insert refreshes the copy :meth:`~QuadraticTable.lookup` reads.
"""

from __future__ import annotations

from collections.abc import Callable

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
from repro.errors import TableFullError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import CostModel
from repro.gpu.memory import GlobalMemory


def home_slots(keys: np.ndarray, capacity: int, seed: int,
               perfect_hash: bool = False) -> np.ndarray:
    """Where each of ``keys`` (uint64) starts its probe walk."""
    if perfect_hash:
        return (keys % np.uint64(capacity)).astype(np.int64)
    return (mix64_array(keys, seed) % np.uint64(capacity)).astype(np.int64)


def probe_walk(capacity: int, home: int, key,
               claim: Callable[[int, object], np.uint64],
               stats: TableStats | None = None) -> tuple[int, TableStats]:
    """One insert's walk, counted into ``stats`` (fresh by default):
    ``(slot, stats)``.

    Probe ``i`` is slot ``home + i**2`` for ``i`` in ``0..capacity``,
    then a sweep of every slot (a power-of-two capacity keeps the pure
    ``i**2`` walk off some). ``claim(slot, key)`` writes ``key`` into an
    empty slot and returns what the slot held (``atomicCAS``); the walk
    stops at an empty slot or one already holding ``key``.
    """
    for i in range(2 * capacity + 1):
        idx = (home + i * i) % capacity if i <= capacity else i - capacity - 1
        old = claim(idx, key)
        if old == EMPTY_KEY or old == key:
            stats = TableStats() if stats is None else stats
            stats.inserts += 1
            stats.probes += i + 1
            stats.collisions += i
            stats.note_chain(i + 1)
            return idx, stats
    raise TableFullError(
        f"quadratic table of {capacity} slots found no slot for key {key}")


class QuadraticTable(ChecksumTable):
    """Quadratic-probing open-addressing checksum table."""

    kind = TableKind.QUADRATIC
    #: Hash seed of a table built without one.
    SEED = 0x9E3779B9

    def __init__(
        self,
        memory: GlobalMemory,
        name: str,
        n_keys: int,
        n_lanes: int,
        config: LPConfig,
        cost_model: CostModel | None = None,
        seed: int = SEED,
        perfect_hash: bool = False,
    ) -> None:
        super().__init__(memory, name, n_keys, n_lanes, config, cost_model)
        self.perfect_hash = perfect_hash
        self.capacity = self.slots_for(
            n_keys, config.quad_target_load_factor, perfect_hash)
        self.seed = seed
        self._keys = self._alloc("keys", (self.capacity,), np.uint64,
                                 fill=EMPTY_KEY)
        # Lane words are initialized to the all-ones sentinel (the
        # paper's NaN-initialized checksums): if an entry's key line
        # persists but its lane line is lost in a crash, the stale
        # initialization must never masquerade as a valid checksum —
        # in particular not as the checksum of all-zero (also lost)
        # data, which a zero fill would.
        self._lanes = self._alloc("lanes", (self.capacity * n_lanes,),
                                  np.uint64, fill=EMPTY_KEY)
        self._protocol = InsertionProtocol(config, self.cost_model, n_keys)

    @staticmethod
    def slots_for(n_keys: int, load_factor: float,
                  perfect_hash: bool = False) -> int:
        """The sizing policy: a power of two keeping ``n_keys`` under
        ``load_factor`` (at least ``n_keys`` slots under
        ``perfect_hash``)."""
        if perfect_hash:
            return pow2_ceil(n_keys)
        return pow2_ceil(int(np.ceil(n_keys / load_factor)))

    @classmethod
    def space_for(cls, n_keys: int, n_lanes: int, config: LPConfig,
                  perfect_hash: bool = False) -> int:
        """A key word and ``n_lanes`` lane words per slot."""
        slots = cls.slots_for(n_keys, config.quad_target_load_factor,
                              perfect_hash)
        return slots * (1 + n_lanes) * WORD_BYTES

    # ------------------------------------------------------------------
    # Device-side insertion
    # ------------------------------------------------------------------

    def insert(self, row: BatchBlockContext, key: int, lanes: np.ndarray) -> None:
        def claim(idx: int, key64: np.uint64) -> np.uint64:
            return self._protocol.claim_if_empty(row, self._keys, idx,
                                                 EMPTY_KEY, key64)

        # Won an empty slot, or found our own entry (recovery
        # re-insertion): write/refresh the lane words.
        idx, delta = probe_walk(self.capacity, self._home_index(key),
                                np.uint64(key), claim)
        row.st(self._lanes, self._lane_slice([idx]), lanes)
        self._protocol.charge_lock(row, delta.probes)
        self._add_insert(delta)

    def _home_index(self, key: int) -> int:
        if self.perfect_hash:
            return int(key) % self.capacity
        return mix64(int(key), self.seed) % self.capacity

    # ------------------------------------------------------------------
    # Host-side lookup (recovery path, reads the persisted image)
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> np.ndarray | None:
        key64 = np.uint64(key)
        home = self._home_index(key)
        keys_img = self._keys.array
        lanes_img = self._lanes.array
        hit_empty = False
        for i in range(self.capacity + 1):
            idx = (home + i * i) % self.capacity
            slot = keys_img[idx]
            if slot == key64:
                base = idx * self.n_lanes
                self._count_lookups(1, 0)
                return lanes_img[base:base + self.n_lanes].copy()
            if slot == EMPTY_KEY:
                hit_empty = True
                break
        if not hit_empty:
            # Mirror the insert path's linear fallback sweep.
            hits = np.flatnonzero(keys_img == key64)
            if hits.size:
                base = int(hits[0]) * self.n_lanes
                self._count_lookups(1, 0)
                return lanes_img[base:base + self.n_lanes].copy()
        self._count_lookups(1, 1)
        return None

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized probe walk: one probe step over all unresolved keys.

        The loop runs over probe *steps* (bounded by the longest chain
        actually present, rarely more than a handful at the configured
        load factor) while each step's slot reads, key compares and
        empty checks are whole-array operations. Keys that neither match
        nor hit an empty slot within the quadratic walk fall back to the
        same linear sweep the insert path uses.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        n = keys.size
        lanes = np.full((n, self.n_lanes), EMPTY_KEY, dtype=np.uint64)
        found = np.zeros(n, dtype=bool)
        if n == 0:
            return lanes, found
        keys64 = keys.astype(np.uint64)
        home = home_slots(keys64, self.capacity, self.seed, self.perfect_hash)
        keys_img = self._keys.array
        lanes_img = self._lanes.array
        lane_off = np.arange(self.n_lanes)
        pending = np.arange(n)
        for i in range(self.capacity + 1):
            if pending.size == 0:
                break
            idx = (home[pending] + i * i) % self.capacity
            slot = keys_img[idx]
            is_key = slot == keys64[pending]
            if is_key.any():
                hit = pending[is_key]
                base = idx[is_key][:, None] * self.n_lanes + lane_off
                lanes[hit] = lanes_img[base]
                found[hit] = True
            # A key stops at its match or at the first empty slot —
            # exactly the scalar probe loop's exit conditions.
            pending = pending[~(is_key | (slot == EMPTY_KEY))]
        for j in pending.tolist():
            hits = np.flatnonzero(keys_img == keys64[j])
            if hits.size:
                base = int(hits[0]) * self.n_lanes
                lanes[j] = lanes_img[base:base + self.n_lanes]
                found[j] = True
        self._count_lookups(n, int(n - np.count_nonzero(found)))
        return lanes, found
