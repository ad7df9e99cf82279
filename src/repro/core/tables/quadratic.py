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
from repro.errors import TableFullError
from repro.gpu.costs import CostModel
from repro.gpu.kernel import BlockContext
from repro.gpu.memory import GlobalMemory


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
    # Hashing
    # ------------------------------------------------------------------

    def _home_index(self, key: int) -> int:
        if self.perfect_hash:
            return int(key) % self.capacity
        return mix64(int(key), self.seed) % self.capacity

    def _probe_index(self, home: int, i: int) -> int:
        return (home + i * i) % self.capacity

    # ------------------------------------------------------------------
    # Device-side insertion
    # ------------------------------------------------------------------

    def insert(self, ctx: BlockContext, key: int, lanes: np.ndarray) -> None:
        marker = self._stats_marker()
        try:
            self._insert_impl(ctx, key, lanes)
        finally:
            self._publish_insert(marker)

    def _insert_impl(self, ctx: BlockContext, key: int,
                     lanes: np.ndarray) -> None:
        key64 = np.uint64(key)
        home = self._home_index(key)
        self.stats.inserts += 1

        collisions_this = 0
        for i in range(self.capacity + 1):
            idx = self._probe_index(home, i)
            old = self._protocol.claim_if_empty(
                ctx, self._keys, idx, EMPTY_KEY, key64
            )
            self.stats.probes += 1
            if old == EMPTY_KEY or old == key64:
                # Won an empty slot, or found our own entry (recovery
                # re-insertion): write/refresh the lane words.
                ctx.st(self._lanes, self._lane_slice(idx), lanes)
                self.stats.collisions += collisions_this
                self.stats.note_chain(collisions_this + 1)
                self._protocol.charge_lock(ctx, collisions_this + 1)
                return
            collisions_this += 1

        # With a power-of-two capacity the pure i**2 walk does not visit
        # every slot; fall back to a linear sweep so a non-full table
        # can never spuriously fail (the sweep is astronomically rare at
        # the configured load factor and still counts its collisions).
        for idx in range(self.capacity):
            old = self._protocol.claim_if_empty(
                ctx, self._keys, idx, EMPTY_KEY, key64
            )
            self.stats.probes += 1
            if old == EMPTY_KEY or old == key64:
                ctx.st(self._lanes, self._lane_slice(idx), lanes)
                self.stats.collisions += collisions_this
                self.stats.note_chain(collisions_this + 1)
                self._protocol.charge_lock(ctx, collisions_this + 1)
                return
            collisions_this += 1
        raise TableFullError(
            f"quadratic table {self.name!r} found no slot for key {key} "
            f"(capacity {self.capacity}, inserts {self.stats.inserts})"
        )

    # ------------------------------------------------------------------
    # Host-side lookup (recovery path, reads the persisted image)
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> np.ndarray | None:
        key64 = np.uint64(key)
        home = self._home_index(key)
        keys_img = self._keys.array
        lanes_img = self._lanes.array
        self.stats.lookups += 1
        hit_empty = False
        for i in range(self.capacity + 1):
            idx = self._probe_index(home, i)
            slot = keys_img[idx]
            if slot == key64:
                base = idx * self.n_lanes
                self._publish_lookup(found=True)
                return lanes_img[base:base + self.n_lanes].copy()
            if slot == EMPTY_KEY:
                hit_empty = True
                break
        if not hit_empty:
            # Mirror the insert path's linear fallback sweep.
            hits = np.flatnonzero(keys_img == key64)
            if hits.size:
                base = int(hits[0]) * self.n_lanes
                self._publish_lookup(found=True)
                return lanes_img[base:base + self.n_lanes].copy()
        self.stats.failed_lookups += 1
        self._publish_lookup(found=False)
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
        if self.perfect_hash:
            home = (keys64 % np.uint64(self.capacity)).astype(np.int64)
        else:
            home = (mix64_array(keys64, self.seed)
                    % np.uint64(self.capacity)).astype(np.int64)
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
        self.stats.lookups += n
        n_failed = int(n - np.count_nonzero(found))
        self.stats.failed_lookups += n_failed
        self._publish_lookup_many(n, n_failed)
        return lanes, found
