"""Checksum-table interface, sizing policy, hashing and statistics.

A checksum table stores one entry per LP region (= thread block): the
region's key (its block id) and its checksum lane values. The table
itself lives in *persistent* device memory — its stores are just as
lazy as the data stores they protect, which is why LP needs no flush
instructions anywhere (Section II-A).

Three organizations are provided (Sections IV-C and V):

* :class:`~repro.core.tables.quadratic.QuadraticTable` — open
  addressing with quadratic probing, ``atomicCAS`` slot claims;
* :class:`~repro.core.tables.cuckoo.CuckooTable` — two-table cuckoo
  hashing, ``atomicExch`` eviction chains;
* :class:`~repro.core.tables.global_array.GlobalArrayTable` — the
  paper's contribution: a plain array indexed by block id. Collision-
  free, race-free, 100 % load factor.

Table buffers are named with the ``__lp_`` prefix so NVM write
statistics can attribute checksum traffic separately from application
data (the write-amplification study, Section VII-3).
"""

from __future__ import annotations

import abc
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.config import LPConfig, TableKind
from repro.errors import TableError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import CostModel
from repro.gpu.memory import Buffer, GlobalMemory
from repro.obs import current as _recorder

#: Key sentinel for an empty slot. Block ids are far below 2**64 - 1.
EMPTY_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Prefix of every table buffer name, for write-stats attribution.
TABLE_BUFFER_PREFIX = "__lp_"
#: Bytes of one table word (a key or a checksum lane).
WORD_BYTES = np.dtype(np.uint64).itemsize

_MASK64 = (1 << 64) - 1


def pow2_ceil(n: int) -> int:
    """Smallest power of two ≥ ``n`` (≥ 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def mix64(value: int, seed: int) -> int:
    """SplitMix64-style integer hash; full-period, well-distributed.

    Used as the hash function of both hash tables; ``seed`` selects a
    function from the family (cuckoo rehash picks fresh seeds).
    """
    x = (value + seed) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def mix64_array(values: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array."""
    x = (values.astype(np.uint64) + np.uint64(seed & _MASK64))
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


@dataclass(slots=True)
class TableStats:
    """Insertion/lookup statistics of one checksum table."""

    inserts: int = 0
    #: Probes that found an occupied slot (the paper's Table II metric).
    collisions: int = 0
    #: Total slots examined across all insertions.
    probes: int = 0
    #: Cuckoo rehash events.
    rehashes: int = 0
    lookups: int = 0
    failed_lookups: int = 0
    #: Longest probe / eviction chain seen for a single insert.
    max_chain: int = 0

    def note_chain(self, length: int) -> None:
        """Record the chain length of one insert."""
        self.max_chain = max(self.max_chain, length)

    def __iadd__(self, delta: "TableStats") -> "TableStats":
        """Fold in another count (one insert's delta, say); chains max."""
        for name in ("inserts", "collisions", "probes", "rehashes",
                     "lookups", "failed_lookups"):
            setattr(self, name, getattr(self, name) + getattr(delta, name))
        self.note_chain(delta.max_chain)
        return self

    def to_dict(self) -> dict:
        """All counters as one JSON-serializable dict."""
        return asdict(self)


class ChecksumTable(abc.ABC):
    """Device-resident checksum store for LP regions.

    Parameters
    ----------
    memory:
        The device global memory the table's buffers live in.
    name:
        Logical name; buffer names derive from it.
    n_keys:
        Number of regions (thread blocks) that will insert — known in
        advance, as the paper notes, which is what allows sizing the
        table to a safe load factor (or eliminating it entirely).
    n_lanes:
        Checksum words per entry.
    config:
        LP configuration (lock mode, atomic mode, load-factor targets).
    cost_model:
        Used for contention sub-models (lock convoys, emulated atomics).
    """

    kind: TableKind

    def __init__(
        self,
        memory: GlobalMemory,
        name: str,
        n_keys: int,
        n_lanes: int,
        config: LPConfig,
        cost_model: CostModel | None = None,
    ) -> None:
        if n_keys <= 0:
            raise TableError("a checksum table needs at least one key")
        if n_lanes <= 0:
            raise TableError("a checksum table needs at least one lane")
        self.memory = memory
        self.name = name
        self.n_keys = n_keys
        self.n_lanes = n_lanes
        self.config = config
        self.cost_model = cost_model or CostModel()
        self.stats = TableStats()
        self._buffers: list[Buffer] = []
        #: Seed word of each buffer, by name — what :meth:`reset` restores.
        self._fills: dict[str, np.generic] = {}

    # -- construction helpers -------------------------------------------

    def _alloc(self, suffix: str, shape, dtype=np.uint64, *, fill) -> Buffer:
        """Allocate one persistent table buffer (``__lp_`` namespaced),
        every word seeded with ``fill`` (the kind's empty sentinel)."""
        full = f"{TABLE_BUFFER_PREFIX}{self.name}_{suffix}"
        buf = self.memory.alloc(full, shape, dtype=dtype, persistent=True,
                                init=np.full(shape, fill, dtype=dtype))
        self._buffers.append(buf)
        self._fills[full] = fill
        return buf

    # -- abstract interface ----------------------------------------------

    @classmethod
    @abc.abstractmethod
    def space_for(cls, n_keys: int, n_lanes: int, config: LPConfig,
                  perfect_hash: bool = False) -> int:
        """Bytes a table of this kind allocates for ``n_keys`` regions —
        the sizing its constructor applies, for models that never build
        one."""

    @abc.abstractmethod
    def insert(self, row: BatchBlockContext, key: int, lanes: np.ndarray) -> None:
        """Insert (or refresh) a region's checksum from inside a block.

        Runs on the device, on the block's immediate ``row``: every load,
        store (one-row leading axis) and atomic lands as issued and is
        charged to the row. Re-inserting an existing key overwrites its
        lanes — which is exactly what recovery re-execution needs.
        """

    def insert_stores(self, keys: np.ndarray, lanes: np.ndarray):
        """Many regions' inserts as plain stores, when this kind allows.

        An insert that needs no read of the table is one store of its
        lane words, and a group of them commutes: this returns
        ``(buffer, idx, values)`` with one row per key for the caller to
        issue in one batched store (which charges its traffic), the
        inserts already counted in :attr:`stats` and the metrics.
        ``None`` (the default) means an insert here reads the table —
        probes, claims, evictions — so each must run in order through
        :meth:`insert`.
        """
        return None

    @abc.abstractmethod
    def lookup(self, key: int) -> np.ndarray | None:
        """Host-side lookup during crash recovery.

        Reads the *post-crash* (persisted) image. Returns the lane
        values or ``None`` if the key is absent — absence means the
        checksum store itself did not persist, so the region must be
        recovered. Lookups are off the critical path (Section IV-C).
        """

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized host-side lookup of many keys at once.

        Returns ``(lanes, found)``: a ``(len(keys), n_lanes)`` uint64
        array of lane values and a boolean presence mask. Rows whose
        ``found`` entry is ``False`` hold unspecified lane values.

        Result, statistics and metric totals are exactly those of
        calling :meth:`lookup` once per key — the table does not change
        between lookups of a validation pass, so batching them is pure
        reordering. This default delegates per key; the concrete tables
        override it with fancy-indexed / vectorized-probe fast paths.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        lanes = np.zeros((keys.size, self.n_lanes), dtype=np.uint64)
        found = np.zeros(keys.size, dtype=bool)
        for i, key in enumerate(keys.tolist()):
            got = self.lookup(int(key))
            if got is not None:
                lanes[i] = got
                found[i] = True
        return lanes, found

    # -- flight-recorder publication ---------------------------------------

    def _add_insert(self, delta: TableStats) -> None:
        """Count one insert's walk (its rehashes' re-inserts included)
        in :attr:`stats` and publish it as one insert."""
        self.stats += delta
        metrics = _recorder().metrics
        if not metrics.active:
            return
        label = self.kind.value
        metrics.inc("table.insert.count", table=label)
        if delta.probes:
            metrics.inc("table.insert.probes", delta.probes, table=label)
        if delta.collisions:
            metrics.inc("table.insert.collisions", delta.collisions,
                        table=label)
        if delta.rehashes:
            metrics.inc("table.rehashes", delta.rehashes, table=label)

    def _count_lookups(self, n: int, n_failed: int) -> None:
        """Count ``n`` lookups, ``n_failed`` of them misses, in
        :attr:`stats` and the metrics: one increment per series, so a
        batch publishes exactly what ``n`` scalar lookups would — the
        engine-invariance contract for vectorized validation."""
        self.stats.lookups += n
        self.stats.failed_lookups += n_failed
        metrics = _recorder().metrics
        if not metrics.active or n <= 0:
            return
        label = self.kind.value
        metrics.inc("table.lookup.count", n, table=label)
        if n_failed:
            metrics.inc("table.lookup.failed", n_failed, table=label)

    # -- shared metrics ----------------------------------------------------

    @property
    def space_bytes(self) -> int:
        """Device memory footprint of the table (Table V's space column)."""
        return sum(buf.nbytes for buf in self._buffers)

    @property
    def buffer_names(self) -> list[str]:
        """Names of the table's device buffers."""
        return [buf.name for buf in self._buffers]

    def free(self) -> None:
        """Release the table's device buffers."""
        for buf in self._buffers:
            self.memory.free(buf.name)
        self._buffers.clear()

    def reset(self) -> None:
        """Re-seed the table in place: a fresh table without the alloc.

        Volatile image, NVM image and write-back cache end up exactly
        as construction (``alloc(init=...)`` plus the heap ``attach``)
        left them, minus the directory write; :attr:`stats` keep
        counting. For an owner that reuses one table across checkpoint
        epochs (:class:`~repro.megakv.lp.KVBatchSession` with
        ``max_keys``). The NVM image is overwritten unjournalled, so
        call it only once the epoch the entries describe has drained —
        and before anything records a new epoch against this table,
        whose unpersisted stores a leftover checksum could vouch for.
        """
        for buf in self._buffers:
            self.memory.reseed(buf, self._fills[buf.name])

    # -- lane packing -------------------------------------------------------

    def _lane_slice(self, entry_index) -> np.ndarray:
        """Flat indices of an entry's lane words in a packed lane buffer
        (one row per entry when ``entry_index`` is an array)."""
        return (np.asarray(entry_index, dtype=np.int64)[..., None]
                * self.n_lanes + np.arange(self.n_lanes))
