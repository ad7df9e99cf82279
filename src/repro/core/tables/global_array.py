"""The paper's hash-table-less checksum store (Section V).

Because each LP region *is* a thread block and every thread block has a
unique id, checksums can be stored in a plain array indexed by block
id. This removes every problem the hash tables fought:

* **no collisions** — each block owns exactly one entry;
* **no races** — no two blocks ever touch the same address, so no
  atomics and no locks;
* **100 % load factor** — the array has exactly ``n_keys`` entries, the
  minimum possible space (Table V's 1.63 % geomean space overhead).

An entry whose lane words are all the empty sentinel is "absent": the
block's checksum store never persisted, so the block must be recovered.
(The chance of a real checksum equaling the sentinel in every lane is
``2**-64`` per lane; the paper's NaN-initialized checksums make the
same trade.)
"""

from __future__ import annotations

import numpy as np

from repro.core.checksum import EMPTY_SENTINEL
from repro.core.config import LPConfig, TableKind
from repro.core.tables.base import WORD_BYTES, ChecksumTable
from repro.errors import TableError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import CostModel
from repro.gpu.memory import GlobalMemory
from repro.obs import current as _recorder


class GlobalArrayTable(ChecksumTable):
    """Checksum global array: one entry per thread block, direct index."""

    kind = TableKind.GLOBAL_ARRAY

    def __init__(
        self,
        memory: GlobalMemory,
        name: str,
        n_keys: int,
        n_lanes: int,
        config: LPConfig,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(memory, name, n_keys, n_lanes, config, cost_model)
        self.capacity = n_keys
        self._lanes = self._alloc(
            "lanes", (n_keys * n_lanes,), np.uint64, fill=EMPTY_SENTINEL
        )

    @classmethod
    def space_for(cls, n_keys: int, n_lanes: int, config: LPConfig,
                  perfect_hash: bool = False) -> int:
        """One lane row per region and nothing else."""
        return n_keys * n_lanes * WORD_BYTES

    def insert(self, row: BatchBlockContext, key: int, lanes: np.ndarray) -> None:
        """One plain store; no probe, no atomic, no lock."""
        self._check_key(key)
        row.st(self._lanes, self._lane_slice([int(key)]), lanes)
        self._count_inserts(1)

    def insert_stores(self, keys: np.ndarray, lanes: np.ndarray):
        """Every entry is its own lane row, so any number of inserts is
        one store of those rows."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        self._check_key(int(keys.min()))
        self._check_key(int(keys.max()))
        self._count_inserts(keys.size)
        return (self._lanes, self._lane_slice(keys),
                np.asarray(lanes, dtype=np.uint64))

    def _count_inserts(self, n: int) -> None:
        """Stats and metrics of ``n`` inserts: one probe each."""
        self.stats.inserts += n
        self.stats.probes += n
        metrics = _recorder().metrics
        if metrics.active:
            label = self.kind.value
            metrics.inc("table.insert.count", n, table=label)
            metrics.inc("table.insert.probes", n, table=label)

    def lookup(self, key: int) -> np.ndarray | None:
        self._check_key(key)
        base = int(key) * self.n_lanes
        lanes = self._lanes.array[base:base + self.n_lanes].copy()
        missing = bool(np.all(lanes == EMPTY_SENTINEL))
        self._count_lookups(1, int(missing))
        return None if missing else lanes

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fancy-indexed batch lookup: one gather, one sentinel compare."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        if keys.size == 0:
            return (np.zeros((0, self.n_lanes), dtype=np.uint64),
                    np.zeros(0, dtype=bool))
        if int(keys.min()) < 0 or int(keys.max()) >= self.capacity:
            raise TableError(
                f"block ids outside global array of {self.capacity}"
            )
        lanes = self._lanes.array.reshape(
            self.capacity, self.n_lanes
        )[keys].copy()
        found = ~np.all(lanes == EMPTY_SENTINEL, axis=1)
        self._count_lookups(keys.size, int(keys.size - np.count_nonzero(found)))
        return lanes, found

    def _check_key(self, key: int) -> None:
        if not 0 <= int(key) < self.capacity:
            raise TableError(
                f"block id {key} outside global array of {self.capacity}"
            )
