"""Insertion concurrency protocols: locks vs lock-free, real vs emulated.

The hash tables express their slot operations through an
:class:`InsertionProtocol`, which routes them to:

* **hardware atomics** (``atomicCAS`` / ``atomicExch``) — the lock-free
  fast path the paper recommends;
* **emulated atomics** — plain load/compare/store and
  temporary-variable swap sequences (the Section IV-D-3 ablation).
  Functionally the simulator executes blocks one at a time, so the
  emulation stays correct; the *cost* reflects the dependent round
  trips and race-retry storms real concurrency would cause;
* **a table lock** — when :class:`~repro.core.config.LockMode` is
  ``LOCK_BASED``, each insert additionally pays a critical-section +
  convoy cost, which is what destroys scalability at high block counts
  (Table III).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AtomicMode, LockMode, LPConfig
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import CostModel
from repro.gpu.memory import Buffer


class InsertionProtocol:
    """Concurrency-control strategy for checksum-table insertion.

    Parameters
    ----------
    config:
        Supplies :class:`LockMode` and :class:`AtomicMode`.
    cost_model:
        Contention sub-models (convoy, emulated storms).
    population:
        Total number of inserters over the launch (= thread blocks);
        determines how many concurrent waiters contend.
    """

    def __init__(
        self, config: LPConfig, cost_model: CostModel, population: int
    ) -> None:
        self.config = config
        self.cost_model = cost_model
        self.population = max(1, population)

    # ------------------------------------------------------------------
    # Slot primitives
    # ------------------------------------------------------------------

    def claim_if_empty(
        self,
        row: BatchBlockContext,
        keys: Buffer,
        index: int,
        empty: np.uint64,
        key: np.uint64,
    ) -> np.uint64:
        """CAS-style claim: write ``key`` iff the slot holds ``empty``.

        Returns the old value (CUDA ``atomicCAS`` semantics).
        """
        if self.config.atomics is AtomicMode.HARDWARE:
            return row.atomic_cas(keys, index, empty, key)
        # Emulated: read, compare, conditionally write — three dependent
        # global accesses, racing with every other inserter.
        old = row.ld(keys, [[index]])[0, 0]
        if old == empty:
            row.st(keys, [[index]], key)
        row.add_serial_cycles(
            self.cost_model.emulated_cas_cycles(1, self.population)
        )
        return old

    def swap(
        self, row: BatchBlockContext, keys: Buffer, index: int, key: np.uint64
    ) -> np.uint64:
        """Exchange-style swap: unconditionally write ``key``, return old."""
        if self.config.atomics is AtomicMode.HARDWARE:
            return row.atomic_exch(keys, index, key)
        old = row.ld(keys, [[index]])[0, 0]
        row.st(keys, [[index]], key)
        row.add_serial_cycles(
            self.cost_model.emulated_swap_cycles(1, self.population)
        )
        return old

    # ------------------------------------------------------------------
    # Lock accounting
    # ------------------------------------------------------------------

    def charge_lock(self, row: BatchBlockContext, chain_length: int) -> None:
        """Charge one insert's critical section if lock-based.

        ``chain_length`` (probes or evictions) lengthens the critical
        section: the lock is held while the whole chain executes.
        """
        if self.config.locks is not LockMode.LOCK_BASED:
            return
        cs_extra = chain_length * self.cost_model.spec.global_latency_cycles
        row.add_serial_cycles(
            self.cost_model.lock_convoy_cycles(
                1,
                cs_extra_cycles=cs_extra,
                population=self.population,
                threads_per_block=row.config.threads_per_block,
            )
        )
