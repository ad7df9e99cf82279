"""LP region state: the store observer attached to a block group.

An LP region on the GPU is one thread block (Section IV-A). While the
block runs, every store to a *protected* buffer is intercepted by the
:class:`BatchRegionObserver` on its context, which folds the stored
values into the region's checksums — the simulator's equivalent of the
``UpdateCheckSum(...)`` call the paper places after each persistent
store (Listing 1, line 12; Listing 2, lines 21-24). One observer serves
both cells: a :class:`~repro.gpu.batch.BatchBlockContext` hands it a
group's stores with a leading block axis, and an immediate row is a
group of one.
"""

from __future__ import annotations

import numpy as np

from repro.core.checksum import BatchChecksumState, ChecksumSet


class BatchRegionObserver:
    """Checksum accumulation over the protected stores of a block group:
    one :class:`~repro.core.checksum.BatchChecksumState` holds every
    block's checksums.

    Parameters
    ----------
    cset:
        The checksum lanes protecting each region.
    ctx:
        The group's execution context (batch or scalar); checksum-update
        ALU work is charged here (the per-store overhead of Section
        IV-B).
    protected:
        Buffer names whose stores the regions protect.
    charge_float_conversion:
        Whether to charge the float→ordered-int conversion op on every
        update (the parity lane's Fig. 2 conversion). The functional
        conversion always happens; only its cost is configurable, so an
        integer-only kernel is not billed for it.
    """

    def __init__(
        self,
        cset: ChecksumSet,
        ctx,
        protected: frozenset[str],
        charge_float_conversion: bool = True,
    ) -> None:
        self._ctx = ctx
        self.protected = protected
        self.state: BatchChecksumState = BatchChecksumState(
            cset, ctx.n_threads, ctx.n_blocks_in_batch
        )
        self._ops_per_update = cset.ops_per_update
        if not charge_float_conversion:
            self._ops_per_update = max(1, self._ops_per_update - 1)

    def on_store(
        self,
        values: np.ndarray,
        slots: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> None:
        """Fold one batched store into every covered region's checksums,
        charging the update ops of each value folded."""
        before = self.state.n_values
        self.state.update(values, slots, mask)
        self._ctx.alu((self.state.n_values - before) * self._ops_per_update)

    @property
    def n_values(self) -> int:
        """Store values folded so far across the group."""
        return self.state.n_values
