"""LP region state: the store observer attached to one thread block.

An LP region on the GPU is one thread block (Section IV-A). While the
block runs, every store to a *protected* buffer is intercepted by the
block's :class:`LPRegionObserver`, which folds the stored values into
per-thread checksum accumulators — the simulator's equivalent of the
``UpdateCheckSum(...)`` call the paper places after each persistent
store (Listing 1, line 12; Listing 2, lines 21-24).

The observer satisfies the :class:`~repro.gpu.kernel.StoreObserver`
protocol that :class:`~repro.gpu.kernel.BlockContext` consults on every
``st``.
"""

from __future__ import annotations

import numpy as np

from repro.core.checksum import (
    BatchChecksumState,
    BlockChecksumState,
    ChecksumSet,
)
from repro.gpu.kernel import BlockContext


class LPRegionObserver:
    """Per-block checksum accumulation over protected stores.

    Parameters
    ----------
    cset:
        The checksum lanes protecting the region.
    ctx:
        The block's execution context; checksum-update ALU work is
        charged here (the per-store overhead of Section IV-B).
    protected:
        Buffer names whose stores the region protects.
    charge_float_conversion:
        Whether to charge the float→ordered-int conversion op on every
        update (the parity lane's Fig. 2 conversion). The functional
        conversion always happens; only its cost is configurable, so an
        integer-only kernel is not billed for it.
    """

    def __init__(
        self,
        cset: ChecksumSet,
        ctx: BlockContext,
        protected: frozenset[str],
        charge_float_conversion: bool = True,
    ) -> None:
        self._ctx = ctx
        self.protected = protected
        self.state: BlockChecksumState = cset.new_block_state(ctx.n_threads)
        self._ops_per_update = cset.ops_per_update
        if not charge_float_conversion:
            self._ops_per_update = max(1, self._ops_per_update - 1)

    def on_store(self, values: np.ndarray, slots: np.ndarray) -> None:
        """Fold one store's values into the region checksums."""
        values = np.asarray(values).reshape(-1)
        self._ctx.alu(values.size * self._ops_per_update)
        self.state.update(values, slots)

    @property
    def n_values(self) -> int:
        """Store values folded so far in this region."""
        return self.state.n_values


class BatchRegionObserver:
    """Checksum accumulation for a *group* of regions at once.

    The vectorized counterpart of :class:`LPRegionObserver`, attached to
    a :class:`~repro.gpu.batch.BatchBlockContext` by the LP wrapper's
    batched path: one :class:`~repro.core.checksum.BatchChecksumState`
    holds every block's per-thread accumulators, and a single batched
    store folds all of them with one scatter per lane. The checksum
    work charged per folded value is identical to the serial observer's,
    so group totals match per-block accumulation exactly.
    """

    def __init__(
        self,
        cset: ChecksumSet,
        bctx,
        protected: frozenset[str],
        charge_float_conversion: bool = True,
    ) -> None:
        self._ctx = bctx
        self.protected = protected
        self.state: BatchChecksumState = BatchChecksumState(
            cset, bctx.n_threads, bctx.n_blocks_in_batch
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
        """Fold one batched store into every covered region's checksums."""
        values = np.asarray(values)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != values.shape:
                mask = np.broadcast_to(mask, values.shape)
            n = int(np.count_nonzero(mask))
        else:
            n = values.size
        self._ctx.alu(n * self._ops_per_update)
        self.state.update(values, slots, mask)

    @property
    def n_values(self) -> int:
        """Store values folded so far across the group."""
        return self.state.n_values
