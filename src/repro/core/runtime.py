"""The Lazy Persistency runtime: kernel instrumentation.

:class:`LazyPersistentKernel` wraps any simulator kernel with the LP
protocol of the paper's Listing 2:

1. at block start, reset per-thread checksum accumulators;
2. every protected store updates the accumulators (via the context's
   store interception and a
   :class:`~repro.core.region.BatchRegionObserver`);
3. at block end, reduce the accumulators (shuffle or sequential,
   Listings 3-4) and insert the block's checksum into the checksum
   table, keyed by block id.

The wrapper has batch entries only: one protocol body
(:meth:`LazyPersistentKernel._batch_protocol`) runs a deferred group
and an immediate row alike, and the inner kernel's body — batch or
scalar — runs under it through the inner kernel's batch entries.

:class:`LPRuntime` is the host-side façade: given a device and an
:class:`~repro.core.config.LPConfig`, it sizes and allocates the
checksum table for a kernel (the ``lpcuda_init`` directive's job) and
returns the instrumented kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.checksum import ChecksumSet
from repro.core.config import LPConfig
from repro.core.reduction import apply_reduction_tally, reduction_tally
from repro.core.region import BatchRegionObserver
from repro.core.tables import ChecksumTable, make_table
from repro.errors import ConfigError
from repro.gpu.device import Device
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig


class LazyPersistentKernel(Kernel):
    """A kernel wrapped with Lazy Persistency instrumentation.

    The wrapper preserves the inner kernel's launch shape and delegates
    the computation; it adds checksum accumulation, reduction and table
    insertion per block, plus the validation/recovery protocol used
    after a crash.
    """

    def __init__(
        self,
        inner: Kernel,
        config: LPConfig,
        table: ChecksumTable,
        charge_float_conversion: bool | None = None,
    ) -> None:
        if not inner.protected_buffers:
            raise ConfigError(
                f"kernel {inner.name!r} declares no protected buffers; "
                "nothing for Lazy Persistency to protect"
            )
        self.inner = inner
        self.config = config
        self.table = table
        self.cset = ChecksumSet(config.checksums)
        self.name = f"{inner.name}+lp[{config.describe()}]"
        self.protected_buffers = inner.protected_buffers
        self.idempotent = inner.idempotent
        self._protected = frozenset(inner.protected_buffers)
        if charge_float_conversion is None:
            charge_float_conversion = config.uses_float_conversion
        self._charge_conv = charge_float_conversion
        #: Block ids whose checksums failed the last validation launch.
        self.validation_failures: list[int] = []
        #: Blocks whose stored checksum was missing entirely.
        self.missing_checksums: list[int] = []
        #: Per-failed-block diagnosis from the last validation launch:
        #: ``{block_id: {"reason", "expected", "found"}}`` — the raw
        #: material :func:`repro.obs.forensics.diagnose` builds on.
        self.failure_details: dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Kernel interface
    # ------------------------------------------------------------------

    def launch_config(self) -> LaunchConfig:
        return self.inner.launch_config()

    # -- launch-engine integration --------------------------------------

    @property
    def batchable(self) -> bool:
        """Batchable iff the inner kernel is: every checksum lane folds
        a batched store exactly (order-sensitive ones row by row)."""
        return self.inner.batchable

    def run_block_batch(self, bctx) -> None:
        """:meth:`_batch_protocol` over a group, then every block's
        checksum-table insert (:meth:`_insert_group`)."""
        lanes = self._batch_protocol(bctx, self.inner.run_block_batch)
        self._insert_group(bctx, lanes)

    def validate_block_batch(self, bctx) -> list:
        """Vectorized check phase: recompute every block's lanes at once.

        The inner kernel's batched validation pass (the padded
        output-map gather, or a full ``VALIDATE``-mode replay) folds
        memory's current contents under :meth:`_batch_protocol`.
        Returns ``(block_id, lanes)`` outcome records for
        :meth:`merge_validation_outcomes`.
        """
        if bctx.mode is not ExecMode.VALIDATE:
            raise ConfigError("validation requires a VALIDATE context")
        lanes = self._batch_protocol(bctx, self.inner.validate_block_batch)
        return [
            (int(block_id), lanes[row])
            for row, block_id in enumerate(bctx.block_ids)
        ]

    def recover_block_batch(self, bctx) -> None:
        """:meth:`run_block_batch` through the inner kernel's batched
        recovery path: re-execute failed regions grouped."""
        lanes = self._batch_protocol(bctx, self.inner.recover_block_batch)
        self._insert_group(bctx, lanes)

    def _insert_group(self, bctx, lanes: np.ndarray) -> None:
        """Insert every block's checksum after the block's own stores.

        A table whose insert is a plain store (the global array) hands
        the group's inserts over as one batched store, the row after
        each block's data. A hash table's probe sequence depends on
        insertion history, so a deferred group's inserts are deferred
        for the engine to run one per block, in launch order, even
        though the checksums themselves commute. An immediate row lands
        as issued, so its insert runs here, on the row itself — also
        when a caller runs the scalar entries outside the engine.
        """
        stores = self.table.insert_stores(bctx.block_ids, lanes)
        if stores is not None:
            bctx.st(*stores)
        elif bctx.immediate:
            self.table.insert(bctx, int(bctx.block_ids[0]), lanes[0])
        else:
            bctx.defer_table_inserts(self.table.insert, lanes)

    def _batch_protocol(self, bctx, inner_pass) -> np.ndarray:
        """Run one inner pass under LP observation — the one LP body.

        ``bctx`` is a deferred group or one immediate row. Attaches
        the observer, runs ``inner_pass``, charges the reduction
        through :func:`reduction_tally` (pinned by tests to equal what
        the functional :func:`~repro.core.reduction.reduce_block`
        charges) and returns
        the group's per-block lane values (shape
        ``(n_blocks_in_batch, n_lanes)``), bit-identical to reducing
        each block alone.
        """
        observer = BatchRegionObserver(
            self.cset, bctx, self._protected,
            charge_float_conversion=self._charge_conv,
        )
        bctx.lp_observer = observer
        inner_pass(bctx)
        cost = reduction_tally(self.config.reduction, bctx.n_threads,
                               len(observer.state.comm_lane_positions))
        apply_reduction_tally(
            bctx.tally, cost, n_blocks=bctx.n_blocks_in_batch
        )
        return observer.state.reduce_lanes()

    def merge_validation_outcomes(self, outcomes: list) -> None:
        """Grid-wide verdicts: one vectorized table compare for all blocks.

        ``outcomes`` holds every validated block's ``(block_id, lanes)``
        record. The stored checksums are fetched with one
        :meth:`~repro.core.tables.base.ChecksumTable.lookup_many` call
        (fancy-indexed or vectorized-probe, per table kind) and compared
        lane-wise in one step; failures land in the host-side lists in
        ascending block order, deterministically for every engine.
        Lookups are host-side and charge-free, so deferring them from
        the per-block pass to this merge is invisible to tallies and
        engine-invariant metrics alike.
        """
        records = sorted(
            (o for o in outcomes if o is not None), key=lambda o: o[0]
        )
        if not records:
            return
        keys = np.array([o[0] for o in records], dtype=np.int64)
        found_lanes = np.stack(
            [np.asarray(o[1], dtype=np.uint64) for o in records]
        )
        stored, present = self.table.lookup_many(keys)
        mismatch = present & ~np.all(stored == found_lanes, axis=1)
        for i in np.flatnonzero(~present | mismatch).tolist():
            block_id = int(keys[i])
            self.validation_failures.append(block_id)
            if present[i]:
                self.failure_details[block_id] = {
                    "reason": "lane-mismatch",
                    "expected": np.array(stored[i], copy=True),
                    "found": np.array(found_lanes[i], copy=True),
                }
            else:
                # "expected" is the table's reference checksum; "found"
                # is what the data in memory actually checksums to.
                self.missing_checksums.append(block_id)
                self.failure_details[block_id] = {
                    "reason": "missing-entry",
                    "expected": None,
                    "found": np.array(found_lanes[i], copy=True),
                }

    # ------------------------------------------------------------------
    # Host-side helpers
    # ------------------------------------------------------------------

    def reset_validation(self) -> None:
        """Clear the failure lists before a validation launch."""
        self.validation_failures = []
        self.missing_checksums = []
        self.failure_details = {}

    @property
    def protected_data_bytes(self) -> int:
        """Bytes of protected output data (for the space-overhead metric)."""
        total = 0
        # The table and kernel share a memory; resolve via the table.
        for name in self.protected_buffers:
            total += self.table.memory[name].nbytes
        return total

    def space_overhead(self) -> float:
        """Checksum-table bytes relative to protected data (Table V)."""
        data = self.protected_data_bytes
        if data <= 0:
            raise ConfigError("no protected data to compare against")
        return self.table.space_bytes / data


class LPRuntime:
    """Host-side LP orchestration bound to one device.

    The runtime plays the role of the paper's ``lpcuda_init`` runtime
    call: it knows the number of LP regions in advance (the grid's
    block count), sizes the checksum table accordingly, and hands back
    an instrumented kernel ready to launch.
    """

    def __init__(self, device: Device, config: LPConfig | None = None) -> None:
        self.device = device
        self.config = config or LPConfig.paper_best()
        self.cset = ChecksumSet(self.config.checksums)

    def instrument(
        self,
        kernel: Kernel,
        table_name: str | None = None,
        perfect_hash: bool = False,
    ) -> LazyPersistentKernel:
        """Wrap ``kernel`` with LP, allocating its checksum table."""
        n_keys = kernel.launch_config().n_blocks
        table = make_table(
            self.device.memory,
            table_name or kernel.name,
            n_keys,
            self.cset.n_lanes,
            self.config,
            cost_model=self.device.cost_model,
            perfect_hash=perfect_hash,
        )
        return LazyPersistentKernel(kernel, self.config, table)
