"""Lazy Persistency integration for the MEGA-KV store.

:class:`KVBatchSession` drives the store the way MEGA-KV's host side
does — batch in, kernel launch, batch out — with every batch running as
an LP-instrumented kernel.

Crash handling must respect LP's "arbitrarily old regions" caveat
(Section IV-A): a crash during batch N can also lose still-unevicted
effects of batches < N. The session therefore composes a
:class:`~repro.core.checkpoint.CheckpointManager`: every batch is
launched into the manager's open *epoch*, a crash recovers the whole
epoch oldest-first (re-execution order preserves last-writer-wins
across batches) before new work is admitted, and a successful recovery
— or an explicit :meth:`KVBatchSession.checkpoint` — drains the
persistence domain and closes the epoch. (A hypothesis model-based
test caught exactly the single-batch-recovery bug this design removes.)

The session is also the one place a batch meets its checksum table:
:meth:`KVBatchSession.prepare`. By default every batch gets a table
(and a search its results buffer) of its own, named from the batch
counter, allocated, instrumented, and freed when its epoch closes — the
batch the paper measures in §VII-4. An owner that can *bound* its
launches passes ``max_keys``: at most one write launch per epoch (an
insert, a delete or a mixed :meth:`~KVBatchSession.write`) of at most
that many keys (``repro serve``: one coalesced window per epoch,
``max_batch`` requests). The session then allocates one checksum table,
``megakv-write``, and one volatile results buffer once, at
construction — right after the store's buffers, so a restarted process
rebuilds the identical layout from its configuration alone — binds
every write launch to that table, and an epoch's close *re-seeds* it
(:meth:`~repro.core.tables.base.ChecksumTable.reset`) instead of
freeing it: steady state allocates, attaches, instruments and frees
nothing. The forward path launches what ``prepare`` returns; a
restarted service has the same ``prepare`` bind its logged launch and
enrols the result instead.

Reads need none of this: a GET makes nothing durable, so in a
``max_keys`` session it answers into the volatile results buffer, which
no checksum covers. A :meth:`~KVBatchSession.write` given ``reads``
answers them from its own launch, so a batch that reads and writes is
one launch; :meth:`KVBatchSession.lookup`, for a batch that only
reads, launches the search kernel uninstrumented, outside the epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.config import LPConfig
from repro.core.recovery import RecoveryReport
from repro.core.runtime import LazyPersistentKernel, LPRuntime
from repro.core.tables import ChecksumTable, make_table
from repro.errors import ConfigError
from repro.gpu.device import Device, LaunchResult
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    KVWriteKernel,
    alloc_results,
)
from repro.megakv.store import MegaKVStore
from repro.nvm.crash import CrashPlan
from repro.obs import current as _recorder


@dataclass
class BatchOutcome:
    """Result of one LP-protected batch."""

    op: str
    launch: LaunchResult
    lp_kernel: LazyPersistentKernel
    recovery: RecoveryReport | None = None
    results: np.ndarray | None = None

    @property
    def crashed(self) -> bool:
        """Whether this batch hit a crash (and was then recovered)."""
        return self.launch.crashed


class KVBatchSession:
    """Batched, crash-recoverable operation stream against one store.

    ``max_keys`` is the owner's launch bound (module docstring): with
    it, every write runs against one session-lifetime checksum table,
    and read lanes and :meth:`lookup` answer into one volatile results
    buffer; without it every batch allocates and frees its own.
    """

    def __init__(
        self,
        device: Device,
        store: MegaKVStore,
        config: LPConfig | None = None,
        threads_per_block: int = 64,
        max_keys: int | None = None,
    ) -> None:
        self.device = device
        self.store = store
        self.config = config or LPConfig.paper_best()
        self.runtime = LPRuntime(device, self.config)
        self.threads = threads_per_block
        self._batch_counter = 0
        #: The open epoch: batches since the last checkpoint, oldest
        #: first. Closing it releases their tables and result buffers.
        self.manager = CheckpointManager(device, on_close=self._release)
        self.max_keys = max_keys
        #: The session-lifetime write table (``max_keys``).
        self._table: ChecksumTable | None = None
        self._results = None
        if max_keys is not None:
            self._table = make_table(
                device.memory, KVWriteKernel.name,
                math.ceil(max_keys / threads_per_block),
                self.runtime.cset.n_lanes, self.config,
                cost_model=device.cost_model)
            self._results = device.alloc(
                f"{store.name}_results", (max_keys,), np.uint64,
                persistent=False)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def prepare(
        self, op: str, keys: np.ndarray, values: np.ndarray | None = None,
        reads: np.ndarray | None = None,
    ) -> LazyPersistentKernel:
        """Build the next batch's LP kernel; do not launch.

        A write kernel of a ``max_keys`` session is bound to the
        session-lifetime table, and its read lanes (``reads``) to the
        session's results buffer. Otherwise this is the only place a
        batch's buffers are named and allocated: results buffer
        ``<store>_results_<counter>`` (search only, allocated first),
        then checksum table ``<kernel>_b<counter>``.
        """
        counter = self._batch_counter
        if op == "write":
            if reads is not None:
                self._check_results(np.asarray(keys).size, "read lanes")
            kernel = KVWriteKernel(
                self.store, keys, values, self.threads, reads,
                None if self._results is None else self._results.name)
        elif op == "insert":
            kernel = KVInsertKernel(self.store, keys, values, self.threads)
        elif op == "delete":
            kernel = KVDeleteKernel(self.store, keys, self.threads)
        elif op == "search":
            results_name = f"{self.store.name}_results_{counter}"
            alloc_results(self.device, results_name, np.asarray(keys).size)
            kernel = KVSearchKernel(self.store, keys, results_name,
                                    self.threads)
        else:
            raise ValueError(f"unknown KV operation {op!r}")
        self._batch_counter += 1
        table = self._table
        if table is None or op == "search":
            return self.runtime.instrument(
                kernel, table_name=f"{kernel.name}_b{counter}")
        # A table entry is keyed by block id: a second launch would
        # overwrite the first's checksums, a longer one has no entry.
        if kernel.n_requests > self.max_keys or any(
                open_.table is table for open_ in self.manager.epoch_kernels):
            raise ConfigError(
                f"{op} of {kernel.n_requests} keys breaks this session's "
                f"bound: one write launch of at most {self.max_keys} keys "
                "per epoch")
        return LazyPersistentKernel(kernel, self.config, table)

    def write(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        reads: np.ndarray | None = None,
        crash_plan: CrashPlan | None = None,
    ) -> BatchOutcome:
        """SET and DELETE a batch of keys in one launch: a value of 0
        deletes its key.

        ``values`` covers the first keys; the keys after them are only
        read. Where ``reads`` is set, the outcome's ``results`` holds
        what the key held before the launch (0: absent), by position in
        ``keys``. Needs a ``max_keys`` session.
        """
        return self._launch("write",
                            self.prepare("write", keys, values, reads),
                            crash_plan)

    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        crash_plan: CrashPlan | None = None,
    ) -> BatchOutcome:
        """SET a batch of (key, value) pairs."""
        return self._launch("insert", self.prepare("insert", keys, values),
                            crash_plan)

    def delete(
        self, keys: np.ndarray, crash_plan: CrashPlan | None = None
    ) -> BatchOutcome:
        """DELETE a batch of keys."""
        return self._launch("delete", self.prepare("delete", keys),
                            crash_plan)

    def search(
        self, keys: np.ndarray, crash_plan: CrashPlan | None = None
    ) -> BatchOutcome:
        """GET a batch of keys; misses come back as 0."""
        return self._launch("search", self.prepare("search", keys),
                            crash_plan)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """GET a batch of keys the plain way; misses come back as 0.

        Read-only: the search kernel runs uninstrumented into the
        session's volatile results buffer, outside the epoch. A crash
        loses an answer nobody received, which is all a read can lose.
        Repeated keys are fine. Needs a ``max_keys`` session.
        """
        n = np.asarray(keys).size
        self._check_results(n, "lookup")
        self.device.launch(KVSearchKernel(
            self.store, keys, self._results.name, self.threads))
        return self._results.array[:n].copy()

    def _check_results(self, n: int, what: str) -> None:
        if self._results is None or n > self.max_keys:
            raise ConfigError(
                f"{what} of {n} keys needs a session built with "
                f"max_keys >= {n} (this one: {self.max_keys})")

    def mixed(
        self,
        ops: "list[tuple[str, np.ndarray] | tuple[str, np.ndarray, np.ndarray]]",
        crash_plans: dict[int, CrashPlan] | None = None,
    ) -> list[BatchOutcome]:
        """Run a mixed request stream, one batch per operation.

        ``ops`` is a list of ``("insert", keys, values)``,
        ``("search", keys)``, ``("delete", keys)`` or ``("write", keys,
        values)`` tuples — the first three are the paper's "insert,
        search & delete 16K recs" workload shape.
        ``crash_plans`` optionally injects a crash into the i-th batch;
        the session recovers each crashed batch before admitting the
        next, so the stream's semantics are crash-transparent.
        """
        crash_plans = crash_plans or {}
        return [self._launch(op[0], self.prepare(*op), crash_plans.get(i))
                for i, op in enumerate(ops)]

    def recover(self) -> list[RecoveryReport]:
        """Validate and re-execute the open epoch, oldest batch first."""
        return [record.report for record in self.manager.recover()]

    def checkpoint(self) -> int:
        """Drain the persistence domain and close the batch epoch.

        Everything up to here is durable; a later crash can no longer
        require re-validating these batches, so their checksum tables
        are released — re-seeded if they are the session's own, freed
        with their search-result buffers (already copied into their
        :class:`BatchOutcome`) otherwise. Returns the lines the drain
        wrote.
        """
        rec = _recorder()
        with rec.trace.span("megakv.checkpoint", cat="megakv",
                            track="megakv",
                            epoch_batches=len(self.manager.epoch_kernels)):
            lines = self.manager.checkpoint()
        if rec.metrics.active:
            rec.metrics.inc("megakv.checkpoints")
            rec.metrics.inc("megakv.checkpoint.lines", lines)
        return lines

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _release(self, closed: list[LazyPersistentKernel]) -> None:
        """The manager's ``on_close`` hook: release a closed epoch.

        Runs after the drain and before the owner forgets the epoch
        (the service's WAL clear), which is what keeps a re-seeded
        table from ever describing a window other than the logged one.
        """
        with _recorder().trace.span("megakv.release", cat="megakv",
                                    track="megakv", batches=len(closed)):
            # The write table, launched or not: a launch that raised
            # half way is in no epoch but has left checksums behind.
            if self._table is not None:
                self._table.reset()
            for lp_kernel in closed:
                if lp_kernel.table is self._table:
                    continue
                lp_kernel.table.free()
                if isinstance(lp_kernel.inner, KVSearchKernel):
                    self.device.free(lp_kernel.inner.results_buffer)

    def _launch(self, op, lp_kernel, crash_plan) -> BatchOutcome:
        rec = _recorder()
        inner = lp_kernel.inner
        with rec.trace.span("megakv.batch", cat="megakv", track="megakv",
                            op=op, batch=self._batch_counter - 1,
                            reads=inner.n_reads):
            launch = self.manager.launch(lp_kernel, crash_plan=crash_plan)
            outcome = BatchOutcome(op=op, launch=launch,
                                   lp_kernel=lp_kernel)
            if launch.crashed:
                # A crash may have lost effects of any batch in the open
                # epoch, not just the one in flight: recover
                # oldest-first (this batch is the newest).
                if rec.metrics.active:
                    rec.metrics.inc("megakv.batch.crashes", op=op)
                outcome.recovery = self.recover()[-1]
            if inner.n_reads:
                outcome.results = self.device.memory[
                    inner.results_buffer].array[:inner.n_requests].copy()
            if launch.crashed:
                # Checkpoint so the epoch starts clean (after the copy:
                # closing the epoch frees the results buffer).
                self.checkpoint()
        if rec.metrics.active:
            rec.metrics.inc("megakv.batches", op=op)
        return outcome
