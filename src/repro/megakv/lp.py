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

The session is also the one place a batch is *named*:
:meth:`KVBatchSession.prepare` formats the checksum-table and
results-buffer names from the batch counter, allocates, and
instruments. The forward path launches what ``prepare`` returns; a
restarted service calls the same ``prepare`` at the recorded allocator
cursor and counter and enrols the result instead, so the two cannot
disagree about where a batch's buffers live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.checkpoint import CheckpointManager
from repro.core.config import LPConfig
from repro.core.recovery import RecoveryReport
from repro.core.runtime import LazyPersistentKernel, LPRuntime
from repro.gpu.device import Device, LaunchResult
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
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
    extra: dict = field(default_factory=dict)

    @property
    def crashed(self) -> bool:
        """Whether this batch hit a crash (and was then recovered)."""
        return self.launch.crashed


class KVBatchSession:
    """Batched, crash-recoverable operation stream against one store.

    ``batch_counter`` seeds the batch numbering: 0 for a fresh session,
    the request log's recorded counter for a service resuming a window.
    """

    def __init__(
        self,
        device: Device,
        store: MegaKVStore,
        config: LPConfig | None = None,
        threads_per_block: int = 64,
        batch_counter: int = 0,
    ) -> None:
        self.device = device
        self.store = store
        self.config = config or LPConfig.paper_best()
        self.runtime = LPRuntime(device, self.config)
        self.threads = threads_per_block
        self._batch_counter = batch_counter
        #: The open epoch: batches since the last checkpoint, oldest
        #: first. Closing it releases their tables and result buffers.
        self.manager = CheckpointManager(device, on_close=self._release)

    @property
    def batch_counter(self) -> int:
        """Monotonic batch number; names the next batch's checksum table.

        The service request log records this (plus the allocator
        cursor) per window, so a restarted daemon can :meth:`prepare`
        the window's batches under identical names and addresses
        before adopting the reopened heap.
        """
        return self._batch_counter

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def prepare(
        self, op: str, keys: np.ndarray, values: np.ndarray | None = None
    ) -> LazyPersistentKernel:
        """Name, allocate and instrument the next batch; do not launch.

        The only place a batch's buffers are named: results buffer
        ``<store>_results_<counter>`` (search only, allocated first),
        then checksum table ``<kernel>_b<counter>``.
        """
        counter = self._batch_counter
        if op == "insert":
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
        return self.runtime.instrument(
            kernel, table_name=f"{kernel.name}_b{counter}")

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

    def mixed(
        self,
        ops: "list[tuple[str, np.ndarray] | tuple[str, np.ndarray, np.ndarray]]",
        crash_plans: dict[int, CrashPlan] | None = None,
    ) -> list[BatchOutcome]:
        """Run a mixed request stream, one batch per operation.

        ``ops`` is a list of ``("insert", keys, values)``,
        ``("search", keys)`` or ``("delete", keys)`` tuples — the
        paper's "insert, search & delete 16K recs" workload shape.
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
        and search-result buffers (already copied into their
        :class:`BatchOutcome`) are released. Returns the lines the
        drain wrote.
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
        """The manager's ``on_close`` hook: free a closed epoch."""
        for lp_kernel in closed:
            lp_kernel.table.free()
            if isinstance(lp_kernel.inner, KVSearchKernel):
                self.device.free(lp_kernel.inner.results_buffer)

    def _launch(self, op, lp_kernel, crash_plan) -> BatchOutcome:
        rec = _recorder()
        with rec.trace.span("megakv.batch", cat="megakv", track="megakv",
                            op=op, batch=self._batch_counter - 1):
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
            if op == "search":
                outcome.results = self.device.memory[
                    lp_kernel.inner.results_buffer].array.copy()
            if launch.crashed:
                # Checkpoint so the epoch starts clean (after the copy:
                # closing the epoch frees the results buffer).
                self.checkpoint()
        if rec.metrics.active:
            rec.metrics.inc("megakv.batches", op=op)
        return outcome
