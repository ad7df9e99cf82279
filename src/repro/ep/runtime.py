"""Eager Persistency (EP): the baseline Lazy Persistency replaces.

EP achieves crash recoverability with *persist instructions*: undo
logging, ``clwb`` cache-line write-backs, and persist barriers ordering
log before data before commit (Section II's description of
strict/epoch persistency schemes). The paper contrasts LP against EP
throughout — EP needs no recovery recomputation but pays during normal
execution: log writes (write amplification), flush-induced loss of
locality, and barrier stalls.

NOTE: this subsystem is an *extension* of the reproduction. The paper
itself notes GPUs lack flush/barrier instructions ("EP requires cache
line flush and durable barrier instructions which are not supported in
current GPUs", §IV) and cites CPU results for EP's 20-40 % slowdowns;
here the primitives exist in the simulator, so the comparison the
paper argues qualitatively can be measured: see the ``ep_vs_lp``
experiment.

Protocol per LP-region-equivalent (one thread block) — the
block-granularity strict-persistency baseline of *Exploring Memory
Persistency Models for GPUs*:

1. every protected store is preceded by an undo-log append of the old
   values, flushed and fenced (``UndoLog.append``);
2. at block end, the block's data lines are flushed and fenced;
3. the commit flag is written, flushed and fenced.

Each step acts as it is issued, so :class:`EagerPersistentKernel` is a
batch body that runs only on immediate rows (one per block): the
inner kernel's ``run_block_batch`` stores through that row, whose EP
interceptor, ``clwb`` and ``persist_barrier`` a deferred group refuses.

Crash recovery (:class:`EPRecoveryManager`): committed regions need
nothing; uncommitted regions are rolled back from their logs and
re-executed. No checksum validation pass is needed — that is EP's
advantage, bought with the normal-execution overheads above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ep.log import UndoLog
from repro.errors import ConfigError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.device import Device, LaunchResult
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
from repro.gpu.memory import Buffer


class _EPInterceptor:
    """Logs old values ahead of every protected store (undo logging).

    Installed on a block's immediate row, it fires inside the row's
    store, before the store lands; a deferred group, whose stores land
    after the pass, refuses it. The records go through ``row``, the
    region's row: a fused region's constituents store through sibling
    rows with their inner block ids, but log under the region's id.
    """

    def __init__(self, log: UndoLog, protected: frozenset[str],
                 row: BatchBlockContext) -> None:
        self.log = log
        self.protected = protected
        self.row = row
        #: (buffer name -> list of index arrays) touched by this region,
        #: flushed together at region end.
        self.touched: dict[str, list[np.ndarray]] = {}

    def before_store(self, buf: Buffer, idx: np.ndarray) -> None:
        self.log.append(self.row, buf, idx)
        self.touched.setdefault(buf.name, []).append(np.array(idx))


class EagerPersistentKernel(Kernel):
    """A kernel wrapped with undo-log Eager Persistency.

    The block-granularity strict-persistency baseline: it is not
    ``batchable``, so the engine runs its body on one immediate row per
    block, and the inner kernel's batch body stores through that row —
    each protected store logged, flushed and fenced as it is issued.
    """

    def __init__(self, inner: Kernel, log: UndoLog) -> None:
        if not inner.protected_buffers:
            raise ConfigError(
                f"kernel {inner.name!r} declares no protected buffers"
            )
        self.inner = inner
        self.log = log
        self.name = f"{inner.name}+ep[undo-log]"
        self.protected_buffers = inner.protected_buffers
        self.idempotent = inner.idempotent
        self._protected = frozenset(inner.protected_buffers)

    def launch_config(self) -> LaunchConfig:
        return self.inner.launch_config()

    def run_block_batch(self, bctx: BatchBlockContext) -> None:
        """The inner body on ``bctx``, an immediate row (a deferred group
        refuses the interceptor), then flush, fence and commit."""
        interceptor = _EPInterceptor(self.log, self._protected, bctx)
        bctx.ep_interceptor = interceptor
        self.inner.run_block_batch(bctx)

        # Flush the region's data, fence, then commit (flushed+fenced).
        for buf_name, idx_arrays in interceptor.touched.items():
            all_idx = np.unique(np.concatenate(idx_arrays))
            bctx.clwb(buf_name, all_idx)
        bctx.persist_barrier()
        self.log.commit(bctx)

    def recover_block_batch(self, bctx: BatchBlockContext) -> None:
        """Re-execute after the manager rolled the region back."""
        self.log.reset_block(bctx)
        self.run_block_batch(bctx)


class EPRuntime:
    """Host-side EP orchestration: sizes the log and wraps kernels."""

    def __init__(self, device: Device,
                 log_capacity_per_block: int | None = None) -> None:
        self.device = device
        self.log_capacity = log_capacity_per_block

    def instrument(self, kernel: Kernel,
                   log_name: str | None = None) -> EagerPersistentKernel:
        """Wrap ``kernel`` with EP, allocating its undo log."""
        cfg = kernel.launch_config()
        capacity = self.log_capacity
        if capacity is None:
            # Generous default: four logged values per thread.
            capacity = 4 * cfg.threads_per_block
        log = UndoLog(
            self.device.memory,
            log_name or kernel.name,
            cfg.n_blocks,
            capacity,
        )
        return EagerPersistentKernel(kernel, log)


@dataclass
class EPRecoveryReport:
    """Outcome of one EP recovery pass."""

    uncommitted_blocks: list[int]
    undo_records_applied: int
    relaunch: LaunchResult | None = None
    rolled_back: list[int] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """EP recovery always converges once the relaunch completes."""
        return True


class EPRecoveryManager:
    """Rolls back and re-executes uncommitted EP regions after a crash."""

    def __init__(self, device: Device,
                 kernel: EagerPersistentKernel) -> None:
        self.device = device
        self.kernel = kernel

    def recover(self) -> EPRecoveryReport:
        """Undo-log recovery: no validation pass, no checksum math."""
        if self.device.crashed:
            self.device.restart()
        log = self.kernel.log
        n_blocks = self.kernel.launch_config().n_blocks
        uncommitted = [b for b in range(n_blocks)
                       if not log.is_committed(b)]
        undone = 0
        for block in uncommitted:
            undone += log.rollback(block)
        report = EPRecoveryReport(
            uncommitted_blocks=uncommitted,
            undo_records_applied=undone,
            rolled_back=list(uncommitted),
        )
        if uncommitted:
            report.relaunch = self.device.launch(
                self.kernel, block_ids=uncommitted, mode=ExecMode.RECOVER
            )
        return report
