"""Periodic checkpointing around Lazy Persistency (Section IV-A).

LP alone leaves one loose end: "validation and recovery may affect
arbitrarily old regions due to the lack of guarantee that old regions
persisted successfully. To avoid this, we can combine periodic
checkpointing or periodic whole-cache flushing. With such mechanisms,
only regions newer than the checkpoint need to be validated."

:class:`CheckpointManager` implements exactly that: it tracks the
LP-instrumented kernels launched since the last checkpoint; a
checkpoint is a whole-cache drain (every dirty line — data and checksum
tables alike — reaches NVM, so everything older is unconditionally
durable); crash recovery validates and re-executes only the
post-checkpoint epoch.

This is the only epoch in the code base. Layers that batch work compose
it rather than keeping an epoch list of their own:
:class:`~repro.megakv.lp.KVBatchSession` holds one (every batch is
launched through it, a crashed batch recovers through it), and a
``repro serve`` window is exactly one epoch — launches, one drain, ack.
Two hooks serve those owners: ``on_close`` hands the closed epoch's
kernels back so their per-epoch resources (checksum tables, result
buffers) can be released, and :meth:`CheckpointManager.enrol` admits a
kernel that was prepared but never launched *by this process* — a
restarted service rebuilding the epoch its predecessor died in.

:func:`optimal_checkpoint_interval` provides the interval selection the
paper alludes to ("the interval period can be selected based on
probability of crashes and recovery time to achieve a certain MTBF or
availability target") via the classic Young/Daly first-order optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.core.runtime import LazyPersistentKernel
from repro.errors import RecoveryError
from repro.gpu.device import Device


@dataclass
class EpochRecord:
    """Recovery outcome for one kernel of the open epoch."""

    kernel_name: str
    report: RecoveryReport


class CheckpointManager:
    """Bounds LP's validation window with periodic whole-cache drains."""

    def __init__(
        self,
        device: Device,
        on_close: Callable[[list[LazyPersistentKernel]], None] | None = None,
    ) -> None:
        self.device = device
        #: Called with the closed epoch's kernels after each drain.
        self.on_close = on_close
        #: Kernels launched since the last checkpoint, in launch order.
        self._epoch: list[LazyPersistentKernel] = []
        #: Completed checkpoints (drain events) so far.
        self.checkpoints_taken = 0
        #: NVM lines written by checkpoints (their cost).
        self.checkpoint_lines = 0

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------

    def launch(self, kernel: LazyPersistentKernel, **launch_kwargs):
        """Launch an LP kernel inside the current epoch."""
        result = self.device.launch(kernel, **launch_kwargs)
        self._epoch.append(kernel)
        return result

    def enrol(self, kernel: LazyPersistentKernel) -> None:
        """Admit a prepared-but-not-launched kernel to the open epoch.

        The resume case: a predecessor process launched ``kernel``'s
        twin and died before the drain, so its regions must be
        validated (and the failed ones re-executed) by :meth:`recover`
        exactly as if this manager had launched it.
        """
        self._epoch.append(kernel)

    def checkpoint(self) -> int:
        """Drain the persistence domain and close the epoch.

        Everything launched before this point is now unconditionally
        durable and will never be validated again. Returns the number
        of lines the drain wrote (the checkpoint's cost).
        """
        lines = self.device.drain()
        self.checkpoints_taken += 1
        self.checkpoint_lines += lines
        closed, self._epoch = self._epoch, []
        if self.on_close is not None:
            self.on_close(closed)
        return lines

    @property
    def epoch_kernels(self) -> list[LazyPersistentKernel]:
        """Kernels whose regions a crash right now could affect."""
        return list(self._epoch)

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def recover(self) -> list[EpochRecord]:
        """Recover only the open epoch, oldest kernel first.

        Kernels are recovered in launch order so that a later kernel's
        inputs (a prior kernel's outputs) are consistent before its own
        regions re-execute. Pre-checkpoint state needs nothing — the
        drain made it durable.
        """
        if self.device.crashed:
            self.device.restart()
        records = []
        for kernel in self._epoch:
            manager = RecoveryManager(self.device, kernel)
            report = manager.recover()
            if not report.recovered:  # pragma: no cover - recover raises
                raise RecoveryError(f"epoch recovery failed at {kernel.name}")
            records.append(EpochRecord(kernel.name, report))
        return records


@dataclass(frozen=True)
class CheckpointPolicy:
    """Derived checkpointing parameters for an availability target."""

    interval_cycles: float
    checkpoint_cost_cycles: float
    mtbf_cycles: float
    expected_overhead: float

    @property
    def availability(self) -> float:
        """Fraction of time doing useful work under this policy."""
        return 1.0 / (1.0 + self.expected_overhead)


def optimal_checkpoint_interval(
    checkpoint_cost_cycles: float, mtbf_cycles: float
) -> CheckpointPolicy:
    """Young/Daly first-order optimal checkpoint interval.

    ``interval* = sqrt(2 * C * MTBF)``: the point where the amortized
    checkpoint cost (``C / interval``) equals the expected re-execution
    loss (``interval / (2 * MTBF)``). The expected overhead at the
    optimum is ``sqrt(2C/MTBF)`` to first order.
    """
    if checkpoint_cost_cycles <= 0 or mtbf_cycles <= 0:
        raise ValueError("checkpoint cost and MTBF must be positive")
    interval = math.sqrt(2.0 * checkpoint_cost_cycles * mtbf_cycles)
    overhead = (checkpoint_cost_cycles / interval
                + interval / (2.0 * mtbf_cycles))
    return CheckpointPolicy(
        interval_cycles=interval,
        checkpoint_cost_cycles=checkpoint_cost_cycles,
        mtbf_cycles=mtbf_cycles,
        expected_overhead=overhead,
    )
