"""The simulated GPU device: launches kernels, times them, crashes.

:class:`Device` owns the global memory (with its NVM persistence
domain), a cost model, and the launch machinery. Thread blocks execute
one at a time — functionally this is indistinguishable from any other
interleaving for the paper's workloads, whose blocks write disjoint
outputs (the associativity property LP regions require) — while the
cost model accounts for the parallelism the real machine would achieve.

Blocks can run in *shuffled* order (the GPU guarantees no block
ordering; tests use this to check that LP really is order-insensitive)
and a launch can carry a :class:`~repro.nvm.crash.CrashPlan` that kills
the device mid-kernel, losing all not-yet-evicted cache lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CrashedDeviceError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.costs import CostModel, Tally, TimeBreakdown
from repro.gpu.engine import LaunchEngine, LaunchPlan, make_engine
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
from repro.gpu.memory import CrashReport, GlobalMemory
from repro.gpu.spec import GPUSpec, NVMSpec
from repro.nvm.crash import CrashPlan
from repro.obs import current as _recorder


@dataclass
class LaunchResult:
    """Everything a kernel launch produced besides its memory effects."""

    kernel_name: str
    config: LaunchConfig
    completed_blocks: list[int]
    crashed: bool
    crash_report: CrashReport | None
    tally: Tally
    time: TimeBreakdown
    #: Blocks the launch was *asked* to run (the grid, or the explicit
    #: ``block_ids`` list) — before any crash-plan truncation. Partial
    #: validations after a crash-during-recovery read this, not
    #: ``n_completed``.
    requested_blocks: int = 0

    @property
    def n_completed(self) -> int:
        """Blocks that ran to completion before any crash."""
        return len(self.completed_blocks)

    @property
    def total_cycles(self) -> float:
        """Modeled end-to-end time in device cycles."""
        return self.time.total_cycles

    def to_dict(self) -> dict:
        """The launch outcome as one JSON-serializable dict."""
        return {
            "kernel": self.kernel_name,
            "n_blocks": self.config.n_blocks,
            "threads_per_block": self.config.threads_per_block,
            "n_requested": self.requested_blocks,
            "n_completed": self.n_completed,
            "crashed": self.crashed,
            "crash": None if self.crash_report is None else {
                "lost_lines": self.crash_report.n_lost,
                "persisted_lines": len(self.crash_report.persisted_lines),
                "lost_by_buffer": dict(sorted(
                    self.crash_report.lost_by_buffer.items())),
            },
            "tally": self.tally.to_dict(),
            "time": self.time.to_dict(),
        }


@dataclass
class Device:
    """A simulated NVM-backed GPU.

    Parameters
    ----------
    spec / nvm:
        Hardware parameters; defaults are the paper's V100 with a
        DRAM-speed persistence domain (Section III-A).
    cache_capacity_lines:
        Dirty-line capacity of the persistence domain's write-back
        cache; defaults to the spec's L2 size. Small values make crashes
        lose little (almost everything evicted); large values make
        crashes lose a lot.
    block_order:
        ``"sequential"`` or ``"shuffled"`` — the order thread blocks
        execute in. The GPU guarantees neither.
    seed:
        Seed for shuffled block order and crash lotteries.
    engine:
        How blocks execute: a :class:`~repro.gpu.engine.LaunchEngine`
        instance, or the name :func:`~repro.gpu.engine.make_engine`
        builds one from — ``"serial"`` (one block at a time, the
        reference) or ``"batched"`` (vectorized block groups) — or
        ``None`` for batched. Both are bit-identical in results; see
        :mod:`repro.gpu.engine`.
    shadow:
        Optional durable write-back target (a
        :class:`~repro.nvm.mapped.MappedShadow`). When given, every
        persistent buffer's NVM image lives in the heap file and
        survives the death of this process.
    """

    spec: GPUSpec = field(default_factory=GPUSpec.v100)
    nvm: NVMSpec = field(default_factory=NVMSpec.dram_like)
    cache_capacity_lines: int | None = None
    block_order: str = "sequential"
    seed: int = 0
    engine: LaunchEngine | str | None = None
    shadow: object | None = None

    def __post_init__(self) -> None:
        if self.block_order not in ("sequential", "shuffled"):
            raise LaunchError(f"unknown block order {self.block_order!r}")
        self.engine = make_engine(self.engine)
        capacity = self.cache_capacity_lines
        if capacity is None:
            capacity = self.spec.l2_bytes // self.spec.line_size
        self.memory = GlobalMemory(
            line_size=self.spec.line_size, cache_capacity_lines=capacity,
            shadow=self.shadow,
        )
        self.cost_model = CostModel(spec=self.spec, nvm=self.nvm)
        self.crashed = False
        #: The most recent crash's :class:`CrashReport` (forensics input).
        self.last_crash_report: CrashReport | None = None
        #: Optional callback fired once per completed block (with the
        #: cumulative completed-block count) by every engine — the
        #: crash harness's "kill after N blocks" trigger point.
        self.block_hook = None
        self._rng = np.random.default_rng(self.seed)
        self._launch_counter = 0

    # ------------------------------------------------------------------
    # Memory façade
    # ------------------------------------------------------------------

    def alloc(self, name, shape, dtype=np.float32, persistent=True, init=None):
        """Allocate a buffer in device global memory."""
        return self.memory.alloc(
            name, shape, dtype=dtype, persistent=persistent, init=init
        )

    def free(self, name: str) -> None:
        """Free a device buffer."""
        self.memory.free(name)

    def drain(self) -> int:
        """Flush the persistence domain (e.g. before a clean shutdown)."""
        return self.memory.drain()

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel: Kernel,
        crash_plan: CrashPlan | None = None,
        block_ids: list[int] | None = None,
        mode: ExecMode = ExecMode.NORMAL,
    ) -> LaunchResult:
        """Run a kernel (optionally only specific blocks, e.g. recovery).

        ``crash_plan`` kills the device after the plan's block count;
        the result reports what the persistence domain lost. After a
        crash the device refuses further launches until
        :meth:`restart`.
        """
        if self.crashed:
            raise CrashedDeviceError(
                "device has crashed; call restart() before launching"
            )
        config = kernel.launch_config()
        order = self._block_order(config, block_ids)
        requested = len(order)

        atomics = AtomicUnit(self.memory)
        crash_report: CrashReport | None = None
        # A crash plan always crashes: either mid-kernel (truncating the
        # block list) or right at kernel completion, with the write-back
        # cache still holding dirty lines.
        crashed = crash_plan is not None
        if crash_plan is not None:
            order = order[:crash_plan.after_blocks]

        # Persist-barrier cost parameters for Eager Persistency kernels:
        # the stall exposes the NVM write latency, amortized over the
        # blocks resident at this block size.
        fence_latency = max(60.0, self.nvm.write_latency_cycles(self.spec))
        fence_concurrency = min(
            config.n_blocks,
            self.spec.concurrent_blocks(config.threads_per_block),
        )

        plan = LaunchPlan(
            kernel=kernel,
            config=config,
            memory=self.memory,
            atomics=atomics,
            mode=mode,
            block_ids=order,
            fence_latency=fence_latency,
            fence_concurrency=fence_concurrency,
            block_hook=self.block_hook,
        )
        rec = _recorder()
        with rec.trace.span(
            "device.launch", cat="device", track="device",
            kernel=kernel.name, engine=self.engine.name, mode=mode.name,
            blocks=len(order),
        ):
            # The engine owns the tally end to end, atomic totals
            # included (Tally.absorb_atomics at its terminal site).
            completed, tally = self.engine.execute(plan)

        if crashed:
            assert crash_plan is not None
            crash_report = self.memory.crash(
                persist_fraction=crash_plan.persist_fraction,
                rng=crash_plan.rng(),
            )
            self.crashed = True
            self.last_crash_report = crash_report

        self._launch_counter += 1
        if rec.metrics.active:
            rec.metrics.inc("device.launches", mode=mode.name)
        return LaunchResult(
            kernel_name=kernel.name,
            config=config,
            completed_blocks=completed,
            crashed=crashed,
            crash_report=crash_report,
            tally=tally,
            time=self.cost_model.time_of(tally),
            requested_blocks=requested,
        )

    def restart(self) -> None:
        """Reboot after a crash; memory shows only persisted contents."""
        self.crashed = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _block_order(
        self, config: LaunchConfig, block_ids: list[int] | None
    ) -> list[int]:
        if block_ids is None:
            order = list(range(config.n_blocks))
        else:
            bad = [b for b in block_ids if not 0 <= b < config.n_blocks]
            if bad:
                raise LaunchError(f"block ids outside grid: {bad[:5]}")
            if len(set(block_ids)) != len(block_ids):
                seen: set[int] = set()
                dups = sorted(
                    {b for b in block_ids if b in seen or seen.add(b)}
                )
                raise LaunchError(
                    f"duplicate block ids in launch: {dups[:5]} — a block "
                    "is one LP region and must execute exactly once "
                    "(re-running it would double-count tallies)"
                )
            order = list(block_ids)
        if self.block_order == "shuffled":
            self._rng.shuffle(order)
        return order
