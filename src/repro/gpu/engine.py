"""The launch engine: how a launch's thread blocks get executed.

The paper's central observation is that LP regions (= thread blocks) are
*associative*: the GPU guarantees no inter-block ordering, so any
schedule that applies every block's effects exactly once is legal
(Section IV-A; Lin & Solihin make the same assumption for GPU
persistency models generally). The simulator exploits exactly that
property here. :class:`~repro.gpu.device.Device.launch` delegates the
block loop to a :class:`LaunchEngine`, which holds one choice:
**vectorize** — run a *group* of homogeneous blocks as one pass over an
extra numpy axis and defer its stores, instead of one block at a time.
Every block runs in this process, and every pass runs on a
:class:`~repro.gpu.batch.BatchBlockContext` through the kernel's batch
entries (``run_block_batch`` / ``validate_block_batch`` /
``recover_block_batch``) — the one block context there is.

The two engine names are the two settings of that choice
(:func:`make_engine`): ``serial`` = scalar — the reference loop every
parity matrix compares against, run only where it is named; ``batched``
= vector — the default, what everything else runs. A given *launch*
lands in one of two cells:

==============  =====================================================
scalar          one immediate row per block: a one-row
                ``BatchBlockContext`` whose stores land as they are
                issued, one ``write`` per store (per word of a record),
                built by :func:`_row`
vector          ``group_size`` blocks per deferred ``BatchBlockContext``;
                stores (a global-array checksum insert among them)
                recorded, then landed in one
                :meth:`~repro.gpu.memory.GlobalMemory.write_rows` pass
==============  =====================================================

``serial`` stays immediate on purpose: deferred groups of one would
make both parity arms the same landing path, and the matrices would
lose their reference. The vector cell is a batchable launch under
``batched``; everything else is the scalar cell — ``serial``, a
non-batchable kernel under ``batched``, a
:class:`~repro.errors.BatchFallbackError` group's re-run.

In both cells effects are applied **in the launch's block order**, so
cache recency, eviction order, NVM shadow state, write statistics,
checksum tables and crash semantics do not depend on the cell. The
vector cell gets there without one ``write`` per store: it replays the
group's cache recency on line ids alone, step by step, then lands the
data in as few assignments per buffer as the evictions allow — a step
that re-touches a line still waiting for its write-back cuts the
sequence, so every write-back copies what the steps up to its own left.
Write-backs stay one call per evicting step, in order, so the durable
heap sees the scalar cell's arm / copy / commit brackets. A hash-table
insert reads the table, so it ends a segment and runs on an immediate
row of its block after that block's stores (in the scalar cell, the
block's own row at the end of its LP pass).

Determinism contract: given the same plan, the vector cell must produce
the same ``completed_blocks``, the same tally, the same volatile + NVM
memory images, the same write-back statistics and the same
checksum-table contents as the scalar cell. The parity test suite
(``tests/gpu/test_engines.py``) pins this bit-for-bit.

The post-crash pipeline rides the same cells: ``VALIDATE`` blocks
*return* per-block outcome records (recomputed checksum lanes) instead
of mutating host state, so either cell can run them and then hand the
collected records — in the launch's block order — to
:meth:`~repro.gpu.kernel.Kernel.merge_validation_outcomes` for one
deterministic grid-wide table compare. ``RECOVER`` re-execution batches
exactly like forward execution (table refreshes stay deferred to
launch-order application). The NORMAL / VALIDATE / RECOVER switch
exists once (:func:`_run_pass`).

**Fallbacks.** One rule: blocks that run as immediate rows under a
vectorizing engine are a fallback — a whole launch whose kernel is not
``batchable``, or a single block group whose kernel raised
:class:`~repro.errors.BatchFallbackError` (before any effect) because
its input needs per-block execution. Each is counted per kernel in
``engine.fallbacks`` (attribute and metric), and the blocks are
reported under the configured engine's name.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from repro.errors import BatchFallbackError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import Tally
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.obs import current as _recorder

#: Block-group granularity of immediate-row tracing spans: fine enough
#: to see progress, coarse enough that a 10k-block launch stays a
#: loadable timeline.
TRACE_GROUP_BLOCKS = 64


@dataclass
class LaunchPlan:
    """Everything an engine needs to execute one launch's blocks.

    ``block_ids`` is the final execution order, already shuffled and
    crash-truncated by the device; engines run exactly these blocks and
    nothing else.
    """

    kernel: Kernel
    config: LaunchConfig
    memory: GlobalMemory
    atomics: AtomicUnit
    mode: ExecMode
    block_ids: list[int]
    fence_latency: float = 660.0
    fence_concurrency: int = 1
    #: Optional callback fired with the cumulative completed-block
    #: count each time a block's effects land in the plan's memory
    #: (immediate rows and deferred groups alike).
    #: The crash harness's "kill after N blocks" trigger point.
    block_hook: object | None = None

    def new_tally(self) -> Tally:
        """A zeroed launch-level tally with this plan's geometry."""
        return Tally(
            n_blocks=self.config.n_blocks,
            threads_per_block=self.config.threads_per_block,
        )


def _row(plan: LaunchPlan, block_id: int) -> BatchBlockContext:
    """The immediate row of one block of ``plan``: what every block
    outside a deferred group, and every deferred table insert, runs
    on."""
    return BatchBlockContext(plan.memory, plan.config, (block_id,),
                             plan.mode, plan.atomics, immediate=True,
                             fence_latency=plan.fence_latency,
                             fence_concurrency=plan.fence_concurrency)


def _run_pass(kernel: Kernel, bctx: BatchBlockContext, mode: ExecMode,
              outcomes: list) -> None:
    """Run one pass — a deferred group or one immediate row — on
    ``bctx`` as ``mode`` asks: the one mode switch."""
    if mode is ExecMode.VALIDATE:
        outcomes.extend(kernel.validate_block_batch(bctx))
    elif mode is ExecMode.RECOVER:
        kernel.recover_block_batch(bctx)
    else:
        kernel.run_block_batch(bctx)


def _apply_batch_records(plan: LaunchPlan, bctx: BatchBlockContext,
                         tally: Tally, completed: list[int]) -> None:
    """Land a deferred group's effects in one memory pass.

    The group's store records (row = block, in launch order) go through
    one :meth:`~repro.gpu.memory.GlobalMemory.write_rows`; inserts the
    batch context could only defer (an order-dependent table's) run
    after their block's row, each on an immediate row of its block.
    """
    memory = plan.memory
    records = [
        (tuple(memory[n] for n in name) if isinstance(name, tuple)
         else memory[name], idx, vals, mask)
        for name, idx, vals, mask in bctx.store_records
    ]
    block_ids = bctx.block_ids.tolist()
    after_row = None
    if bctx.table_inserts is not None:
        insert, lanes = bctx.table_inserts
        def after_row(row: int) -> None:
            ctx = _row(plan, block_ids[row])
            insert(ctx, block_ids[row], lanes[row])
            tally.merge(ctx.finalize_tally())
    memory.write_rows(len(block_ids), records, after_row)
    completed.extend(block_ids)
    if plan.block_hook is not None:
        for n in range(len(completed) - len(block_ids) + 1,
                       len(completed) + 1):
            plan.block_hook(n)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class LaunchEngine:
    """Executes a launch plan's thread blocks, vectorized or not.

    ``vectorize`` lets ``batchable`` kernels run ``group_size`` blocks
    per deferred :class:`~repro.gpu.batch.BatchBlockContext` pass;
    everything else runs as immediate rows. Build one
    through :func:`make_engine` (or ``Device(engine="...")``), which
    maps the two engine names onto that choice; ``name`` is what spans,
    metrics and reports carry.

    Requirements on ``batchable`` kernels: every load must decide on
    the group's starting image what it would decide mid-launch (see
    the contract in :mod:`repro.gpu.batch` — block-disjoint outputs
    give it for free; kernels that claim slots establish it per input).
    An LP wrapper is ``batchable`` iff its inner kernel is.
    """

    def __init__(self, name: str, vectorize: bool,
                 group_size: int = 256) -> None:
        if group_size < 1:
            raise LaunchError(
                f"engine {name!r} needs group_size >= 1, got {group_size}")
        #: Stable identifier used by :func:`make_engine` and reports.
        self.name = name
        self.vectorize = vectorize
        self.group_size = group_size
        #: Fallbacks by kernel name (see :meth:`_count_fallback`).
        #: Kept on the engine (not only in the metrics registry) so a
        #: caller with no recorder installed can still ask.
        self.fallbacks: collections.Counter = collections.Counter()

    def execute(self, plan: LaunchPlan) -> tuple[list[int], Tally]:
        """Run every block in ``plan.block_ids``.

        Returns the completed block ids (in execution order) and the
        launch tally, atomic totals included.
        """
        tally = plan.new_tally()
        completed: list[int] = []
        outcomes: list = []
        defer = self.vectorize and plan.kernel.batchable
        if self.vectorize and not defer:
            self._count_fallback(plan)
        self._run(plan, plan.block_ids, defer, tally, completed, outcomes)
        rec = _recorder()
        if plan.mode is ExecMode.VALIDATE:
            with rec.trace.span(
                "engine.validate.merge", cat="engine", track="engine",
                engine=self.name, blocks=len(completed),
            ):
                plan.kernel.merge_validation_outcomes(outcomes)
        tally.absorb_atomics(plan.atomics)
        if rec.metrics.active:
            rec.metrics.inc("engine.blocks.completed", len(completed),
                            engine=self.name)
        return completed, tally

    def _count_fallback(self, plan: LaunchPlan) -> None:
        """Count one fallback (module docstring) against the kernel."""
        self.fallbacks[plan.kernel.name] += 1
        rec = _recorder()
        if rec.metrics.active:
            rec.metrics.inc("engine.fallbacks", engine=self.name,
                            kernel=plan.kernel.name)

    def _run(self, plan: LaunchPlan, block_ids: list[int], defer: bool,
             tally: Tally, completed: list[int], outcomes: list) -> None:
        """Run ``block_ids`` in launch order, in this process: deferred
        groups of ``group_size`` (one ``engine.group`` span each), or
        immediate rows (one ``engine.blocks`` span per 64 blocks when
        tracing, else one null span around the whole loop, so the hot
        loop stays branch-free per block).

        A deferred group whose kernel raises
        :class:`~repro.errors.BatchFallbackError` has had no effect yet
        (that is the exception's contract); its blocks re-run as rows.
        """
        rec = _recorder()
        if defer:
            span, step = "engine.group", self.group_size
        else:
            span = "engine.blocks"
            step = TRACE_GROUP_BLOCKS if rec.trace.enabled \
                else max(1, len(block_ids))
        for lo in range(0, len(block_ids), step):
            group = block_ids[lo:lo + step]
            with rec.trace.span(
                span, cat="engine", track="engine",
                engine=self.name, mode=plan.mode.name,
                first=group[0], count=len(group),
            ):
                if not defer:
                    for block_id in group:
                        _run_row(plan, block_id, tally, completed, outcomes)
                    continue
                bctx = BatchBlockContext(
                    plan.memory, plan.config, group, mode=plan.mode,
                    atomics=plan.atomics,
                )
                try:
                    _run_pass(plan.kernel, bctx, plan.mode, outcomes)
                except BatchFallbackError:
                    self._count_fallback(plan)
                    self._run(plan, group, False, tally, completed, outcomes)
                else:
                    tally.merge(bctx.finalize_tally())
                    _apply_batch_records(plan, bctx, tally, completed)
            if defer and rec.metrics.active:
                rec.metrics.inc("engine.scheduling.groups",
                                engine=self.name)


def _run_row(plan: LaunchPlan, block_id: int, tally: Tally,
             completed: list[int], outcomes: list) -> None:
    """One block as an immediate row: its pass lands its stores (a
    hash-table insert among them) as they are issued."""
    row = _row(plan, block_id)
    _run_pass(plan.kernel, row, plan.mode, outcomes)
    tally.merge(row.finalize_tally())
    completed.append(block_id)
    if plan.block_hook is not None:
        plan.block_hook(len(completed))


#: What each engine name stands for: whether it vectorizes. The one
#: list of engine names — CLI ``choices``, the harness defaults and the
#: stats schema's enum all derive from (or are pinned to) it.
ENGINES = {
    "serial": False,
    "batched": True,
}


def make_engine(spec: LaunchEngine | str | None) -> LaunchEngine:
    """Resolve an engine spec: instance, name, or ``None`` (batched)."""
    if isinstance(spec, LaunchEngine):
        return spec
    name = "batched" if spec is None else spec
    if name not in ENGINES:
        raise LaunchError(
            f"unknown launch engine {spec!r}; expected "
            + " or ".join(repr(n) for n in ENGINES)
        )
    return LaunchEngine(name, ENGINES[name])
