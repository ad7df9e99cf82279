"""Seeded Python-DSL lplint offenders for the persistency race rules.

Each class trips exactly one of the LP008-LP010 rules; the module is
both a *file-mode* lint fixture (CI negative-checks it like
``bad_kernel.cu``) and a *runnable* case source for the crash-state
model checker — ``make_offender_case`` builds a live, LP-instrumented
launch so ``repro.analysis.crashmc`` can confirm the hazards the static
rules claim (or, for LP010, record the bounded-conservative verdict).

Intentional defects — do not "fix" these kernels:

* ``LP008WrapKernel`` folds block identity through ``% 2`` so blocks
  ``b`` and ``b + 2`` write the same elements: validation can never
  settle (each re-execution of one writer invalidates the other).
* ``LP009FeedbackKernel`` stores ``ld(out) + 1``: after a partial
  persist, default re-execution recovery reads already-new elements
  and double-applies the increment.
* ``LP010SharedEscapeKernel`` calls ``syncthreads`` under a
  thread-dependent branch and then persists a shared-memory value.

Each writes the one block body there is, ``run_block_batch``, over a
leading block axis (of 1 on the immediate rows these kernels run on).
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import Kernel, LaunchConfig


class LP008WrapKernel(Kernel):
    """Blocks b and b+2 write the same 'race_out' elements (no atomics)."""

    name = "lp008-wrap"
    protected_buffers = ("race_out",)
    idempotent = True

    def __init__(self, n_blocks: int = 4, threads: int = 8) -> None:
        self.n_blocks = n_blocks
        self.threads = threads

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_blocks, self.threads)

    def block_output_map(self, block_id):
        base = (block_id % 2) * self.threads
        return {"race_out": base + np.arange(self.threads)}

    def run_block_batch(self, bctx) -> None:
        block = bctx.block_ids[:, None]
        base = (block % 2) * self.threads
        bctx.st("race_out", base + bctx.tid, 1.0 + block, slots=bctx.tid)


class LP009FeedbackKernel(Kernel):
    """Stores ld('acc_out') + 1 under default re-execution recovery."""

    name = "lp009-feedback"
    protected_buffers = ("acc_out",)
    idempotent = True

    def __init__(self, n_blocks: int = 4, threads: int = 64) -> None:
        self.n_blocks = n_blocks
        self.threads = threads

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_blocks, self.threads)

    def block_output_map(self, block_id):
        base = block_id * self.threads
        return {"acc_out": base + np.arange(self.threads)}

    def run_block_batch(self, bctx) -> None:
        idx = bctx.block_ids[:, None] * self.threads + bctx.tid
        prev = bctx.ld("acc_out", idx)
        bctx.st("acc_out", idx, prev + np.float32(1.0), slots=bctx.tid)


class LP010SharedEscapeKernel(Kernel):
    """Persists a shared value staged across a divergent barrier."""

    name = "lp010-shared-escape"
    protected_buffers = ("esc_out",)
    idempotent = True

    def __init__(self, n_blocks: int = 2, threads: int = 8) -> None:
        self.n_blocks = n_blocks
        self.threads = threads

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_blocks, self.threads)

    def block_output_map(self, block_id):
        base = block_id * self.threads
        return {"esc_out": base + np.arange(self.threads)}

    def run_block_batch(self, bctx) -> None:
        idx = bctx.block_ids[:, None] * self.threads + bctx.tid
        tile = bctx.shared.alloc("tile", (self.threads,), np.float32)
        tile[:] = bctx.ld("esc_in", idx)
        # The branch condition is thread-derived: on real hardware only
        # part of the block reaches this barrier. (The warp-synchronous
        # simulator executes it uniformly, which is exactly why this
        # hazard needs a static rule.)
        if int(bctx.tid[0]) == 0:
            bctx.syncthreads()
        bctx.st("esc_out", idx, tile * np.float32(2.0), slots=bctx.tid)


# ---------------------------------------------------------------------------
# Live-case construction for the model checker
# ---------------------------------------------------------------------------

OFFENDERS = ("lp008-wrap", "lp009-feedback", "lp010-shared-escape")


def make_offender_case(name: str, shadow=None, engine: str = "serial",
                       cache_lines: int = 4):
    """Build ``(device, lp_kernel)`` for one offender, crashmc-style."""
    import repro

    device = repro.Device(cache_capacity_lines=cache_lines,
                          engine=engine,
                          shadow=shadow)
    if name == "lp008-wrap":
        kernel = LP008WrapKernel()
        device.alloc("race_out", (2 * kernel.threads,), np.float32,
                     persistent=True)
    elif name == "lp009-feedback":
        kernel = LP009FeedbackKernel()
        device.alloc("acc_out", (kernel.n_blocks * kernel.threads,),
                     np.float32, persistent=True)
    elif name == "lp010-shared-escape":
        kernel = LP010SharedEscapeKernel()
        n = 2 * 8
        rng = np.random.default_rng(7)
        device.alloc("esc_in", (n,), np.float32, persistent=True,
                     init=rng.random(n, dtype=np.float32))
        device.alloc("esc_out", (n,), np.float32, persistent=True)
    else:
        raise ValueError(f"unknown offender {name!r}")
    lp_kernel = repro.LPRuntime(device, repro.LPConfig.paper_best()).instrument(
        kernel
    )
    return device, lp_kernel
