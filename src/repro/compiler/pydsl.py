"""Executable twin of the directive compiler: a Python kernel DSL.

The CUDA-text path (:mod:`repro.compiler.transform`) demonstrates the
*source transformation*; this module provides the same two-directive
programming experience for kernels that actually run on the simulator:

* :func:`kernel_from_function` turns a plain per-block function into a
  :class:`~repro.gpu.kernel.Kernel`, declaring which buffers LP
  protects (the role of ``lpcuda_checksum``'s placement);
* :func:`lazy_persistent` attaches LP to it with one call, sizing the
  checksum table from the grid (the role of ``lpcuda_init``).

The function is the kernel's block body: :class:`FunctionKernel` is not
``batchable``, so the engine calls it with one immediate
:class:`~repro.gpu.batch.BatchBlockContext` row per block — the batch
API with a leading block axis of 1 (``ctx.block_ids[:, None]`` is the
block's id as a column) — whose stores land as issued under either
engine (a counted fallback under ``batched``). ``validate_fn`` /
``recover_fn``, when given, replace the validation / recovery pass the
same way.

Example
-------

>>> from repro import Device, LPConfig
>>> from repro.compiler.pydsl import kernel_from_function, lazy_persistent
>>> import numpy as np
>>> @kernel_from_function(grid=(4, 1), block=(32, 1), protected=("out",))
... def double_it(ctx):
...     idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
...     ctx.st("out", idx, ctx.ld("inp", idx) * 2)
>>> device = Device()
>>> _ = device.alloc("inp", (128,), np.float32,
...                  init=np.arange(128, dtype=np.float32))
>>> _ = device.alloc("out", (128,), np.float32)
>>> lp_kernel = lazy_persistent(device, double_it)
>>> _ = device.launch(lp_kernel)
>>> bool((device.memory["out"].array == np.arange(128) * 2).all())
True
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import LPConfig
from repro.core.runtime import LazyPersistentKernel, LPRuntime
from repro.gpu.batch import BatchBlockContext
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig


class FunctionKernel(Kernel):
    """A kernel defined by a single per-block function."""

    def __init__(
        self,
        fn: Callable[[BatchBlockContext], None],
        config: LaunchConfig,
        protected: tuple[str, ...],
        name: str | None = None,
        idempotent: bool = True,
        recover_fn: Callable[[BatchBlockContext], None] | None = None,
        validate_fn: Callable[[BatchBlockContext], None] | None = None,
    ) -> None:
        self._fn = fn
        self._config = config
        self.protected_buffers = tuple(protected)
        self.name = name or fn.__name__
        self.idempotent = idempotent
        self._recover_fn = recover_fn
        self._validate_fn = validate_fn

    def launch_config(self) -> LaunchConfig:
        return self._config

    def run_block_batch(self, bctx: BatchBlockContext) -> None:
        self._fn(bctx)

    def validate_block_batch(self, bctx: BatchBlockContext) -> list:
        if self._validate_fn is None:
            return super().validate_block_batch(bctx)
        self._validate_fn(bctx)
        return [None]

    def recover_block_batch(self, bctx: BatchBlockContext) -> None:
        if self._recover_fn is None:
            super().recover_block_batch(bctx)
        else:
            self._recover_fn(bctx)


def kernel_from_function(
    grid: tuple[int, int],
    block: tuple[int, int],
    protected: tuple[str, ...],
    name: str | None = None,
    idempotent: bool = True,
):
    """Decorator: build a :class:`FunctionKernel` from a block function.

    The decorated function receives one block's immediate
    :class:`~repro.gpu.batch.BatchBlockContext` row (leading block axis
    of 1) and computes that thread block. ``protected`` names the output
    buffers Lazy Persistency covers — the Python analogue of placing
    ``lpcuda_checksum`` before the kernel's persistent stores.
    """

    def wrap(fn: Callable[[BatchBlockContext], None]) -> FunctionKernel:
        return FunctionKernel(
            fn,
            LaunchConfig(grid=grid, block=block),
            protected=protected,
            name=name or fn.__name__,
            idempotent=idempotent,
        )

    return wrap


def lazy_persistent(
    device: Device,
    kernel: Kernel,
    config: LPConfig | None = None,
    table_name: str | None = None,
) -> LazyPersistentKernel:
    """Attach Lazy Persistency to a kernel (the ``lpcuda_init`` analogue).

    Sizes and allocates the checksum table from the kernel's grid
    (``nelems = grid.x * grid.y``) and wraps the kernel with the LP
    runtime.
    """
    runtime = LPRuntime(device, config or LPConfig.paper_best())
    return runtime.instrument(kernel, table_name=table_name)
