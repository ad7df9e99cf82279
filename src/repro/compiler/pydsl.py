"""Executable twin of the directive compiler: a Python kernel DSL.

The CUDA-text path (:mod:`repro.compiler.transform`) demonstrates the
*source transformation*; this module provides the same two-directive
programming experience for kernels that actually run on the simulator:

* :func:`kernel_from_function` turns a plain per-block function into a
  :class:`~repro.gpu.kernel.Kernel`, declaring which buffers LP
  protects (the role of ``lpcuda_checksum``'s placement);
* :func:`lazy_persistent` attaches LP to it with one call, sizing the
  checksum table from the grid (the role of ``lpcuda_init``).

The function is a scalar body: :class:`FunctionKernel` overrides
``run_block`` (and ``validate_block`` / ``recover_block`` when given
functions for them), and the engine's batch entries run it on the
:class:`~repro.gpu.kernel.BlockContext` of one immediate row per block,
so its stores land as issued under either engine (a counted fallback
under ``batched``).

Example
-------

>>> from repro import Device, LPConfig
>>> from repro.compiler.pydsl import kernel_from_function, lazy_persistent
>>> import numpy as np
>>> @kernel_from_function(grid=(4, 1), block=(32, 1), protected=("out",))
... def double_it(ctx):
...     idx = ctx.block_id * ctx.n_threads + ctx.tid
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
from repro.gpu.device import Device
from repro.gpu.kernel import BlockContext, Kernel, LaunchConfig


class FunctionKernel(Kernel):
    """A kernel defined by a single per-block function."""

    def __init__(
        self,
        fn: Callable[[BlockContext], None],
        config: LaunchConfig,
        protected: tuple[str, ...],
        name: str | None = None,
        idempotent: bool = True,
        recover_fn: Callable[[BlockContext], None] | None = None,
        validate_fn: Callable[[BlockContext], None] | None = None,
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

    def run_block(self, ctx: BlockContext) -> None:
        self._fn(ctx)

    def validate_block(self, ctx: BlockContext) -> None:
        if self._validate_fn is not None:
            self._validate_fn(ctx)
        else:
            super().validate_block(ctx)

    def recover_block(self, ctx: BlockContext) -> None:
        if self._recover_fn is not None:
            self._recover_fn(ctx)
        else:
            super().recover_block(ctx)


def kernel_from_function(
    grid: tuple[int, int],
    block: tuple[int, int],
    protected: tuple[str, ...],
    name: str | None = None,
    idempotent: bool = True,
):
    """Decorator: build a :class:`FunctionKernel` from a block function.

    The decorated function receives a
    :class:`~repro.gpu.kernel.BlockContext` and computes one thread
    block. ``protected`` names the output buffers Lazy Persistency
    covers — the Python analogue of placing ``lpcuda_checksum`` before
    the kernel's persistent stores.
    """

    def wrap(fn: Callable[[BlockContext], None]) -> FunctionKernel:
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
