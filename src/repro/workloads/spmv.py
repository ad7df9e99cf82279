"""SPMV — sparse matrix-dense vector multiplication (Parboil).

``y = A @ x`` with ``A`` in CSR form and a uniform number of non-zeros
per row (Parboil's JDS-padded layout has the same uniform-work
property). Memory-bandwidth bound (Table I): each multiply-add streams
a value, a column index, and a gathered ``x`` element.

LP structure: one thread per row, blocks own disjoint row ranges.

Execution: ``run_block_batch`` is the one body, one ``(blocks,
threads)`` array program per group; ``serial`` runs it one block at a
time (as immediate rows, :mod:`repro.gpu.batch`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload
from repro.workloads.generators import sparse_csr, unit_floats

#: (n_rows, n_cols, nnz_per_row, threads_per_block) per scale.
_SCALE_SHAPES = {
    "tiny": (64, 64, 4, 16),
    "small": (512, 512, 8, 64),
    "medium": (2048, 2048, 16, 128),
}


class SPMVKernel(Kernel):
    """One thread computes one output row's dot product."""

    name = "spmv"
    protected_buffers = ("spmv_y",)
    idempotent = True

    def __init__(self, n_rows: int, nnz_per_row: int, threads: int) -> None:
        if n_rows % threads:
            raise LaunchError("n_rows must be a multiple of block size")
        self.n_rows = n_rows
        self.nnz_per_row = nnz_per_row
        self.threads = threads

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_rows // self.threads, self.threads)

    def block_output_map(self, block_id):
        base = block_id * self.threads
        return {"spmv_y": base + np.arange(self.threads)}

    #: Blocks own disjoint row ranges and never read ``spmv_y``, so a
    #: whole group of blocks is one (blocks × threads) array program.
    batchable = True

    def run_block_batch(self, bctx) -> None:
        rows = bctx.block_ids[:, None] * self.threads + bctx.tid  # (B, T)
        acc = np.zeros(rows.shape, dtype=np.float32)
        base = rows * self.nnz_per_row
        for k in range(self.nnz_per_row):
            vals = bctx.ld("spmv_vals", base + k)
            cols = bctx.ld("spmv_cols", base + k)
            xk = bctx.ld("spmv_x", cols)
            acc += vals * xk
            bctx.flops(2)
        bctx.st("spmv_y", rows, acc, slots=bctx.tid)


class SPMVWorkload(Workload):
    """CSR sparse matrix-vector product."""

    name = "spmv"
    exact = False

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        (self.n_rows, self.n_cols,
         self.nnz_per_row, self.threads) = _SCALE_SHAPES[scale]
        self._row_ptr, self._cols, self._vals = sparse_csr(
            self.rng, self.n_rows, self.n_cols, self.nnz_per_row
        )
        self._x = unit_floats(self.rng, self.n_cols)

    def setup(self, device: Device) -> SPMVKernel:
        device.alloc("spmv_vals", (self._vals.size,), np.float32,
                     persistent=True, init=self._vals)
        device.alloc("spmv_cols", (self._cols.size,), np.int32,
                     persistent=True, init=self._cols)
        device.alloc("spmv_x", (self.n_cols,), np.float32,
                     persistent=True, init=self._x)
        device.alloc("spmv_y", (self.n_rows,), np.float32, persistent=True)
        return SPMVKernel(self.n_rows, self.nnz_per_row, self.threads)

    def reference(self) -> dict[str, np.ndarray]:
        vals = self._vals.reshape(self.n_rows, self.nnz_per_row)
        cols = self._cols.reshape(self.n_rows, self.nnz_per_row)
        y = np.zeros(self.n_rows, dtype=np.float32)
        for k in range(self.nnz_per_row):
            y += vals[:, k] * self._x[cols[:, k]]
        return {"spmv_y": y}
