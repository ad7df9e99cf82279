"""Tiled matrix multiplication (TMM) — the paper's running example.

``C = A @ B`` over ``n x n`` int32 matrices (the paper's Listing 2 uses
``int``). Each thread block computes one ``tile x tile`` output tile:
the block sweeps the shared dimension in tiles, staging ``A`` and ``B``
tiles through shared memory with ``__syncthreads()`` between load and
use — the canonical CUDA matmul structure.

Each block's stores (its C tile) are disjoint from every other
block's, so blocks are associative, idempotent LP regions. The paper's
4096×4096 run (tile 32) yields the 16 384 thread blocks of Table III;
the functional scales here shrink ``n`` while preserving the structure.

Execution: ``run_block_batch`` is the one body: a group's tiles are one
stacked integer matmul per step of the shared dimension, and ``serial``
runs it one block at a time (as immediate rows, :mod:`repro.gpu.batch`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload
from repro.workloads.generators import small_ints

#: (n, tile) per scale; paper scale is (4096, 32).
_SCALE_SHAPES = {
    "tiny": (16, 4),
    "small": (64, 8),
    "medium": (128, 16),
}


class TiledMatMulKernel(Kernel):
    """One thread block computes one output tile of C."""

    name = "tmm"
    protected_buffers = ("tmm_C",)
    idempotent = True
    batchable = True

    def __init__(self, n: int, tile: int) -> None:
        if n % tile:
            raise LaunchError("matrix size must be a tile multiple")
        self.n = n
        self.tile = tile

    def launch_config(self) -> LaunchConfig:
        blocks = self.n // self.tile
        return LaunchConfig(grid=(blocks, blocks),
                            block=(self.tile, self.tile))

    def block_output_map(self, block_id):
        n, tile = self.n, self.tile
        bx, by = self.launch_config().block_coords(block_id)
        rows = (by * tile + np.arange(tile)) * n
        cols = bx * tile + np.arange(tile)
        return {"tmm_C": np.add.outer(rows, cols).ravel()}

    def run_block_batch(self, bctx) -> None:
        n, tile = self.n, self.tile
        bx, by = bctx.block_xy
        tx, ty = bctx.thread_xy()
        row = (by * tile)[:, None] + ty
        col = (bx * tile)[:, None] + tx
        n_batch = bctx.n_blocks_in_batch

        acc = np.zeros((n_batch, bctx.n_threads), dtype=np.int64)
        for kt in range(n // tile):
            a_idx = row * n + (kt * tile + tx)
            b_idx = (kt * tile + ty)[None, :] * n + col
            # Stage one tile of A and one of B per block: a row-major
            # reshape gives the shared-memory layout [ty, tx] (tid =
            # ty * tile + tx).
            tile_a = bctx.ld("tmm_A", a_idx).reshape(n_batch, tile, tile)
            tile_b = bctx.ld("tmm_B", b_idx).reshape(n_batch, tile, tile)
            bctx.charge_shared(bctx.n_threads * 2 * 4)  # the two tile writes
            bctx.syncthreads()

            partial = np.matmul(tile_a.astype(np.int64),
                                tile_b.astype(np.int64))
            acc += partial.reshape(n_batch, -1)
            bctx.flops(2 * tile)
            # Each thread reads 2*tile shared values of 4 bytes.
            bctx.charge_shared(bctx.n_threads * 2 * tile * 4)
            bctx.syncthreads()

        bctx.st("tmm_C", row * n + col, acc.astype(np.int32),
                slots=bctx.tid)


class TMMWorkload(Workload):
    """Tiled matrix multiplication workload (int32, exact)."""

    name = "tmm"
    exact = True

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        self.n, self.tile = _SCALE_SHAPES[scale]
        self._a = small_ints(self.rng, (self.n, self.n))
        self._b = small_ints(self.rng, (self.n, self.n))

    def setup(self, device: Device) -> TiledMatMulKernel:
        device.alloc("tmm_A", (self.n, self.n), np.int32, persistent=True,
                     init=self._a)
        device.alloc("tmm_B", (self.n, self.n), np.int32, persistent=True,
                     init=self._b)
        device.alloc("tmm_C", (self.n, self.n), np.int32, persistent=True)
        return TiledMatMulKernel(self.n, self.tile)

    def reference(self) -> dict[str, np.ndarray]:
        c = self._a.astype(np.int64) @ self._b.astype(np.int64)
        return {"tmm_C": c.astype(np.int32)}
