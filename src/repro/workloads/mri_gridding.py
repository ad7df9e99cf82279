"""MRI-GRIDDING — gridding scattered k-space samples (Parboil).

Resamples non-uniform k-space measurements onto a Cartesian grid,
weighting each sample by a (Gaussian-window) gridding kernel of its
distance to the cell. Parboil's implementation scatters; ours *gathers*
per output cell, which preserves the computation while giving every
thread block a disjoint output tile — the associativity LP regions
need. At paper scale this kernel launches 65 536 thread blocks, second
only to SAD (Table III), which is why it is the other benchmark the
hash-table checksums crumble on.

LP structure: each block owns one tile of grid cells; all samples are
shared read-only input.

Execution: ``run_block_batch`` is the one body. It grids a group of
tiles in one ``(blocks, cells, samples)`` pass per sample chunk;
``serial`` runs it one block at a time
(as immediate rows, :mod:`repro.gpu.batch`). It forms a tile's squared
distances with :func:`_tile_r2` (``dx²`` once per column, ``dy²`` once
per row) and weights them with :func:`_window` (``exp`` only where the
pair is inside the support). Each element gets exactly the float32
operations of ``np.where(r2 < support2, exp(-(dx*dx + dy*dy) *
inv_w2), 0)``, and the ``(..., cells, chunk)`` array each cell's sum
reduces keeps its shape, order and zeros.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload

#: (grid_edge, tile_edge, n_samples, kernel_width) per scale.
_SCALE_SHAPES = {
    "tiny": (16, 4, 64, 1.5),
    "small": (32, 4, 256, 1.5),
    "medium": (64, 8, 1024, 2.0),
}

#: Samples are consumed in chunks of this size.
_CHUNK = 64


def _tile_r2(cols: np.ndarray, rows: np.ndarray, sx: np.ndarray,
             sy: np.ndarray) -> np.ndarray:
    """Squared distance of every cell of a tile to every sample.

    ``cols`` / ``rows`` are a tile's float32 column / row coordinates,
    shape ``(..., tile)``; the result is ``(..., tile * tile, samples)``
    in cell order ``ty * tile + tx``. A cell's ``dx`` depends only on
    its column and its ``dy`` only on its row, so each is squared once
    per column / row, and the one broadcast add is the cell's
    ``dx*dx + dy*dy`` bit for bit.
    """
    dx = cols[..., :, None] - sx
    dy = rows[..., :, None] - sy
    dx2 = dx * dx
    dy2 = dy * dy
    r2 = dx2[..., None, :, :] + dy2[..., :, None, :]
    return r2.reshape(*r2.shape[:-3], -1, sx.size)


def _window(r2: np.ndarray, support2: np.float32,
            inv_w2: np.float32) -> np.ndarray:
    """``np.where(r2 < support2, np.exp(-r2 * inv_w2), 0)``, with the
    ``exp`` evaluated only on the pairs inside the support (about one in
    a hundred at ``medium``); every other weight is 0."""
    inside = np.flatnonzero(r2 < support2)
    w = np.zeros_like(r2)
    w.reshape(-1)[inside] = np.exp(-r2.reshape(-1)[inside] * inv_w2)
    return w


class MRIGriddingKernel(Kernel):
    """One block grids all samples onto its tile of cells (gather)."""

    name = "mri-gridding"
    protected_buffers = ("mrig_grid",)
    idempotent = True

    def __init__(self, grid: int, tile: int, n_samples: int,
                 width: float) -> None:
        if grid % tile:
            raise LaunchError("grid edge must be a tile multiple")
        self.grid = grid
        self.tile = tile
        self.n_samples = n_samples
        self.width = np.float32(width)

    def launch_config(self) -> LaunchConfig:
        blocks = self.grid // self.tile
        return LaunchConfig(grid=(blocks, blocks),
                            block=(self.tile, self.tile))

    def block_output_map(self, block_id):
        grid, tile = self.grid, self.tile
        bx, by = self.launch_config().block_coords(block_id)
        rows = (by * tile + np.arange(tile)) * grid
        cols = bx * tile + np.arange(tile)
        return {"mrig_grid": np.add.outer(rows, cols).ravel()}

    #: The gather formulation writes disjoint tiles and reads only the
    #: samples, so a group is one (blocks × cells × samples) program.
    #: Bit-identity across group sizes rests on the float32 reduction
    #: staying per cell over the same contiguous trailing chunk axis.
    batchable = True

    def run_block_batch(self, bctx) -> None:
        tile, grid = self.tile, self.grid
        bx, by = bctx.block_xy
        tx, ty = bctx.thread_xy()
        x0, y0 = (bx * tile)[:, None], (by * tile)[:, None]
        col, row = x0 + tx, y0 + ty  # (B, T)
        cols = (x0 + np.arange(tile)).astype(np.float32)  # (B, tile)
        rows = (y0 + np.arange(tile)).astype(np.float32)

        acc = np.zeros(col.shape, dtype=np.float32)
        inv_w2 = np.float32(1.0) / (self.width * self.width)
        support2 = np.float32((2.0 * float(self.width)) ** 2)
        for s0 in range(0, self.n_samples, _CHUNK):
            s_idx = np.arange(s0, min(s0 + _CHUNK, self.n_samples))
            # One read serves the group; each block is charged its own.
            charge = s_idx.size * bctx.n_blocks_in_batch
            sx = bctx.ld("mrig_samples", s_idx * 3 + 0, charge_elements=charge)
            sy = bctx.ld("mrig_samples", s_idx * 3 + 1, charge_elements=charge)
            sv = bctx.ld("mrig_samples", s_idx * 3 + 2, charge_elements=charge)
            r2 = _tile_r2(cols, rows, sx, sy)  # (B, T, chunk)
            w = _window(r2, support2, inv_w2)
            acc += (w * sv).sum(axis=-1, dtype=np.float32)
            bctx.flops(9 * s_idx.size)  # dist + exp window + MAC

        bctx.st("mrig_grid", row * grid + col, acc, slots=bctx.tid)


class MRIGriddingWorkload(Workload):
    """Gridding of scattered samples onto a Cartesian lattice."""

    name = "mri-gridding"
    exact = False

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        self.grid, self.tile, self.n_samples, width = _SCALE_SHAPES[scale]
        self.width = np.float32(width)
        samples = np.empty((self.n_samples, 3), dtype=np.float32)
        samples[:, 0] = self.rng.random(self.n_samples,
                                        dtype=np.float32) * self.grid
        samples[:, 1] = self.rng.random(self.n_samples,
                                        dtype=np.float32) * self.grid
        samples[:, 2] = (self.rng.random(self.n_samples, dtype=np.float32)
                         * 2.0 - 1.0)
        self._samples = samples

    def setup(self, device: Device) -> MRIGriddingKernel:
        device.alloc("mrig_samples", (self.n_samples * 3,), np.float32,
                     persistent=True, init=self._samples.reshape(-1))
        device.alloc("mrig_grid", (self.grid * self.grid,), np.float32,
                     persistent=True)
        return MRIGriddingKernel(self.grid, self.tile, self.n_samples,
                                 float(self.width))

    def reference(self) -> dict[str, np.ndarray]:
        gx, gy = np.meshgrid(np.arange(self.grid, dtype=np.float64),
                             np.arange(self.grid, dtype=np.float64))
        cx, cy = gx.ravel(), gy.ravel()
        out = np.zeros(self.grid * self.grid, dtype=np.float64)
        inv_w2 = 1.0 / float(self.width) ** 2
        support2 = (2.0 * float(self.width)) ** 2
        for x, y, v in self._samples.astype(np.float64):
            r2 = (cx - x) ** 2 + (cy - y) ** 2
            mask = r2 < support2
            out[mask] += np.exp(-r2[mask] * inv_w2) * v
        return {"mrig_grid": out.astype(np.float32)}
