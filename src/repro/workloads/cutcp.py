"""CUTCP — distance-cutoff Coulombic potential (Parboil).

Computes the electrostatic potential on a regular 2-D lattice from a
set of point charges, zeroing contributions beyond a cutoff radius.
Instruction-throughput bound (Table I): heavy per-point arithmetic
(distance, reciprocal square root) against modest memory traffic.

LP structure: each block owns a disjoint tile of lattice points; every
block reads all atoms (a small, persistent input).

Execution: ``run_block_batch`` is the one body. It evaluates a group of
tiles in one ``(blocks, points, atoms)`` pass per atom chunk;
``serial`` runs it one block at a time
(as immediate rows, :mod:`repro.gpu.batch`). It forms a tile's squared
distances with MRI-GRIDDING's ``_tile_r2`` (``dx²`` once per column,
``dy²`` once per row) and each pair's term with :func:`_potential`.
Each element gets exactly the float32 operations of ``q / sqrt(dx*dx +
dy*dy)`` inside the cutoff shell and 0 outside, and the ``(...,
points, chunk)`` array each point's sum reduces keeps its shape, order
and zeros.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload
from repro.workloads.mri_gridding import _tile_r2

#: (grid_edge, tile_edge, n_atoms, cutoff) per scale.
_SCALE_SHAPES = {
    "tiny": (16, 4, 16, 6.0),
    "small": (32, 8, 64, 10.0),
    "medium": (64, 8, 256, 14.0),
}

#: Atoms are processed in chunks of this size per step.
_CHUNK = 32


def _potential(r2: np.ndarray, aq: np.ndarray,
               cutoff2: np.float32) -> np.ndarray:
    """Each pair's ``q / r`` inside the cutoff shell, 0 outside.

    ``sqrt`` and the divide run over every pair and one ``np.where``
    keeps the shell: outside it a lane may read ``inf`` or ``0/0``
    (``r2 == 0``), which the ``where`` discards. Masking the ``sqrt``
    to the few pairs inside measured slower.
    """
    inside = (r2 < cutoff2) & (r2 > np.float32(1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside, aq / np.sqrt(r2), np.float32(0.0))


class CUTCPKernel(Kernel):
    """One block computes the potential over one lattice tile."""

    name = "cutcp"
    protected_buffers = ("cutcp_pot",)
    idempotent = True

    def __init__(self, grid: int, tile: int, n_atoms: int, cutoff: float) -> None:
        if grid % tile:
            raise LaunchError("grid edge must be a tile multiple")
        self.grid = grid
        self.tile = tile
        self.n_atoms = n_atoms
        self.cutoff = np.float32(cutoff)

    def launch_config(self) -> LaunchConfig:
        blocks = self.grid // self.tile
        return LaunchConfig(grid=(blocks, blocks),
                            block=(self.tile, self.tile))

    def block_output_map(self, block_id):
        grid, tile = self.grid, self.tile
        bx, by = self.launch_config().block_coords(block_id)
        rows = (by * tile + np.arange(tile)) * grid
        cols = bx * tile + np.arange(tile)
        return {"cutcp_pot": np.add.outer(rows, cols).ravel()}

    #: Lattice tiles are block-disjoint and only the atoms are read, so
    #: a group is one (blocks × points × atoms) program. Bit-identity
    #: across group sizes rests on the float32 reduction staying per
    #: point over the same contiguous trailing chunk axis.
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
        cutoff2 = self.cutoff * self.cutoff
        for a0 in range(0, self.n_atoms, _CHUNK):
            a_idx = np.arange(a0, min(a0 + _CHUNK, self.n_atoms))
            # One read serves the group; each block is charged its own.
            charge = a_idx.size * bctx.n_blocks_in_batch
            ax = bctx.ld("cutcp_atoms", a_idx * 3 + 0, charge_elements=charge)
            ay = bctx.ld("cutcp_atoms", a_idx * 3 + 1, charge_elements=charge)
            aq = bctx.ld("cutcp_atoms", a_idx * 3 + 2, charge_elements=charge)
            r2 = _tile_r2(cols, rows, ax, ay)  # (B, T, chunk)
            acc += _potential(r2, aq, cutoff2).sum(axis=-1, dtype=np.float32)
            bctx.flops(8 * a_idx.size)  # dist + rsqrt + masked MAC

        bctx.st("cutcp_pot", row * grid + col, acc, slots=bctx.tid)


class CUTCPWorkload(Workload):
    """Cutoff Coulombic potential over a 2-D lattice."""

    name = "cutcp"
    exact = False

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        self.grid, self.tile, self.n_atoms, cutoff = _SCALE_SHAPES[scale]
        self.cutoff = np.float32(cutoff)
        # Atom layout: [x, y, charge] triplets in grid coordinates.
        atoms = np.empty((self.n_atoms, 3), dtype=np.float32)
        atoms[:, 0] = self.rng.random(self.n_atoms, dtype=np.float32) * self.grid
        atoms[:, 1] = self.rng.random(self.n_atoms, dtype=np.float32) * self.grid
        atoms[:, 2] = (self.rng.random(self.n_atoms, dtype=np.float32)
                       * 2.0 - 1.0)
        self._atoms = atoms

    def setup(self, device: Device) -> CUTCPKernel:
        device.alloc("cutcp_atoms", (self.n_atoms * 3,), np.float32,
                     persistent=True, init=self._atoms.reshape(-1))
        device.alloc("cutcp_pot", (self.grid * self.grid,), np.float32,
                     persistent=True)
        return CUTCPKernel(self.grid, self.tile, self.n_atoms,
                           float(self.cutoff))

    def reference(self) -> dict[str, np.ndarray]:
        gx, gy = np.meshgrid(np.arange(self.grid, dtype=np.float32),
                             np.arange(self.grid, dtype=np.float32))
        px, py = gx.ravel(), gy.ravel()  # row-major: idx = y*grid + x
        pot = np.zeros(self.grid * self.grid, dtype=np.float64)
        cutoff2 = float(self.cutoff) ** 2
        for x, y, q in self._atoms:
            dx = px - x
            dy = py - y
            r2 = dx * dx + dy * dy
            mask = (r2 < cutoff2) & (r2 > 1e-12)
            pot[mask] += q / np.sqrt(r2[mask])
        return {"cutcp_pot": pot.astype(np.float32)}
