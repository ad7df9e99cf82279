"""MRI-Q — Q-matrix computation for MRI reconstruction (Parboil).

For every voxel ``x``, accumulates ``Q(x) = Σ_k |φ(k)|² · e^{2πi k·x}``
over all k-space sample points, split into real (cos) and imaginary
(sin) parts. Instruction-throughput bound: trigonometry dominates.

LP structure: one thread per voxel, blocks own disjoint voxel ranges;
both output buffers (``Qr``, ``Qi``) are protected, demonstrating LP
over multiple protected stores per region.

Execution: ``run_block_batch`` is the one body. It accumulates a group
of voxel ranges in one ``(blocks, voxels, k)`` pass per k-space chunk;
``serial`` runs it one block at a time
(as immediate rows, :mod:`repro.gpu.batch`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload
from repro.workloads.generators import unit_floats

#: (n_voxels, n_ksamples, threads_per_block) per scale.
_SCALE_SHAPES = {
    "tiny": (64, 32, 16),
    "small": (512, 128, 64),
    "medium": (2048, 512, 128),
}

#: k-space samples are consumed in chunks of this size.
_CHUNK = 32

_TWO_PI = np.float32(2.0 * np.pi)


class MRIQKernel(Kernel):
    """One thread accumulates one voxel's Q value over all k samples."""

    name = "mri-q"
    protected_buffers = ("mriq_qr", "mriq_qi")
    idempotent = True

    def __init__(self, n_voxels: int, n_k: int, threads: int) -> None:
        if n_voxels % threads:
            raise LaunchError("n_voxels must be a multiple of block size")
        self.n_voxels = n_voxels
        self.n_k = n_k
        self.threads = threads

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_voxels // self.threads, self.threads)

    def block_output_map(self, block_id):
        vox = block_id * self.threads + np.arange(self.threads)
        return {"mriq_qr": vox, "mriq_qi": vox.copy()}

    #: Voxel ranges are block-disjoint and neither output is re-read,
    #: so a group is one (blocks × voxels × k-samples) program.
    #: Bit-identity across group sizes rests on the float32 reductions
    #: staying per voxel over the same contiguous trailing chunk axis.
    batchable = True

    def run_block_batch(self, bctx) -> None:
        vox = bctx.block_ids[:, None] * self.threads + bctx.tid  # (B, T)
        vx = bctx.ld("mriq_x", vox * 3 + 0)[:, :, None]
        vy = bctx.ld("mriq_x", vox * 3 + 1)[:, :, None]
        vz = bctx.ld("mriq_x", vox * 3 + 2)[:, :, None]

        qr = np.zeros(vox.shape, dtype=np.float32)
        qi = np.zeros(vox.shape, dtype=np.float32)
        for k0 in range(0, self.n_k, _CHUNK):
            k_idx = np.arange(k0, min(k0 + _CHUNK, self.n_k))
            # One read serves the group; each block is charged its own.
            charge = k_idx.size * bctx.n_blocks_in_batch
            kx = bctx.ld("mriq_k", k_idx * 4 + 0, charge_elements=charge)
            ky = bctx.ld("mriq_k", k_idx * 4 + 1, charge_elements=charge)
            kz = bctx.ld("mriq_k", k_idx * 4 + 2, charge_elements=charge)
            mag = bctx.ld("mriq_k", k_idx * 4 + 3, charge_elements=charge)
            phase = _TWO_PI * (vx * kx + vy * ky + vz * kz)
            qr += (mag * np.cos(phase)).sum(axis=2, dtype=np.float32)
            qi += (mag * np.sin(phase)).sum(axis=2, dtype=np.float32)
            bctx.flops(14 * k_idx.size)  # 3 MACs + 2 trig + 2 MACs per k

        bctx.st("mriq_qr", vox, qr, slots=bctx.tid)
        bctx.st("mriq_qi", vox, qi, slots=bctx.tid)


class MRIQWorkload(Workload):
    """Q-matrix accumulation over k-space samples."""

    name = "mri-q"
    exact = False

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        self.n_voxels, self.n_k, self.threads = _SCALE_SHAPES[scale]
        self._x = unit_floats(self.rng, self.n_voxels * 3)
        k = np.empty((self.n_k, 4), dtype=np.float32)
        k[:, :3] = unit_floats(self.rng, (self.n_k, 3))
        # |phi|^2 magnitudes are non-negative.
        k[:, 3] = self.rng.random(self.n_k, dtype=np.float32)
        self._k = k

    def setup(self, device: Device) -> MRIQKernel:
        device.alloc("mriq_x", (self.n_voxels * 3,), np.float32,
                     persistent=True, init=self._x)
        device.alloc("mriq_k", (self.n_k * 4,), np.float32,
                     persistent=True, init=self._k.reshape(-1))
        device.alloc("mriq_qr", (self.n_voxels,), np.float32, persistent=True)
        device.alloc("mriq_qi", (self.n_voxels,), np.float32, persistent=True)
        return MRIQKernel(self.n_voxels, self.n_k, self.threads)

    def reference(self) -> dict[str, np.ndarray]:
        x = self._x.reshape(self.n_voxels, 3).astype(np.float64)
        k = self._k.astype(np.float64)
        phase = 2.0 * np.pi * (x @ k[:, :3].T)
        qr = (k[:, 3] * np.cos(phase)).sum(axis=1)
        qi = (k[:, 3] * np.sin(phase)).sum(axis=1)
        return {
            "mriq_qr": qr.astype(np.float32),
            "mriq_qi": qi.astype(np.float32),
        }
