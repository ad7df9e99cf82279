"""SAD — sum of absolute differences (Parboil).

The motion-estimation inner loop of H.264 encoding: for every
macroblock of the current frame, compute the SAD against the reference
frame at each candidate displacement. Bandwidth bound (Table I), and —
decisively for the paper — launched with an enormous number of small
thread blocks (128 640 at paper scale, Table III), which is what blows
up lock-based and collision-prone checksum tables.

LP structure: one block per macroblock, one thread per displacement
candidate; each block's SAD outputs are a disjoint slice.

Execution: ``run_block_batch`` is the one body. It computes a group of
macroblocks — every displacement window of every block — as one
integer array program, which is what makes a grid of this many tiny
blocks cheap to simulate; ``serial`` runs it one block at a time
(as immediate rows, :mod:`repro.gpu.batch`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload
from repro.workloads.generators import byte_frames

#: Macroblock edge in pixels.
MB = 8
#: (height, width, search_radius) per scale; displacement candidates
#: form a (2r+1)^2 grid.
_SCALE_SHAPES = {
    "tiny": (32, 32, 1),
    "small": (64, 64, 1),
    "medium": (128, 128, 2),
}


class SADKernel(Kernel):
    """One block = one macroblock; one thread = one displacement."""

    name = "sad"
    protected_buffers = ("sad_out",)
    idempotent = True

    def __init__(self, height: int, width: int, radius: int) -> None:
        if height % MB or width % MB:
            raise LaunchError("frame dims must be macroblock multiples")
        self.height = height
        self.width = width
        self.radius = radius
        side = 2 * radius + 1
        self.n_disp = side * side
        self.mb_rows = height // MB
        self.mb_cols = width // MB

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.mb_rows * self.mb_cols, self.n_disp)

    def block_output_map(self, block_id):
        base = block_id * self.n_disp
        return {"sad_out": base + np.arange(self.n_disp)}

    def _displacements(self) -> np.ndarray:
        r = self.radius
        side = 2 * r + 1
        d = np.arange(self.n_disp)
        return np.stack([d // side - r, d % side - r], axis=1)

    #: Macroblocks own disjoint output slices and never read ``sad_out``:
    #: a group is one (blocks × displacements × pixels) integer program.
    batchable = True

    def run_block_batch(self, bctx) -> None:
        mb = bctx.block_ids
        rows = (mb // self.mb_cols * MB)[:, None] + np.arange(MB)  # (B, MB)
        cols = (mb % self.mb_cols * MB)[:, None] + np.arange(MB)
        flat = rows[:, :, None] * self.width + cols[:, None, :]
        cur = bctx.ld("sad_cur", flat.reshape(mb.size, -1)).astype(np.int32)

        # Every displacement's window at once, clamped to the frame
        # (edge replication): (B, D, MB, MB).
        dy, dx = self._displacements().T
        ry = np.clip(rows[:, None, :] + dy[:, None], 0, self.height - 1)
        rx = np.clip(cols[:, None, :] + dx[:, None], 0, self.width - 1)
        rflat = ry[:, :, :, None] * self.width + rx[:, :, None, :]
        ref = bctx.ld(
            "sad_ref", rflat.reshape(mb.size, self.n_disp, -1)
        ).astype(np.int32)
        sads = np.abs(cur[:, None, :] - ref).sum(axis=2)
        bctx.flops(2 * MB * MB)  # per-thread |a-b| + accumulate

        out_idx = mb[:, None] * self.n_disp + np.arange(self.n_disp)
        bctx.st("sad_out", out_idx, sads.astype(np.uint32),
                slots=np.arange(self.n_disp))


class SADWorkload(Workload):
    """Macroblock SAD sweep over displacement candidates."""

    name = "sad"
    exact = True

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        self.height, self.width, self.radius = _SCALE_SHAPES[scale]
        frames = byte_frames(self.rng, 2, self.height, self.width)
        self._cur, self._ref = frames[0], frames[1]

    def setup(self, device: Device) -> SADKernel:
        device.alloc("sad_cur", (self.height * self.width,), np.uint8,
                     persistent=True, init=self._cur.reshape(-1))
        device.alloc("sad_ref", (self.height * self.width,), np.uint8,
                     persistent=True, init=self._ref.reshape(-1))
        kernel = SADKernel(self.height, self.width, self.radius)
        n_out = kernel.mb_rows * kernel.mb_cols * kernel.n_disp
        device.alloc("sad_out", (n_out,), np.uint32, persistent=True)
        return kernel

    def reference(self) -> dict[str, np.ndarray]:
        kernel = SADKernel(self.height, self.width, self.radius)
        cur = self._cur.astype(np.int32)
        ref = self._ref.astype(np.int32)
        out = np.zeros(
            kernel.mb_rows * kernel.mb_cols * kernel.n_disp, dtype=np.uint32
        )
        disps = kernel._displacements()
        for mb in range(kernel.mb_rows * kernel.mb_cols):
            mb_r, mb_c = mb // kernel.mb_cols, mb % kernel.mb_cols
            rows = np.arange(mb_r * MB, mb_r * MB + MB)
            cols = np.arange(mb_c * MB, mb_c * MB + MB)
            cur_blk = cur[np.ix_(rows, cols)]
            for t, (dy, dx) in enumerate(disps):
                ry = np.clip(rows + dy, 0, self.height - 1)
                rx = np.clip(cols + dx, 0, self.width - 1)
                ref_blk = ref[np.ix_(ry, rx)]
                out[mb * kernel.n_disp + t] = np.abs(cur_blk - ref_blk).sum()
        return {"sad_out": out}
