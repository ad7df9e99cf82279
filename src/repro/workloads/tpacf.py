"""TPACF — two-point angular correlation function (Parboil).

Counts pairs of sky points by angular separation: every pair's dot
product is binned into a histogram. Instruction-throughput bound
(Table I): the kernel is a dense O(n²) dot-product sweep with almost no
output traffic.

LP structure: each thread block owns one *privatized partial
histogram*, written to a block-disjoint slice of the output — the
standard Parboil privatization pattern, which is exactly what makes the
blocks associative LP regions. (The final cross-block merge is a
host-side helper; the paper instruments the main kernel.)

Integer bin counts make this workload exact.

Execution: ``run_block_batch`` is the one body. It histograms a group of
blocks per partner chunk with one stacked matmul and one offset
``bincount``; ``serial`` runs it one block at a time
(as immediate rows, :mod:`repro.gpu.batch`). It bins with
:func:`_bin_of`, which names a uniform bin arithmetically and lands on
``np.digitize``'s index exactly, without its binary search.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload

#: (n_points, threads_per_block, n_bins) per scale.
_SCALE_SHAPES = {
    "tiny": (64, 16, 8),
    "small": (256, 32, 8),
    "medium": (1024, 64, 16),
}

#: Points are compared in chunks of this many partners per step.
_CHUNK = 64


def _unit_sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random float32 unit vectors (sky directions)."""
    v = rng.normal(size=(n, 3)).astype(np.float32)
    v /= np.linalg.norm(v, axis=1, keepdims=True).astype(np.float32)
    return v.astype(np.float32)


def _bin_edges(n_bins: int) -> np.ndarray:
    """Interior bin edges over the dot-product range [-1, 1]."""
    return np.linspace(-1.0, 1.0, n_bins + 1, dtype=np.float32)[1:-1]


def _bin_of(dots: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.digitize(dots, edges)`` for the uniform ``_bin_edges``.

    The bins are uniform, so ``(x + 1) * n_bins / 2`` names a bin
    directly. Float rounding (of that product and of the float32 edges)
    can leave the guess one bin off near an edge, never more; one
    comparison against each neighbouring edge, padded by ±inf, moves it
    onto ``digitize``'s index exactly.
    """
    n_bins = edges.size + 1
    padded = np.concatenate(([-np.inf], edges, [np.inf])).astype(edges.dtype)
    # Truncating toward zero then clipping at 0 is floor then clip.
    guess = ((dots + np.float32(1.0)) * np.float32(n_bins / 2)).astype(np.intp)
    np.clip(guess, 0, n_bins - 1, out=guess)
    guess -= dots < np.take(padded, guess)
    guess += dots >= np.take(padded[1:], guess)
    return guess


class TPACFKernel(Kernel):
    """One block histograms all pairs (i in block-chunk, j in all)."""

    name = "tpacf"
    protected_buffers = ("tpacf_hist",)
    idempotent = True

    def __init__(self, n_points: int, threads: int, n_bins: int) -> None:
        if n_points % threads:
            raise LaunchError("n_points must be a multiple of block size")
        self.n_points = n_points
        self.threads = threads
        self.n_bins = n_bins
        self._edges = _bin_edges(n_bins)

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_points // self.threads, self.threads)

    def block_output_map(self, block_id):
        base = block_id * self.n_bins
        return {"tpacf_hist": base + np.arange(self.n_bins)}

    #: Privatized histograms are block-disjoint and never re-read, so a
    #: group is one (blocks × points × partners) program. The dot
    #: products stay a *stacked* matmul of per-block ``(t, 3) @ (3,
    #: chunk)`` slices: one collapsed GEMM would hand BLAS another shape
    #: and need not round the float32 products identically.
    batchable = True

    def run_block_batch(self, bctx) -> None:
        n, t, nb = self.n_points, self.threads, self.n_bins
        n_batch = bctx.n_blocks_in_batch
        my_idx = bctx.block_ids[:, None] * t + bctx.tid  # (B, t)
        mine = np.stack(
            [bctx.ld("tpacf_pts", my_idx * 3 + c) for c in range(3)], axis=2
        )

        # Row r of the group histograms into bins [r * nb, (r + 1) * nb).
        row_base = (np.arange(n_batch) * nb)[:, None, None]
        hist = np.zeros(n_batch * nb, dtype=np.int64)
        for j0 in range(0, n, _CHUNK):
            j_idx = np.arange(j0, min(j0 + _CHUNK, n))
            # One read serves the group; each block is charged its own.
            charge = j_idx.size * n_batch
            partners = np.stack(
                [bctx.ld("tpacf_pts", j_idx * 3 + c, charge_elements=charge)
                 for c in range(3)], axis=1
            )
            dots = np.matmul(mine, partners.T)  # (B, t, chunk) float32
            bins = _bin_of(dots, self._edges) + row_base
            hist += np.bincount(bins.ravel(), minlength=hist.size)
            # 2*3 flops per pair (dot) + compare/bin work.
            bctx.flops((2 * 3 + 2) * j_idx.size)

        out_idx = bctx.block_ids[:, None] * nb + np.arange(nb)
        bctx.st("tpacf_hist", out_idx, hist.reshape(n_batch, nb),
                slots=np.arange(nb) % bctx.n_threads)


class TPACFWorkload(Workload):
    """Angular correlation histogram with per-block privatization."""

    name = "tpacf"
    exact = True

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        self.n_points, self.threads, self.n_bins = _SCALE_SHAPES[scale]
        self._pts = _unit_sphere_points(self.rng, self.n_points)

    def setup(self, device: Device) -> TPACFKernel:
        device.alloc("tpacf_pts", (self.n_points * 3,), np.float32,
                     persistent=True, init=self._pts.reshape(-1))
        n_blocks = self.n_points // self.threads
        device.alloc("tpacf_hist", (n_blocks * self.n_bins,), np.int64,
                     persistent=True)
        return TPACFKernel(self.n_points, self.threads, self.n_bins)

    def reference(self) -> dict[str, np.ndarray]:
        edges = _bin_edges(self.n_bins)
        n_blocks = self.n_points // self.threads
        out = np.zeros(n_blocks * self.n_bins, dtype=np.int64)
        for b in range(n_blocks):
            mine = self._pts[b * self.threads:(b + 1) * self.threads]
            hist = np.zeros(self.n_bins, dtype=np.int64)
            for j0 in range(0, self.n_points, _CHUNK):
                partners = self._pts[j0:j0 + _CHUNK]
                dots = mine @ partners.T
                bins = np.digitize(dots.ravel(), edges)
                hist += np.bincount(bins, minlength=self.n_bins)
            out[b * self.n_bins:(b + 1) * self.n_bins] = hist
        return {"tpacf_hist": out}

    def merged_histogram(self, device: Device) -> np.ndarray:
        """Host-side merge of the per-block partial histograms."""
        partials = device.memory["tpacf_hist"].array
        return partials.reshape(-1, self.n_bins).sum(axis=0)
