"""HISTO — saturating histogram (Parboil).

Builds a histogram of input samples with bin counts saturating at 255
(Parboil stores the result in bytes). Bandwidth bound: the kernel is a
streaming pass over the input. At paper scale HISTO launches very few
(42) thread blocks, the small-grid extreme of Table III.

LP structure: the classic privatization split — each block histograms
its input chunk into a block-private partial histogram (a disjoint
output slice); the saturating cross-block merge is a separate step
(:meth:`HISTOWorkload.merged_histogram`), as in Parboil's multi-kernel
pipeline. No block issues a global atomic.

Execution: ``run_block_batch`` is the one body. It builds a group's
partials with one offset ``bincount``; ``serial`` runs it one block at
a time (as immediate rows, :mod:`repro.gpu.batch`). A sample outside
the bin range raises :class:`~repro.errors.LaunchError` in the block
that holds it, after the blocks before it have landed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BatchFallbackError, LaunchError
from repro.gpu.device import Device
from repro.gpu.kernel import Kernel, LaunchConfig
from repro.workloads.base import Workload

#: Saturation ceiling of the final merged histogram.
SATURATION = 255

#: (n_samples, n_bins, n_blocks, threads_per_block) per scale.
_SCALE_SHAPES = {
    "tiny": (512, 32, 4, 16),
    "small": (4096, 64, 8, 32),
    "medium": (16384, 128, 16, 64),
}


class HISTOKernel(Kernel):
    """One block histograms one contiguous input chunk."""

    name = "histo"
    protected_buffers = ("histo_partial",)
    idempotent = True

    def __init__(self, n_samples: int, n_bins: int, n_blocks: int,
                 threads: int) -> None:
        if n_samples % n_blocks:
            raise LaunchError("n_samples must divide evenly across blocks")
        self.n_samples = n_samples
        self.n_bins = n_bins
        self.n_blocks = n_blocks
        self.threads = threads
        self.chunk = n_samples // n_blocks

    def launch_config(self) -> LaunchConfig:
        return LaunchConfig.linear(self.n_blocks, self.threads)

    def block_output_map(self, block_id):
        base = block_id * self.n_bins
        return {"histo_partial": base + np.arange(self.n_bins)}

    #: Privatization makes the partials block-disjoint, so a group is
    #: one offset ``bincount``.
    batchable = True

    def run_block_batch(self, bctx) -> None:
        b = bctx.block_ids
        n_batch, nb = bctx.n_blocks_in_batch, self.n_bins
        idx = b[:, None] * self.chunk + np.arange(self.chunk)  # (B, chunk)
        samples = bctx.ld("histo_in", idx).astype(np.int64)
        if samples.min() < 0 or samples.max() >= nb:
            # The offset bincount would count it in a neighbour's
            # partial. A group falls back to one block at a time; one
            # block has nothing to fall back to and rejects it.
            error = LaunchError if n_batch == 1 else BatchFallbackError
            raise error("histo sample outside the bin range")

        # Row r of the group histograms into bins [r * nb, (r + 1) * nb).
        row_base = (np.arange(n_batch) * nb)[:, None]
        hist = np.bincount((samples + row_base).ravel(),
                           minlength=n_batch * nb).reshape(n_batch, nb)
        # Threads accumulate into a shared privatized histogram (the
        # simulator folds each chunk at once; shared-memory atomics
        # inside one block are race-free by construction here).
        bctx.charge_shared(self.chunk * 8)
        bctx.flops(self.chunk / max(bctx.n_threads, 1))
        bctx.syncthreads()

        out_idx = b[:, None] * nb + np.arange(nb)
        bctx.st("histo_partial", out_idx, hist.astype(np.uint32),
                slots=np.arange(nb) % bctx.n_threads)


class HISTOWorkload(Workload):
    """Privatized saturating histogram."""

    name = "histo"
    exact = True

    def __init__(self, scale: str = "small", seed: int = 0) -> None:
        super().__init__(scale, seed)
        (self.n_samples, self.n_bins,
         self.n_blocks, self.threads) = _SCALE_SHAPES[scale]
        # Parboil's input is heavily skewed; a Zipf-ish skew stresses
        # the same few bins.
        raw = self.rng.zipf(1.5, size=self.n_samples)
        self._samples = (raw % self.n_bins).astype(np.int32)

    def setup(self, device: Device) -> HISTOKernel:
        device.alloc("histo_in", (self.n_samples,), np.int32,
                     persistent=True, init=self._samples)
        device.alloc("histo_partial", (self.n_blocks * self.n_bins,),
                     np.uint32, persistent=True)
        return HISTOKernel(self.n_samples, self.n_bins, self.n_blocks,
                           self.threads)

    def reference(self) -> dict[str, np.ndarray]:
        chunk = self.n_samples // self.n_blocks
        out = np.zeros(self.n_blocks * self.n_bins, dtype=np.uint32)
        for b in range(self.n_blocks):
            part = np.bincount(self._samples[b * chunk:(b + 1) * chunk],
                               minlength=self.n_bins)
            out[b * self.n_bins:(b + 1) * self.n_bins] = part
        return {"histo_partial": out}

    def merged_histogram(self, device: Device) -> np.ndarray:
        """Saturating merge of the per-block partials (uint8 result)."""
        partials = device.memory["histo_partial"].array
        total = partials.reshape(-1, self.n_bins).sum(axis=0)
        return np.minimum(total, SATURATION).astype(np.uint8)
