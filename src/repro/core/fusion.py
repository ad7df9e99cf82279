"""Thread-block fusion: enlarging LP regions (Section IV-A).

The paper notes LP regions "can be enlarged if needed, e.g. through
thread block fusion": merging F consecutive thread blocks into one LP
region trades checksum-table pressure (F× fewer entries, F× fewer
insertions) against recovery granularity (a failed region re-executes
F blocks' work).

:class:`FusedKernel` implements the transformation generically: the
fused launch has ``ceil(N / F)`` blocks; each fused block's row runs
its F constituent blocks' batch bodies back to back, each on a shallow
sibling of that row: the constituent's id and the inner launch shape,
and the row's tally, LP observer, EP interceptor and landing. An
attached LP observer therefore accumulates one checksum across the
whole fused region, and the checksum table is sized to the fused grid
automatically. Only a ``batchable`` kernel fuses; the fused kernel
itself runs as immediate rows (it is not ``batchable``).
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.errors import LaunchError
from repro.gpu.kernel import Kernel, LaunchConfig


class FusedKernel(Kernel):
    """``factor`` consecutive blocks of ``inner`` fused into one region."""

    def __init__(self, inner: Kernel, factor: int) -> None:
        if factor < 1:
            raise LaunchError("fusion factor must be >= 1")
        if not inner.batchable:
            raise LaunchError(
                f"kernel {inner.name!r} is not batchable; only a "
                "batchable kernel's blocks fuse")
        self.inner = inner
        self.factor = factor
        self._inner_config = inner.launch_config()
        self.name = f"{inner.name}*fuse{factor}"
        self.protected_buffers = inner.protected_buffers
        self.idempotent = inner.idempotent

    def launch_config(self) -> LaunchConfig:
        fused_blocks = math.ceil(self._inner_config.n_blocks / self.factor)
        return LaunchConfig.linear(
            fused_blocks, self._inner_config.threads_per_block
        )

    def _constituents(self, fused_id: int) -> range:
        lo = fused_id * self.factor
        hi = min(lo + self.factor, self._inner_config.n_blocks)
        return range(lo, hi)

    def block_output_map(self, block_id: int):
        """Union of the constituent blocks' store-address slices."""
        merged: dict[str, list] = {}
        for inner_id in self._constituents(block_id):
            sub_map = self.inner.block_output_map(inner_id)
            if sub_map is None:
                return None
            for name, idx in sub_map.items():
                merged.setdefault(name, []).append(idx)
        return {name: np.concatenate(parts)
                for name, parts in merged.items()}

    def _siblings(self, row):
        """Shallow siblings of the fused block's ``row``, one per
        constituent, in order: each has its constituent's id and the
        inner launch shape and shares everything else with ``row``."""
        (fused_id,) = row.block_ids.tolist()
        for inner_id in self._constituents(fused_id):
            sibling = copy.copy(row)
            sibling.block_ids = np.array([inner_id], dtype=np.int64)
            sibling.config = self._inner_config
            yield sibling

    def run_block_batch(self, bctx) -> None:
        for sibling in self._siblings(bctx):
            self.inner.run_block_batch(sibling)

    def validate_block_batch(self, bctx) -> list:
        for sibling in self._siblings(bctx):
            self.inner.validate_block_batch(sibling)
        return [None]

    def recover_block_batch(self, bctx) -> None:
        for sibling in self._siblings(bctx):
            self.inner.recover_block_batch(sibling)


def fuse_blocks(kernel: Kernel, factor: int) -> Kernel:
    """Fuse ``factor`` consecutive thread blocks into one LP region.

    ``factor=1`` returns the kernel unchanged.
    """
    if factor == 1:
        return kernel
    return FusedKernel(kernel, factor)
