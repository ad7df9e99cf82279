"""Kernel abstraction: a launch shape plus one block body.

A :class:`Kernel` is the simulator's unit of GPU work: it declares a
:class:`LaunchConfig` (grid × block dimensions) and one block body,
``run_block_batch``, vectorized with numpy over a leading block axis
and each block's threads (in lane order). The engine runs every body
through three batch entries — ``run_block_batch``,
``validate_block_batch`` and ``recover_block_batch`` — on a
:class:`~repro.gpu.batch.BatchBlockContext`: a deferred group of blocks,
or one immediate row whose effects act as they are issued. Workload and
MEGA-KV kernels, the LP, fused and EP wrappers and the DSL's function
kernels all write that one body; a kernel that is not ``batchable``
runs on immediate rows only.

Execution modes (:class:`ExecMode`) implement the LP recovery protocol:
in ``VALIDATE`` mode a replayed block does *not* write persistent data;
instead each intercepted store reads what memory *currently holds* at
the target addresses and feeds it to the checksum observer — exactly
the check phase of the paper's check-and-recovery kernel (Listing 7).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.errors import LaunchError, UnrecoverableRegionError
from repro.gpu.batch import BatchBlockContext, ExecMode
from repro.gpu.warp import WARP_SIZE


@dataclass(frozen=True)
class LaunchConfig:
    """Grid and block dimensions of one kernel launch.

    Dimensions follow CUDA's ``(x, y)`` convention; omit ``y`` for 1-D
    launches. Thread blocks are numbered row-major: block id =
    ``by * grid_x + bx``.
    """

    grid: tuple[int, int] = (1, 1)
    block: tuple[int, int] = (32, 1)

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.grid + self.block):
            raise LaunchError(f"non-positive launch dimension: {self}")

    @classmethod
    def linear(cls, n_blocks: int, threads_per_block: int) -> "LaunchConfig":
        """A 1-D launch."""
        return cls(grid=(n_blocks, 1), block=(threads_per_block, 1))

    @property
    def n_blocks(self) -> int:
        """Total thread blocks in the grid."""
        return self.grid[0] * self.grid[1]

    @property
    def threads_per_block(self) -> int:
        """Threads in each block."""
        return self.block[0] * self.block[1]

    @property
    def n_warps_per_block(self) -> int:
        """Warps per block (final warp may be partial)."""
        return math.ceil(self.threads_per_block / WARP_SIZE)

    def block_coords(self, block_id: int) -> tuple[int, int]:
        """``(bx, by)`` of a flat block id."""
        if not 0 <= block_id < self.n_blocks:
            raise LaunchError(f"block id {block_id} outside grid {self.grid}")
        return block_id % self.grid[0], block_id // self.grid[0]


class StoreObserver(Protocol):
    """Interface the LP runtime plugs into a context (duck-typed)."""

    #: Names of the buffers whose stores are checksum-protected.
    protected: frozenset[str]

    def on_store(self, values: np.ndarray, slots: np.ndarray,
                 mask: np.ndarray | None = None) -> None:
        """Fold ``values`` (leading axis = block within the group; an
        immediate row's is 1) into per-thread checksums at ``slots``;
        ``mask`` is passed only when a store has one."""


class Kernel(abc.ABC):
    """One GPU kernel: a launch shape plus per-block behaviour.

    Subclasses set:

    * :attr:`name` — stable identifier used in reports.
    * :attr:`protected_buffers` — names of output buffers that Lazy
      Persistency protects (the kernel's persistent stores).
    * :attr:`idempotent` — whether re-running a block reproduces its
      output (true for all the paper's Parboil-style kernels once
      outputs are block-disjoint; the default recovery simply re-runs
      the block, as Section IV-A describes).

    and define the block body, :meth:`run_block_batch`.
    """

    name: str = "kernel"
    protected_buffers: tuple[str, ...] = ()
    idempotent: bool = True
    #: Whether :meth:`run_block_batch` takes a deferred group — what
    #: admits a launch to deferred groups under the ``batched`` engine.
    batchable: bool = False

    @abc.abstractmethod
    def launch_config(self) -> LaunchConfig:
        """Grid/block dimensions for this kernel."""

    @abc.abstractmethod
    def run_block_batch(self, bctx: BatchBlockContext) -> None:
        """Execute a homogeneous group of blocks in one vectorized pass.

        ``bctx``'s leading axis indexes the block within the group — a
        deferred group, or one immediate row (the only context a kernel
        that is not ``batchable`` gets). Must charge whole-group totals
        and decide on the group's starting image what each block would
        decide mid-launch (:mod:`repro.gpu.batch`), so that a deferred
        group is bit-identical to the same blocks run as rows.
        """

    def block_output_map(self, block_id: int) -> "dict[str, np.ndarray] | None":
        """Flat indices of this block's protected stores, per buffer.

        This is the *program slice* of the block's store addresses
        (Section VI / Listing 7): when a kernel can compute where it
        stores without computing what, validation can fetch and fold
        those locations directly instead of replaying the whole block.
        Return ``None`` (the default) to fall back to full replay.

        The map must cover exactly the elements the block stores
        (each once), buffers and elements in the order the block stores
        them: validation folds the map in its own order, and an
        order-sensitive lane (Adler-32) depends on that order.
        """
        return None

    def validate_block_batch(self, bctx: BatchBlockContext) -> list:
        """Replay a group of blocks for checksum validation
        (``VALIDATE`` mode); returns the per-block outcome records (one
        entry per block, ``None`` for plain kernels).

        The engine collects every block's record — in the launch's
        block order — and hands the list to
        :meth:`merge_validation_outcomes` once the grid is done; the LP
        wrapper returns each block's recomputed checksum lanes.

        When every block in the group exposes a :meth:`block_output_map`
        over the same buffer set, the maps are padded into one
        ``(n_blocks, max_len)`` index array per buffer (ragged tails
        masked) and fetched with a single batched store interception per
        buffer — the grid-wide Listing-7 pass; else the group replays
        through :meth:`run_block_batch` in ``VALIDATE`` mode.
        """
        maps = [self.block_output_map(int(b)) for b in bctx.block_ids]
        names = list(maps[0]) if maps[0] is not None else None
        uniform = names is not None and all(
            m is not None and list(m) == names for m in maps[1:]
        )
        if not uniform:
            self.run_block_batch(bctx)
            return [None] * bctx.n_blocks_in_batch
        for name in names:
            rows = [np.asarray(m[name]).reshape(-1) for m in maps]
            max_len = max(r.size for r in rows)
            idx = np.zeros((len(rows), max_len), dtype=np.int64)
            mask = np.zeros((len(rows), max_len), dtype=bool)
            for row, r in enumerate(rows):
                idx[row, :r.size] = r
                mask[row, :r.size] = True
            # In VALIDATE mode ``st`` folds what memory holds (the
            # values are ignored) — the check phase of the generated
            # recovery kernel. Each row folds its first ``len(map)``
            # elements with ``arange % n_threads`` slots, as one store
            # of the map from that block would.
            bctx.st(name, idx, 0, mask=None if mask.all() else mask)
        return [None] * bctx.n_blocks_in_batch

    def merge_validation_outcomes(self, outcomes: list) -> None:
        """Merge per-block validation outcome records, in block order.

        Called once by the launch engine at the end of a ``VALIDATE``
        launch with every block's :meth:`validate_block_batch` records.
        Plain kernels keep no validation state, so the default does
        nothing; the LP wrapper overrides this with the vectorized
        checksum-table compare.
        """

    def recover_block_batch(self, bctx: BatchBlockContext) -> None:
        """Re-execute a group of failed blocks during crash recovery.

        Idempotent kernels re-run through :meth:`run_block_batch`;
        others must override this with an application-specific
        recovery function (Section IV-A).
        """
        if not self.idempotent:
            raise UnrecoverableRegionError(
                f"kernel {self.name!r} is not idempotent and provides no "
                "recovery function"
            )
        self.run_block_batch(bctx)
