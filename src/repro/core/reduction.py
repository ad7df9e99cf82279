"""Block-level checksum reduction: parallel (shuffle) vs sequential.

Implements the paper's Listings 3-4. At the end of an LP region every
thread holds per-lane checksum accumulators; they must be combined into
one checksum per lane for the whole thread block.

* :func:`reduce_parallel` — the Kepler+ path: five ``shfl_down`` rounds
  reduce each warp register-to-register; warp leaders deposit partial
  results in a 32-entry shared array; warp 0 reduces those with another
  shuffle round. ``O(log N)`` steps, no global-memory traffic.
* :func:`reduce_sequential` — the ablation of Table IV: every thread
  stages its accumulators through shared *and global* memory, and a
  single thread folds them in ``O(N)``. The added global traffic is why
  bandwidth-bound benchmarks (SPMV, SAD, HISTO) suffer most.

Both read a one-block :class:`~repro.core.checksum.BatchChecksumState`
and produce bit-identical lane values (commutative folds). They are the
functional oracle: the LP runtime charges :func:`reduction_tally`'s
analytic counts, which a test pins against what the paths charge to a
block's immediate row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.checksum import BatchChecksumState
from repro.core.config import ReductionMode
from repro.errors import ConfigError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import Tally
from repro.gpu.warp import WARP_SIZE, shfl_down

#: Bytes per checksum lane value.
LANE_BYTES = 8


def reduce_block(
    state: BatchChecksumState,
    mode: ReductionMode,
    row: BatchBlockContext | None = None,
) -> np.ndarray:
    """Reduce one region's per-thread accumulators to final lane values.

    ``state`` holds one block (``n_blocks == 1``).

    When ``row`` (the block's immediate row) is given, the reduction's
    work is charged to its tally through the row's primitives (shared
    memory, syncthreads) and per shuffle, so the cost emerges from
    execution rather than being asserted.
    """
    if mode is ReductionMode.PARALLEL_SHUFFLE:
        return reduce_parallel(state, row)
    if mode is ReductionMode.SEQUENTIAL_MEMORY:
        return reduce_sequential(state, row)
    raise ConfigError(f"unknown reduction mode: {mode}")


def reduce_parallel(
    state: BatchChecksumState, row: BatchBlockContext | None = None
) -> np.ndarray:
    """Listing 3's ``blockReduceSum`` over every commutative lane."""
    if not state.cset.commutative:
        raise ConfigError(
            "parallel reduction requires commutative checksum lanes"
        )
    per_thread, lanes_out = _one_block(state)
    n_warps = math.ceil(state.n_threads / WARP_SIZE)

    for lane, pos in enumerate(state.comm_lane_positions):
        func = state.cset.functions[pos]
        vals = per_thread[:, lane].copy()

        # Step 1: warp-level butterfly (Listing 4), all warps at once.
        vals = _warp_butterfly(vals, func, row)

        # Step 2: warp leaders deposit into a 32-entry shared array.
        leaders = np.arange(n_warps) * WARP_SIZE
        partials = np.zeros(WARP_SIZE, dtype=np.uint64)
        partials[:n_warps] = vals[leaders]
        if row is not None:
            shared = row.shared.alloc(f"__lp_red_{pos}", WARP_SIZE, np.uint64)
            row.shared.write(f"__lp_red_{pos}", slice(0, n_warps),
                             partials[:n_warps])
            row.syncthreads()
            partials = shared.copy()
            row.shared.traffic_bytes += n_warps * LANE_BYTES  # warp-0 reads

        # Step 3: warp 0 reduces the partials with one more butterfly.
        final = _warp_butterfly(partials, func, row)
        lanes_out[pos] = final[0]
    return lanes_out


def reduce_sequential(
    state: BatchChecksumState, row: BatchBlockContext | None = None
) -> np.ndarray:
    """Pre-Kepler reduction through shared and global memory.

    Each thread stages its accumulators out to memory; thread 0 walks
    them sequentially. Functionally equivalent to the parallel path.
    """
    n_threads = state.n_threads
    n_comm = len(state.comm_lane_positions)
    staged_bytes = n_threads * LANE_BYTES * n_comm

    if row is not None and n_comm:
        # Stage through shared memory (write by all, read by thread 0)
        # and through global memory, as the paper's no-shuffle variant
        # does; the global staging buffer is pure scratch.
        row.charge_shared(2 * staged_bytes)
        row.tally.global_write_bytes += staged_bytes
        row.tally.global_read_bytes += staged_bytes
        row.syncthreads()
        row.alu(n_threads * n_comm)  # thread 0's sequential folds

    per_thread, lanes_out = _one_block(state)
    for lane, pos in enumerate(state.comm_lane_positions):
        func = state.cset.functions[pos]
        # Thread 0 folds every thread's accumulator, in thread order.
        lanes_out[pos] = func.fold_all(per_thread[:, lane],
                                       start=func.identity)
    return lanes_out


def _one_block(state: BatchChecksumState) -> tuple[np.ndarray, np.ndarray]:
    """A one-block state's per-thread accumulators, and a lane vector
    with its order-sensitive lanes (already final) filled in."""
    if state.n_blocks != 1:
        raise ConfigError(
            f"a block reduction reads one block; state holds {state.n_blocks}")
    lanes_out = np.empty(state.cset.n_lanes, dtype=np.uint64)
    lanes_out[state.seq_lane_positions] = state.seq_states[0]
    return state.per_thread[0], lanes_out


def _warp_butterfly(vals, func, row):
    """Five ``shfl_down`` rounds (Listing 4) over a thread vector.

    Matches CUDA's canonical ``val += __shfl_down_sync(...)`` idiom:
    lanes whose source falls off the warp receive their own value back
    and self-combine, which corrupts *their* registers but never
    propagates down to lane 0's result — exactly as on hardware.
    """
    offset = WARP_SIZE // 2
    while offset > 0:
        shifted = shfl_down(vals, offset)
        if row is not None:
            row.tally.shuffle_ops += vals.shape[0]
            row.alu(vals.shape[0])  # the combine op per lane
        vals = func.combine(vals, shifted)
        offset //= 2
    return vals


# ---------------------------------------------------------------------------
# Analytic costs for the paper-scale profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionCost:
    """Per-block operation counts of one reduction."""

    alu_ops: float
    shuffle_ops: float
    shared_bytes: float
    global_bytes: float
    syncthreads: float


def reduction_tally(
    mode: ReductionMode, n_threads: int, n_comm_lanes: int
) -> ReductionCost:
    """Operation counts one block's reduction generates.

    Mirrors exactly what :func:`reduce_parallel` /
    :func:`reduce_sequential` charge through a row; the agreement is
    pinned by a test so the analytic benchmark profiles cannot drift
    from the functional implementation.
    """
    if n_comm_lanes == 0:
        return ReductionCost(0.0, 0.0, 0.0, 0.0, 0.0)
    n_warps = math.ceil(n_threads / WARP_SIZE)
    steps = int(math.log2(WARP_SIZE))
    if mode is ReductionMode.PARALLEL_SHUFFLE:
        per_lane_shuffles = steps * n_threads + steps * WARP_SIZE
        per_lane_alu = per_lane_shuffles  # one combine per shuffle
        per_lane_shared = 2 * n_warps * LANE_BYTES
        return ReductionCost(
            alu_ops=float(n_comm_lanes * per_lane_alu),
            shuffle_ops=float(n_comm_lanes * per_lane_shuffles),
            shared_bytes=float(n_comm_lanes * per_lane_shared),
            global_bytes=0.0,
            syncthreads=float(n_comm_lanes),
        )
    if mode is ReductionMode.SEQUENTIAL_MEMORY:
        staged = n_threads * LANE_BYTES * n_comm_lanes
        return ReductionCost(
            alu_ops=float(n_threads * n_comm_lanes),
            shuffle_ops=0.0,
            shared_bytes=float(2 * staged),
            global_bytes=float(2 * staged),
            syncthreads=1.0,
        )
    raise ConfigError(f"unknown reduction mode: {mode}")


def apply_reduction_tally(tally: Tally, cost: ReductionCost, n_blocks: int = 1) -> None:
    """Add ``n_blocks`` blocks' worth of reduction cost to a tally."""
    tally.alu_ops += cost.alu_ops * n_blocks
    tally.shuffle_ops += cost.shuffle_ops * n_blocks
    tally.shared_bytes += cost.shared_bytes * n_blocks
    tally.global_read_bytes += cost.global_bytes / 2 * n_blocks
    tally.global_write_bytes += cost.global_bytes / 2 * n_blocks
    tally.syncthreads += cost.syncthreads * n_blocks
