"""Warp-level register exchange primitives (``__shfl_*_sync``).

Starting with Kepler, threads of a warp can exchange register values
directly, without a round trip through shared memory. The paper's
parallel checksum reduction (Listings 3-4, Fig. 1) is built on
``__shfl_down_sync``; this module emulates those primitives over
*thread vectors* — numpy arrays whose axis 0 enumerates the threads of
a block in lane order.

Functional semantics follow CUDA: for ``shfl_down(v, offset)``, lane
``i`` receives lane ``i + offset``'s value if that lane exists in the
warp, otherwise it keeps its own value.
"""

from __future__ import annotations

import math

import numpy as np

#: Threads per warp on every NVIDIA architecture the paper considers.
WARP_SIZE = 32


def _as_warps(values: np.ndarray, warp_size: int) -> np.ndarray:
    """View a thread vector as ``(n_warps, warp_size)``, padding with 0.

    A block whose size is not a warp multiple gets a partial final warp;
    CUDA masks those lanes out, which padding with zeros emulates for
    the reductions used here (0 is the identity of both ``+`` and
    ``^``).
    """
    values = np.asarray(values)
    n = values.shape[0]
    n_warps = math.ceil(n / warp_size)
    if n_warps * warp_size != n:
        pad = np.zeros((n_warps * warp_size - n,) + values.shape[1:],
                       dtype=values.dtype)
        values = np.concatenate([values, pad], axis=0)
    return values.reshape((n_warps, warp_size) + values.shape[1:])


def shfl_down(values: np.ndarray, offset: int, warp_size: int = WARP_SIZE) -> np.ndarray:
    """``__shfl_down_sync``: lane ``i`` reads lane ``i + offset``.

    Lanes whose source would fall outside the warp keep their own value
    (matching the CUDA semantics with a full mask).
    """
    if offset < 0:
        raise ValueError("offset must be non-negative")
    values = np.asarray(values)
    n = values.shape[0]
    warps = _as_warps(values, warp_size).copy()
    if offset and offset < warp_size:
        warps[:, : warp_size - offset] = warps[:, offset:]
    return warps.reshape((-1,) + values.shape[1:])[:n]


def warp_reduce(
    values: np.ndarray,
    op: str = "add",
    warp_size: int = WARP_SIZE,
) -> tuple[np.ndarray, int]:
    """Butterfly-reduce each warp with ``shfl_down`` (Listing 4).

    Returns ``(reduced, n_steps)`` where ``reduced`` has one entry per
    warp (the value lane 0 holds after the reduction) and ``n_steps`` is
    the number of shuffle rounds executed — ``log2(warp_size)``, the
    paper's ``O(log N)`` claim.

    ``op`` is ``"add"`` (modular checksum) or ``"xor"`` (parity).
    """
    combine = _combiner(op)
    values = np.asarray(values)
    n = values.shape[0]
    warps = _as_warps(values, warp_size).copy()

    n_steps = 0
    offset = warp_size // 2
    while offset > 0:
        shifted = np.zeros_like(warps)
        shifted[:, : warp_size - offset] = warps[:, offset:]
        # Lanes with no source keep their value; but those lanes never
        # contribute to lane 0's result, so combining with 0/identity
        # via the zero padding is equivalent and simpler.
        warps[:, : warp_size - offset] = combine(
            warps[:, : warp_size - offset], shifted[:, : warp_size - offset]
        )
        offset //= 2
        n_steps += 1

    n_warps = math.ceil(n / warp_size)
    return warps[:, 0].copy()[:n_warps], n_steps


def lane_ids(n_threads: int, warp_size: int = WARP_SIZE) -> np.ndarray:
    """Lane index of every thread in a block."""
    return np.arange(n_threads) % warp_size


def warp_ids(n_threads: int, warp_size: int = WARP_SIZE) -> np.ndarray:
    """Warp index of every thread in a block."""
    return np.arange(n_threads) // warp_size


def _combiner(op: str):
    if op == "add":
        return lambda a, b: a + b
    if op == "xor":
        return np.bitwise_xor
    raise ValueError(f"unsupported warp reduction op: {op!r}")
