"""MEGA-KV: a batched GPU key-value store with Lazy Persistency.

The paper's real-world evaluation target (Section VII-4): a
device-resident bucketed hash index serving batched insert / search /
delete requests, each batch an LP-instrumented kernel.
"""

from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    KVWriteKernel,
    alloc_results,
)
from repro.megakv.lp import BatchOutcome, KVBatchSession
from repro.megakv.store import BUCKET_WIDTH, EMPTY_SLOT, MegaKVStore, StoreStats

__all__ = [
    "BUCKET_WIDTH",
    "BatchOutcome",
    "EMPTY_SLOT",
    "KVBatchSession",
    "KVDeleteKernel",
    "KVInsertKernel",
    "KVSearchKernel",
    "KVWriteKernel",
    "MegaKVStore",
    "StoreStats",
    "alloc_results",
]
