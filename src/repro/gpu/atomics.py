"""Atomic read-modify-write operations on simulated global memory.

The checksum tables rely on two primitives the paper singles out
(Section IV-C-1):

* ``atomicCAS`` — quadratic probing claims an empty slot only if it is
  still empty, eliminating insert races without a lock.
* ``atomicExch`` — cuckoo hashing unconditionally swaps the incoming
  key with whatever occupies the slot, making eviction chains race-safe.

The simulator executes blocks one at a time, so these operations are
trivially functionally atomic; what this module adds is the *cost*
bookkeeping: every atomic is counted, and a per-address histogram feeds
the same-address serialization term of the cost model (contended
atomics are the paper's diagnosis for the hash tables' overheads).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.gpu.memory import Buffer, GlobalMemory


class AtomicUnit:
    """Executes atomics and tracks contention for one kernel launch."""

    def __init__(self, memory: GlobalMemory) -> None:
        self._memory = memory
        #: Atomic operations per global element address.
        self.per_address: Counter = Counter()
        #: Total atomic operations issued.
        self.total_ops = 0

    # ------------------------------------------------------------------
    # Scalar primitives (one address), as used by table insertion.
    # ------------------------------------------------------------------

    def cas(self, buf: Buffer, index: int, compare, value) -> np.generic:
        """``atomicCAS``: store ``value`` iff the slot equals ``compare``.

        Returns the *old* value, as CUDA does; the caller infers success
        from ``old == compare``.
        """
        self.charge(buf, [index])
        old = buf.data[index]
        if old == buf.dtype.type(compare):
            self._memory.write(buf, np.asarray([index]),
                               np.asarray([value], dtype=buf.dtype))
        return old

    def exch(self, buf: Buffer, index: int, value) -> np.generic:
        """``atomicExch``: unconditionally swap in ``value``; return old."""
        self.charge(buf, [index])
        old = buf.data[index]
        self._memory.write(buf, np.asarray([index]),
                           np.asarray([value], dtype=buf.dtype))
        return old

    # ------------------------------------------------------------------
    # Vector primitives (per-thread), as used by histogram-style kernels.
    # ------------------------------------------------------------------

    def add(self, buf: Buffer, indices: np.ndarray, values: np.ndarray) -> None:
        """``atomicAdd`` from many threads at once.

        Conflicting indices accumulate correctly (``np.add.at``); each
        conflicting op still counts toward the hot-address histogram, so
        contention costs what it should.
        """
        idx = np.asarray(indices)
        self.charge(buf, idx)
        # Functional read-modify-write with correct duplicate handling.
        np.add.at(buf.data, idx, np.asarray(values, dtype=buf.dtype))
        if buf.persistent:
            # Route the dirty-line tracking through the memory system by
            # re-writing the final values of the touched elements.
            touched = np.unique(idx)
            self._memory.write(buf, touched, buf.data[touched])

    # ------------------------------------------------------------------
    # Contention accounting
    # ------------------------------------------------------------------

    @property
    def hot_max(self) -> int:
        """Largest op count landing on one single address."""
        if not self.per_address:
            return 0
        return max(self.per_address.values())

    def charge(self, buf: Buffer, indices) -> None:
        """Count one atomic op per index without executing anything.

        The primitives above call this for themselves; a vectorized
        context that resolves a whole group's atomics at once (see
        :meth:`~repro.gpu.batch.BatchBlockContext.atomic_cas_claim`)
        charges every attempt it resolved through here.
        """
        base = buf.base_addr // buf.dtype.itemsize if buf.dtype.itemsize else 0
        idx = np.asarray(indices).reshape(-1)
        self.total_ops += idx.size
        # Address = buffer-qualified element index (buffers never alias).
        for i, n in zip(*np.unique(idx, return_counts=True)):
            self.per_address[(buf.name, int(i) + base)] += int(n)
