"""Per-block shared memory (``__shared__`` arrays).

Shared memory is on-chip scratch visible to all threads of one block.
It is volatile and block-private: allocations exist only for the
lifetime of one block's execution, which the simulator models by giving
every immediate row (:attr:`repro.gpu.batch.BatchBlockContext.shared`)
a fresh :class:`SharedMemory`; a deferred group, whose blocks would
share it, has none.

Traffic through shared memory is tallied separately from global-memory
traffic; it matters for the sequential-reduction ablation (Table IV),
where checksums are staged through shared/global memory instead of
registers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AllocationError


class SharedMemory:
    """Named scratch arrays shared by the threads of one block."""

    def __init__(self, capacity_bytes: int = 96 * 1024) -> None:
        self.capacity_bytes = capacity_bytes
        self._arrays: dict[str, np.ndarray] = {}
        self._used_bytes = 0
        #: Bytes moved in/out of shared memory (reads + writes).
        self.traffic_bytes = 0

    def alloc(
        self,
        name: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        """Declare a ``__shared__`` array; idempotent per name.

        Returns the existing array when called again with the same name
        (a kernel may "declare" it once per helper function, as CUDA
        static shared memory does).
        """
        if name in self._arrays:
            return self._arrays[name]
        if isinstance(shape, int):
            shape = (shape,)
        arr = np.zeros(shape, dtype=dtype)
        if self._used_bytes + arr.nbytes > self.capacity_bytes:
            raise AllocationError(
                f"shared memory overflow: {name!r} needs {arr.nbytes} B, "
                f"{self.capacity_bytes - self._used_bytes} B free"
            )
        self._used_bytes += arr.nbytes
        self._arrays[name] = arr
        return arr

    def read(self, name: str, idx: np.ndarray | slice) -> np.ndarray:
        """Load from a shared array, counting traffic."""
        arr = self._get(name)
        out = arr[idx]
        self.traffic_bytes += np.asarray(out).nbytes
        return out

    def write(self, name: str, idx: np.ndarray | slice, values: np.ndarray) -> None:
        """Store to a shared array, counting traffic."""
        arr = self._get(name)
        arr[idx] = values
        self.traffic_bytes += np.asarray(arr[idx]).nbytes

    def raw(self, name: str) -> np.ndarray:
        """Direct (untallied) view, for code that self-accounts traffic."""
        return self._get(name)

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._used_bytes

    def _get(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise AllocationError(f"no shared array named {name!r}") from None
