"""Exception hierarchy for the ``repro`` GPU Lazy Persistency library.

Every exception raised by this package derives from :class:`ReproError`,
so callers can catch the whole family with a single ``except`` clause.
Exceptions are grouped by the subsystem that raises them (memory model,
device execution, checksum tables, recovery, directive compiler).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """An :class:`~repro.core.config.LPConfig` combination is invalid.

    Example: requesting a parallel (shuffle) reduction with an
    order-sensitive checksum such as Adler-32.
    """


class MemoryError_(ReproError):
    """Base class for simulated-memory errors.

    The trailing underscore avoids shadowing the :class:`MemoryError`
    builtin while keeping the name recognizable.
    """


class AllocationError(MemoryError_):
    """A buffer could not be allocated (duplicate name, bad shape, ...)."""


class OutOfBoundsError(MemoryError_):
    """A load/store addressed elements outside a buffer's extent."""


class DeviceError(ReproError):
    """The simulated device was driven through an invalid sequence."""


class LaunchError(DeviceError):
    """A kernel launch was malformed (zero blocks, bad block size, ...)."""


class BatchFallbackError(LaunchError):
    """A vectorized block group met input it cannot reproduce exactly.

    Raised by a ``run_block_batch`` implementation (or a
    :class:`~repro.gpu.batch.BatchBlockContext` primitive) *before any
    effect* — no store recorded against memory, no host statistic
    touched, nothing charged to the launch's atomic unit. The launch
    engine catches it, runs that group's blocks one at a time, and
    counts ``engine.fallbacks``; it never reaches a caller. The blocks
    re-run the same batch body as immediate rows, under the same LP
    observer and checksum state, so the fallback changes no result.
    """


class CrashedDeviceError(DeviceError):
    """An operation requires a live device but the device has crashed.

    Raised when e.g. a kernel launch is attempted between ``crash()`` and
    ``restart()``.
    """


class TableError(ReproError):
    """Base class for checksum-table errors."""


class TableFullError(TableError):
    """An open-addressing insertion could not find a free slot."""


class RehashLimitError(TableError):
    """Cuckoo hashing exceeded its bound on consecutive rehash attempts."""


class DuplicateKeyError(TableError):
    """A key was inserted twice into a table that forbids duplicates."""


class HeapError(MemoryError_):
    """Base class for durable (mmap-backed) heap errors."""


class HeapFormatError(HeapError):
    """A heap file's header or directory is not in the expected format.

    Raised for a wrong magic number, nonsensical geometry fields, or an
    undecodable buffer directory.
    """


class HeapVersionError(HeapError):
    """A heap file was written by an incompatible format version."""


class HeapTruncatedError(HeapError):
    """A heap file is shorter than its own directory says it must be."""


class HeapCorruptError(HeapError):
    """A heap file's directory checksum does not match its contents."""


class HeapLayoutError(HeapError):
    """A heap file's buffer directory disagrees with the live memory
    layout it is being adopted into (names, dtypes, shapes or
    addresses diverged)."""


class HeapFullError(HeapError):
    """The heap file cannot hold another allocation (directory region
    exhausted)."""


class HarnessError(ReproError):
    """Base class for out-of-process crash-harness errors."""


class ChildStartupError(HarnessError):
    """A harness child process kept dying before reporting ready.

    Raised once the bounded retry/backoff spawn loop is exhausted.
    """


class ChildTimeoutError(HarnessError):
    """A harness child neither finished nor got killed within its
    deadline (the harness kills its process group before raising)."""


class RecoveryError(ReproError):
    """Crash recovery could not restore a consistent state."""


class ValidationError(RecoveryError):
    """Checksum validation was attempted against a malformed table."""


class UnrecoverableRegionError(RecoveryError):
    """A failed LP region has no recovery function.

    Raised for non-idempotent regions whose kernel does not provide a
    custom recovery implementation.
    """


class CompileError(ReproError):
    """Base class for directive-compiler errors."""


class DirectiveSyntaxError(CompileError):
    """A ``#pragma nvm`` directive could not be parsed."""


class DirectiveSemanticError(CompileError):
    """A directive parsed but is semantically invalid.

    Example: ``lpcuda_checksum`` referencing a checksum table that no
    ``lpcuda_init`` declared, or an unknown checksum-type token.
    """


class SliceError(CompileError):
    """The program slice of a store-address computation could not be built."""


class ServiceError(ReproError):
    """Base class for KV-service (daemon / protocol / client) errors."""


class ProtocolError(ServiceError):
    """A wire frame or request document violated the service protocol."""


class ServiceUnavailableError(ServiceError):
    """The daemon could not be reached (or the connection dropped)."""
