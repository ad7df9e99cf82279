"""POSIX shared-memory plumbing for the zero-copy parallel engine.

A pooled :class:`~repro.gpu.engine.LaunchEngine` shares three kinds of
state with its persistent worker pool through named
``multiprocessing.shared_memory`` segments:

* the **device image** — every buffer's volatile ``data`` array,
  re-pointed into one segment at its line-aligned ``base_addr`` so
  workers read inputs zero-copy (no copy-on-write page duplication,
  no pickled arrays);
* the per-launch **slot array** — one fixed-size record per work chunk
  (status word, payload locator, busy-time, the eleven
  :class:`~repro.gpu.costs.Tally` fields) that workers fill and the
  parent polls, replacing pickled ``ChunkRecord`` objects;
* per-worker **arenas** — append-only byte regions that carry each
  chunk's variable-size payload (deferred stores, op logs, validation
  outcomes) in the compact binary encoding of :class:`PayloadWriter`.

Lifecycle is the hard part, not the data path. Segments live in
``/dev/shm`` under names tagged with the *creating* pid
(``lpshm-<pid>-...``), every creation is registered in a module-level
table swept by ``atexit``, and :func:`reap_orphans` deletes any
segment whose creator is dead — covering SIGKILLed workers and
harness children that never ran their own cleanup. Python 3.11's
``resource_tracker`` would otherwise unlink attached segments when the
*first* process exits and spam leak warnings for the rest; every
create/attach therefore unregisters itself and ownership is enforced
here, by creator pid, instead.
"""

from __future__ import annotations

import atexit
import errno
import os
import struct
import threading
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import LaunchError
from repro.obs import current as _recorder

#: Name prefix of every segment this module creates. The janitor only
#: ever touches names of this shape, so unrelated /dev/shm tenants are
#: safe from the sweep.
SEGMENT_PREFIX = "lpshm"

#: Where POSIX shared memory surfaces as files on Linux. Used only for
#: the orphan sweep (and by tests asserting leak-freedom); the data
#: path goes through ``multiprocessing.shared_memory``.
SHM_DIR = "/dev/shm"


def cpu_budget() -> int:
    """CPUs actually available to *this process*, container-aware.

    ``os.cpu_count()`` reports the host's core count even when the
    process is pinned to a subset (CI runners, cgroup-limited
    containers), which makes worker pools oversubscribe. Prefer
    ``os.process_cpu_count()`` (3.13+), then the scheduling affinity
    mask, then plain ``cpu_count`` as the last resort.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        n = getter()
        if n:
            return n
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


class _QuietSharedMemory(shared_memory.SharedMemory):
    """A ``SharedMemory`` whose ``close`` tolerates live buffer exports.

    Numpy views pin the underlying mmap; stock ``close()`` raises
    ``BufferError`` then — including from ``__del__`` at garbage
    collection, which prints an un-catchable "Exception ignored"
    traceback. The mapping is reclaimed when the views die; the name is
    gone the moment :meth:`SharedSegment.unlink` ran, so nothing leaks.
    """

    def close(self) -> None:  # noqa: D102 - see class docstring
        try:
            super().close()
        except BufferError:
            pass


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Withdraw a segment from the resource tracker's custody.

    The tracker unlinks every segment it knows about when its owning
    process exits — wrong for segments shared across a pool, where the
    creator alone (or the janitor, if the creator was SIGKILLed) must
    decide. Registration happens inside ``SharedMemory.__init__``, so
    it is undone here right after construction.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker variations
        pass


class SharedSegment:
    """One named shared-memory segment with owner-side cleanup.

    Create with :meth:`create` (registers for atexit sweep) or map an
    existing one with :meth:`attach`. ``close()`` drops this process's
    mapping; ``unlink()`` removes the name (creator's job). Both are
    idempotent and survive numpy views still holding the buffer —
    exports are only severed when the views die, exactly the
    ``BufferError``-tolerant idiom the mapped heap uses.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        shm.__class__ = _QuietSharedMemory
        self._shm = shm
        self.name = shm.name
        self.owner = owner
        self._closed = False
        self._unlinked = False

    # -- construction ---------------------------------------------------

    @classmethod
    def create(cls, kind: str, nbytes: int) -> "SharedSegment":
        """Create a fresh segment named ``lpshm-<pid>-<kind>-<seq>``."""
        name = _next_name(kind)
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, int(nbytes)))
        _untrack(shm)
        seg = cls(shm, owner=True)
        _register(seg)
        publish_segment_gauges()
        return seg

    @classmethod
    def attach(cls, name: str) -> "SharedSegment":
        """Map an existing segment by name (non-owning)."""
        shm = shared_memory.SharedMemory(name=name, create=False)
        _untrack(shm)
        return cls(shm, owner=False)

    # -- data views -----------------------------------------------------

    @property
    def nbytes(self) -> int:
        return self._shm.size

    @property
    def buf(self) -> memoryview:
        return self._shm.buf

    def ndarray(self, dtype, shape, offset: int = 0) -> np.ndarray:
        """A typed numpy view into the segment (zero-copy)."""
        count = int(np.prod(shape)) if shape else 1
        return np.frombuffer(
            self._shm.buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (view-tolerant, idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            # Live numpy views still pin the mapping; the memory is
            # reclaimed when they go away. Unlink (below) already
            # removed the name, so nothing leaks in /dev/shm.
            pass

    def unlink(self) -> None:
        """Remove the segment's name (idempotent; creator side)."""
        if self._unlinked:
            return
        self._unlinked = True
        _unregister(self)
        try:
            # ``SharedMemory.unlink`` sends its own tracker unregister;
            # re-register first so the pair balances (the construction
            # path already unregistered once, see :func:`_untrack`).
            resource_tracker.register(self._shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker variations
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        publish_segment_gauges()

    def destroy(self) -> None:
        """Unlink then close — full owner-side teardown."""
        if self.owner:
            self.unlink()
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        role = "owner" if self.owner else "attached"
        return f"SharedSegment({self.name!r}, {self.nbytes}B, {role})"


# ---------------------------------------------------------------------------
# Creation registry + atexit sweep + orphan janitor
# ---------------------------------------------------------------------------

_lock = threading.Lock()
_seq = 0
_live: "weakref.WeakValueDictionary[str, SharedSegment]" = \
    weakref.WeakValueDictionary()
_atexit_installed = False


def _next_name(kind: str) -> str:
    global _seq
    with _lock:
        _seq += 1
        return f"{SEGMENT_PREFIX}-{os.getpid()}-{kind}-{_seq}"


def _register(seg: SharedSegment) -> None:
    global _atexit_installed
    with _lock:
        _live[seg.name] = seg
        if not _atexit_installed:
            atexit.register(_sweep_at_exit)
            _atexit_installed = True


def _unregister(seg: SharedSegment) -> None:
    with _lock:
        _live.pop(seg.name, None)


def _sweep_at_exit() -> None:
    """Unlink every segment this process created and never released."""
    for seg in list(_live.values()):
        if seg.owner:
            seg.destroy()


def disown_all() -> None:
    """Renounce ownership of every registered segment (forked child).

    A pool worker inherits the parent's registry with ``owner=True``
    entries; were the child ever to run the atexit sweep (or call
    ``destroy()``), it would unlink segments the parent still shares.
    Workers call this first thing after the fork.
    """
    with _lock:
        for seg in list(_live.values()):
            seg.owner = False


def live_segment_names() -> list[str]:
    """Names of segments created by this process and still linked."""
    with _lock:
        return sorted(_live.keys())


def segment_stats() -> tuple[int, int]:
    """``(count, total_bytes)`` of this process's live segments.

    A registry walk over :data:`_live` — the attachment-side truth,
    independent of /dev/shm listings (which also see other processes).
    """
    with _lock:
        segs = list(_live.values())
    return len(segs), sum(seg.nbytes for seg in segs)


def publish_segment_gauges(metrics=None) -> tuple[int, int]:
    """Publish ``engine.shm.segments`` / ``segment_bytes`` gauges.

    Called on every create/unlink so the gauges track the pool's
    segment footprint live (and provably return to zero when an engine
    closes — the leak tests assert exactly that), and usable as a
    telemetry-sampler gauge provider. With no ``metrics`` argument the
    currently installed recorder's registry is used; inactive
    registries make this a no-op beyond the registry walk.
    """
    count, nbytes = segment_stats()
    if metrics is None:
        metrics = _recorder().metrics
    if metrics.active:
        metrics.set_gauge("engine.shm.segments", count)
        metrics.set_gauge("engine.shm.segment_bytes", nbytes)
    return count, nbytes


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError as exc:  # pragma: no cover - defensive
        return exc.errno != errno.ESRCH
    return True


def reap_orphans() -> list[str]:
    """Unlink segments whose creating process is dead.

    The backstop for abnormal exits: a SIGKILLed worker or harness
    child cannot run its atexit sweep, but its pid is baked into every
    segment name it created. Safe to call from any process at any time;
    returns the names it reaped.
    """
    reaped = []
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:  # pragma: no cover - no /dev/shm (non-Linux)
        return reaped
    prefix = SEGMENT_PREFIX + "-"
    for entry in entries:
        if not entry.startswith(prefix):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[1])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(SHM_DIR, entry))
            reaped.append(entry)
        except OSError:  # pragma: no cover - raced another reaper
            pass
    return reaped


def leaked_segments() -> list[str]:
    """Every ``lpshm-*`` name currently linked in /dev/shm.

    Test helper: after an engine closes (and the janitor runs), this
    must be empty.
    """
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:  # pragma: no cover - no /dev/shm
        return []
    return sorted(e for e in entries
                  if e.startswith(SEGMENT_PREFIX + "-"))


# ---------------------------------------------------------------------------
# Compact payload codec
# ---------------------------------------------------------------------------
#
# Worker chunks produce variable-size results: deferred batched stores,
# per-block op logs, validation outcome lanes. They are serialized into
# the per-worker arena with this self-describing little-endian framing
# (no pickle on the result path):
#
#   str    := u16 length, utf-8 bytes
#   array  := str dtype, u8 ndim, i64 shape..., raw data bytes
#   option := u8 presence flag, then the value if present
#
# Readers reconstruct arrays with ``np.frombuffer`` over the arena's
# memoryview — a copy only happens where application needs one anyway.

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")


class PayloadWriter:
    """Serialize one chunk's results into a contiguous byte payload."""

    def __init__(self) -> None:
        self._parts = bytearray()

    def u8(self, v: int) -> None:
        self._parts += _U8.pack(v)

    def u32(self, v: int) -> None:
        self._parts += _U32.pack(v)

    def i64(self, v: int) -> None:
        self._parts += _I64.pack(int(v))

    def str_(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise LaunchError(f"payload string too long ({len(raw)}B)")
        self._parts += _U16.pack(len(raw))
        self._parts += raw

    def array(self, arr: np.ndarray) -> None:
        arr = np.asarray(arr)
        if not arr.flags.c_contiguous:
            # ``ascontiguousarray`` only when needed — it promotes 0-d
            # arrays to 1-d, losing the shape.
            arr = np.ascontiguousarray(arr)
        self.str_(arr.dtype.str)
        self.u8(arr.ndim)
        for dim in arr.shape:
            self.i64(dim)
        self._parts += arr.tobytes()

    def optional_array(self, arr: np.ndarray | None) -> None:
        if arr is None:
            self.u8(0)
        else:
            self.u8(1)
            self.array(arr)

    def bytes_(self, raw: bytes) -> None:
        self.u32(len(raw))
        self._parts += raw

    def getvalue(self) -> bytes:
        return bytes(self._parts)


class PayloadReader:
    """Deserialize a :class:`PayloadWriter` payload from a buffer."""

    def __init__(self, buf, offset: int = 0) -> None:
        self._buf = buf
        self._pos = offset

    def _take(self, n: int) -> bytes:
        lo = self._pos
        self._pos = lo + n
        return bytes(self._buf[lo:self._pos])

    def u8(self) -> int:
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def i64(self) -> int:
        return _I64.unpack(self._take(8))[0]

    def str_(self) -> str:
        n = _U16.unpack(self._take(2))[0]
        return self._take(n).decode("utf-8")

    def array(self) -> np.ndarray:
        dtype = np.dtype(self.str_())
        ndim = self.u8()
        shape = tuple(self.i64() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = self._take(count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)

    def optional_array(self) -> np.ndarray | None:
        return self.array() if self.u8() else None

    def bytes_(self) -> bytes:
        return self._take(self.u32())
