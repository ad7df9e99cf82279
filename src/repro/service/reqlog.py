"""Per-window request log — the tiny WAL behind restart-resume.

The data needs no log (the mapped heap already survives SIGKILL) and
neither does the layout: the store's two buffers, the session's write
checksum table and its results buffer are allocated once, in that
order, from :class:`~repro.service.core.ServiceConfig` alone, so a
restarted process rebuilds the addresses the heap directory holds
without being told. What a fresh process cannot know is *which writes
were in flight*: the checksum table says whether a region's stores
persisted, not what the region was. So before a window's write launch
the daemon records its ``launches`` — at most one ``["write", keys,
values, reads]``, a value of 0 deleting its key — exactly as
:meth:`repro.service.core.WindowPlan.launches` produced it for the
forward path. The read mask is kept too, although a read makes nothing
durable: the window's GETs ride the launch as lanes, and the resumed
launch must lay its lanes out over the same blocks, because the
checksum table is keyed by block id. The answers a replayed launch
computes are discarded; the clients that asked are gone after a crash.

A restarted daemon reads the record, has the session ``prepare`` the
same list the forward path launched — there is no second description
of the window to keep in step with the first — and lets the session
recover and checkpoint the epoch. The record is cleared only after the
window's checkpoint drained *and* re-seeded the checksum table, so **a
record never coexists with a checksum from an earlier window**: a
leftover ``cs(k, v1)`` would vouch for an in-flight ``PUT k = v2``
whose stores were lost, because validating a write folds whatever the
store holds at its keys.

A record lives only between a crash and the next start, so there is no
reader for older shapes: :data:`SCHEMA_VERSION` is bumped whenever the
record changes and :meth:`RequestLog.read` refuses any other version
with a typed :class:`~repro.errors.ServiceError`.

The log is one file, opened (and grown to the largest record
``max_batch`` permits) once and then only overwritten in place: a
record is ``magic | schema | length | crc32 | body`` written by one
``pwrite`` at offset 0, and retiring it is one ``pwrite`` of a zeroed
16-byte header. No temp file, no rename, no unlink — a window's WAL
traffic is two writes into pages the file already owns and no directory
operation (each of which would open a filesystem journal transaction
behind the ``msync`` it follows). The header sits inside one page, so a
SIGKILL cannot tear it; a body longer than a page can be cut at a page
boundary, which leaves a header whose CRC does not cover what follows.
That is a ``begin`` that never returned, and launches start only after
``begin`` returns, so nothing of that window reached the heap:
:meth:`RequestLog.read` reports it as *no window in flight* and sets
:attr:`RequestLog.torn`. There is deliberately no fsync: the heap
itself relies on page-cache durability (surviving process death, not
power loss), and the log needs exactly the same guarantee — see
``docs/architecture.md`` §9.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

from repro.errors import ServiceError

MAGIC = b"LPRQ"
SCHEMA_VERSION = 6

#: ``magic | schema | body length | crc32(body)``; all-zero = no record.
_HEADER = struct.Struct("<4sIII")
_CLEARED = bytes(_HEADER.size)

#: JSON bytes a launch list can take: a uint64 is at most 20 digits plus
#: its comma, every key of a window appears once with at most its value
#: (``0,`` for a delete) and its read flag (``1,``), and the brackets and
#: op name fit the fixed part.
_FIXED_BYTES = 64
_BYTES_PER_KEY = 44

#: Suffix appended to the heap path to name its request log.
SUFFIX = ".reqlog"


def log_path_for(heap_path) -> Path:
    """The request-log path paired with a heap path."""
    heap_path = Path(heap_path)
    return heap_path.with_name(heap_path.name + SUFFIX)


class RequestLog:
    """One-record, in-place write-ahead log for the in-flight window."""

    def __init__(self, path, max_keys: int = 0) -> None:
        """Open (creating) the log and reserve room for a window of
        ``max_keys`` keys. The file only ever grows, by zeros past the
        end: whatever record it holds is left as found."""
        self.path = Path(path)
        #: The last :meth:`read` found a record its CRC does not cover.
        self.torn = False
        # The file object owns the descriptor (and closes it when the
        # log is dropped); every access is a positional read or write.
        self._file = open(os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644),
                          "r+b", buffering=0)
        self._fd = self._file.fileno()
        size = os.fstat(self._fd).st_size
        reserve = _HEADER.size + _FIXED_BYTES + _BYTES_PER_KEY * max_keys
        if size < reserve:
            os.pwrite(self._fd, bytes(reserve - size), size)

    def begin(self, launches: list) -> None:
        """Durably record the write launches of the window about to run."""
        body = json.dumps(launches, separators=(",", ":")).encode()
        os.pwrite(self._fd, _HEADER.pack(MAGIC, SCHEMA_VERSION, len(body),
                                         zlib.crc32(body)) + body, 0)

    def clear(self) -> None:
        """Retire the record (the window's checkpoint committed)."""
        os.pwrite(self._fd, _CLEARED, 0)

    def read(self) -> list:
        """The in-flight window's launch list; empty when none is armed
        or the record is torn (see :attr:`torn`)."""
        self.torn = False
        head = os.pread(self._fd, _HEADER.size, 0)
        if head in (b"", _CLEARED):
            return []
        if len(head) < _HEADER.size or not head.startswith(MAGIC):
            raise ServiceError(
                f"request log {self.path} is not a schema-{SCHEMA_VERSION} "
                f"record (it starts {head[:8]!r}); a log written by an "
                f"older build must be resumed by that build")
        _, schema, length, crc = _HEADER.unpack(head)
        if schema != SCHEMA_VERSION:
            raise ServiceError(
                f"request log {self.path} has schema {schema}; this "
                f"build reads {SCHEMA_VERSION}")
        body = b""
        if length <= os.fstat(self._fd).st_size - _HEADER.size:
            body = os.pread(self._fd, length, _HEADER.size)
        if len(body) != length or zlib.crc32(body) != crc:
            self.torn = True
            return []
        return json.loads(body)

    def close(self) -> None:
        self._file.close()
