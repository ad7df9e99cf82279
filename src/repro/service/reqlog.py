"""Per-window request log — the tiny WAL behind restart-resume.

The daemon's durability problem is not the data (the mapped heap
already survives SIGKILL); it is the *layout*. `GlobalMemory` is a
bump allocator — every checksum table and search-results buffer of an
in-flight window sits at an address determined by the full allocation
history — and `MappedShadow.adopt` demands an exact layout match. So
before launching a window the daemon writes one log record capturing
everything needed to rebuild the window's allocations deterministically
in a fresh process:

* ``next_addr`` — the allocator cursor before the window's first
  allocation,
* ``batch_counter`` — the session's batch number, from which
  :meth:`~repro.megakv.lp.KVBatchSession.prepare` names every checksum
  table and results buffer,
* ``launches`` — the window's launch list, ``[op, keys, values]`` per
  kernel launch in execution order (``values`` is null except for
  inserts), exactly as :func:`repro.service.core.window_launches`
  produced it for the forward path.

A restarted daemon reads the record, seeds a fresh allocator and
session at ``next_addr`` / ``batch_counter``, has the session
``prepare`` the same list the forward path launched — there is no
second description of the window to keep in step with the first —
adopts the heap, and lets the session recover and checkpoint the
epoch. The log is cleared only after the window's checkpoint drained —
crash anywhere in between and the record is still there.

A record lives only between a crash and the next start, so there is no
reader for older shapes: :data:`SCHEMA_VERSION` is bumped whenever the
record changes and :meth:`RequestLog.read` refuses any other version
with a typed :class:`~repro.errors.ServiceError`.

Writes go through write-temp + :func:`os.replace`, so a reader sees
either the previous record or the new one, never a torn mix. There is
deliberately no fsync: the heap itself relies on page-cache durability
(surviving process death, not power loss), and the log needs exactly
the same guarantee — see ``docs/architecture.md`` §9.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import ServiceError

SCHEMA_VERSION = 2

#: Suffix appended to the heap path to name its request log.
SUFFIX = ".reqlog"


def log_path_for(heap_path) -> Path:
    """The request-log path paired with a heap path."""
    heap_path = Path(heap_path)
    return heap_path.with_name(heap_path.name + SUFFIX)


class RequestLog:
    """One-record write-ahead log for the in-flight request window."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def begin(self, *, next_addr: int, batch_counter: int,
              launches: list) -> None:
        """Durably record the window about to launch."""
        doc = {
            "schema": SCHEMA_VERSION,
            "next_addr": int(next_addr),
            "batch_counter": int(batch_counter),
            "launches": launches,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Retire the record (the window's checkpoint committed)."""
        self.path.unlink(missing_ok=True)

    def read(self) -> dict | None:
        """The pending window record, or ``None`` when nothing is armed."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        if not raw.strip():
            return None
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            # The atomic-replace write protocol makes this unreachable
            # short of filesystem corruption; refuse to guess.
            raise ServiceError(
                f"request log {self.path} is undecodable: {exc}"
            ) from exc
        if doc.get("schema") != SCHEMA_VERSION:
            raise ServiceError(
                f"request log {self.path} has schema "
                f"{doc.get('schema')!r}; this build reads "
                f"{SCHEMA_VERSION}"
            )
        return doc
