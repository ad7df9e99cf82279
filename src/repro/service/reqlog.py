"""Per-window request log — the tiny WAL behind restart-resume.

The data needs no log (the mapped heap already survives SIGKILL) and
neither does the layout: the store's two buffers, the session's two
checksum tables and its results buffer are allocated once, in that
order, from :class:`~repro.service.core.ServiceConfig` alone, so a
restarted process rebuilds the addresses the heap directory holds
without being told. What a fresh process cannot know is *which writes
were in flight*: the checksum tables say whether a region's stores
persisted, not what the region was. So before a window's first write
launch the daemon records its ``launches`` — ``[op, keys, values]`` per
write kernel in execution order (at most one ``insert`` and one
``delete``; ``values`` is null for the delete), exactly as
:meth:`repro.service.core.WindowPlan.launches` produced them for the
forward path. GETs are not in it: a read makes nothing durable and the
client that asked is gone after a crash, so there is nothing to replay.

A restarted daemon reads the record, has the session ``prepare`` the
same list the forward path launched — there is no second description
of the window to keep in step with the first — and lets the session
recover and checkpoint the epoch. The record is cleared only after the
window's checkpoint drained *and* re-seeded the checksum tables, so **a
record never coexists with a checksum from an earlier window**: a
leftover ``cs(k, v1)`` would vouch for an in-flight ``PUT k = v2``
whose stores were lost, because validating a write folds whatever the
store holds at its keys.

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

SCHEMA_VERSION = 3

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

    def begin(self, launches: list) -> None:
        """Durably record the write launches of the window about to run."""
        doc = {"schema": SCHEMA_VERSION, "launches": launches}
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")))
        os.replace(tmp, self.path)

    def clear(self) -> None:
        """Retire the record (the window's checkpoint committed)."""
        self.path.unlink(missing_ok=True)

    def read(self) -> list:
        """The in-flight window's launch list; empty when none is armed."""
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return []
        if not raw.strip():
            return []
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
        return doc["launches"]
