"""In-process stand-ins for a SIGKILL inside a window's durable half,
shared by the service tests.

The window goes through the production ``execute_window`` — coalesce,
plain search, WAL begin, the write launch — and "dies" at one of
:data:`DEATH_POINTS`, so the request log the next :class:`ServiceCore`
resumes from is the one the service itself wrote, never a hand-built
copy of its format.
"""

import pytest

from repro.service.core import Request


class ProcessDied(Exception):
    """Raised in place of the step the process never reached."""


def requests(*ops):
    return [Request(op=op, key=key, value=value) for op, key, value in ops]


def apply_reference(state, ops):
    """Apply ``ops`` to ``state`` one at a time, in arrival order.

    Returns ``(state, responses)``: the dict a store that applied
    ``ops`` must equal, and the response each op must be acked with
    (``None`` for a GET that misses) — the arrival-order reference a
    coalesced window is linearizable against.
    """
    responses = []
    for op, key, value in ops:
        doc = {"ok": True, "op": op}
        if op == "put":
            state[key] = value
        elif op == "delete":
            state.pop(key, None)
        else:
            doc["value"] = state.get(key)
        responses.append(doc)
    return state, responses


def _die(*_args, **_kwargs):
    raise ProcessDied


def _after_wal_begin(core):
    """WAL armed, the checksum table still a seed image."""
    begin = core.reqlog.begin

    def begin_then_die(launches):
        begin(launches)
        raise ProcessDied

    core.reqlog.begin = begin_then_die


def _before_drain(core):
    """The write launch ran, nothing was drained."""
    core.session.checkpoint = _die


def _after_drain(core):
    """Drained, the table still holds this window's checksums."""
    core.session.manager.on_close = _die


def _after_reseed(core):
    """Drained and re-seeded, the WAL record still there."""
    core.reqlog.clear = _die


#: Where a window's durable half can die, in order; each entry arms one
#: death on a live core.
DEATH_POINTS = {
    "after-wal-begin": _after_wal_begin,
    "before-drain": _before_drain,
    "after-drain": _after_drain,
    "after-reseed": _after_reseed,
}


def crash_window(core, point, *ops):
    """Run ``ops`` as one window that dies at ``DEATH_POINTS[point]``,
    and abandon the write-back cache. Returns the heap directory as of
    the death: ``(name, base_addr, nbytes)`` per entry."""
    DEATH_POINTS[point](core)
    with pytest.raises(ProcessDied):
        core.execute_window(requests(*ops))
    seen = [(e.name, e.base_addr, e.nbytes)
            for e in core.heap.entries.values()]
    core.close(drain=False)
    return seen


def crash_before_drain(core, *ops):
    """:func:`crash_window` at the point the write launch has run."""
    return crash_window(core, "before-drain", *ops)
