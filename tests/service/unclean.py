"""In-process stand-in for a SIGKILL between a window's last launch
and its drain, shared by the service tests.

The window goes through the production ``execute_window`` — partition,
WAL begin, every launch — and "dies" where the checkpoint would start,
so the request log the next :class:`ServiceCore` resumes from is the
one the service itself wrote, never a hand-built copy of its format.
"""

import pytest

from repro.service.core import Request


class ProcessDied(Exception):
    """Raised in place of the drain."""


def requests(*ops):
    return [Request(op=op, key=key, value=value) for op, key, value in ops]


def apply_reference(state, ops):
    """The dict a store that applied ``ops`` in order must equal."""
    for op, key, value in ops:
        if op == "put":
            state[key] = value
        elif op == "delete":
            state.pop(key, None)
    return state


def crash_before_drain(core, *ops):
    """Launch ``ops`` as one window, die before the drain, and abandon
    the write-back cache. Returns the heap directory as of the death:
    ``(name, base_addr, nbytes)`` per entry."""
    seen = []

    def die():
        seen.extend((e.name, e.base_addr, e.nbytes)
                    for e in core.heap.entries.values())
        raise ProcessDied

    core.session.checkpoint = die
    with pytest.raises(ProcessDied):
        core.execute_window(requests(*ops))
    core.close(drain=False)
    return seen
