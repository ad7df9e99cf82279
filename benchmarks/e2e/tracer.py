"""Outside-in tracer: timing wrappers the benchmark installs by dotted name.

The program under test is not edited. :meth:`Tracer.install` resolves
each :class:`Target` path (``repro.nvm.sharded.ShardedShadow.attach``),
replaces the attribute with a wrapper that records a span around the
call, and :meth:`Tracer.uninstall` puts the original object back. A
path that no longer resolves raises :class:`TracerError` — a refactor
that renames a traced callable must update the benchmark in its own
change instead of silently losing the metric.

A span is ``[name, start, end, parent, root, attrs]``: ``parent`` and
``root`` are span indices (``-1`` / own index for a top-level span), so
every span under one ``execute_window`` call shares that window's index
as its identifier. The span stack is thread-local; work a traced call
hands to another thread shows up as that thread's own top-level spans
and is *not* subtracted from the caller, which is then measured as
waiting for it. Spans stay in memory until :meth:`Tracer.dump`.

Times are ``time.perf_counter()`` seconds. On Linux that is
``CLOCK_MONOTONIC``, one clock for every process on the machine, which
is what lets the benchmark cut a daemon child's spans to the interval
it timed from outside.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, ROOT, ATTRS = range(6)


class TracerError(RuntimeError):
    """A trace target does not exist (or is not what the ledger expects)."""


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``attrs(*args, **kwargs)`` and ``result_attrs(result)`` return small
    dicts of counts read off the call (window fill, lines committed);
    they run inside the span, so keep them O(arguments).
    """

    name: str
    path: str
    attrs: Callable[..., dict] | None = None
    result_attrs: Callable[[object], dict] | None = None


def resolve(path: str):
    """``(owner, attribute name)`` of a dotted path, importing as needed."""
    parts = path.split(".")
    module = None
    for cut in range(len(parts) - 1, 0, -1):
        modname = ".".join(parts[:cut])
        try:
            module = importlib.import_module(modname)
        except ModuleNotFoundError as exc:
            # Only "this prefix is not a module" moves on to a shorter
            # prefix; a dependency missing *inside* the module is real.
            if exc.name is None or not modname.startswith(exc.name):
                raise
            continue
        break
    if module is None:
        raise TracerError(f"trace target {path!r}: no importable module")
    owner = module
    for part in parts[cut:-1]:
        try:
            owner = getattr(owner, part)
        except AttributeError:
            raise TracerError(
                f"trace target {path!r}: {part!r} no longer exists") from None
    attr = parts[-1]
    if attr not in vars(owner):
        raise TracerError(
            f"trace target {path!r}: {attr!r} is not defined on "
            f"{getattr(owner, '__name__', owner)!r} (renamed, removed or "
            "moved to a base class?)")
    return owner, attr


class Tracer:
    """In-memory span recorder plus the install / uninstall bookkeeping."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # Re-entrant: a signal handler may dump while this thread records.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _enter(self, name: str, attrs: dict | None) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, -1, -1, attrs]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        if stack:
            span[PARENT] = stack[-1][0]
            span[ROOT] = stack[-1][1]
        else:
            span[ROOT] = index
        stack.append((index, span[ROOT]))
        span[START] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A benchmark-owned span (e.g. one crash-cycle leg)."""
        span = self._enter(name, attrs or None)
        try:
            yield span
        finally:
            self._exit(span)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, target: Target, fn):
        enter, leave = self._enter, self._exit
        name, attrs, result_attrs = (target.name, target.attrs,
                                     target.result_attrs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = enter(name, attrs(*args, **kwargs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
                if result_attrs is not None:
                    span[ATTRS] = {**(span[ATTRS] or {}),
                                   **result_attrs(result)}
                return result
            finally:
                leave(span)

        return traced

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; all-or-nothing (a bad path undoes the rest)."""
        try:
            for target in targets:
                owner, attr = resolve(target.path)
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(
                        self._wrap(target, original.__func__))
                elif callable(original):
                    wrapped = self._wrap(target, original)
                else:
                    raise TracerError(
                        f"trace target {target.path!r} is not callable")
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._installed)

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span recorded so far as one JSON document."""
        with self._lock:
            spans = [list(span) for span in self.spans]
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter", "spans": spans}, fh,
                      separators=(",", ":"))


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    out = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            out[span[PARENT]] -= span[END] - span[START]
    return out
