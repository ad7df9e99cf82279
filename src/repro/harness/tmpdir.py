"""Managed temp directories: no harness artifact outlives the harness.

The crash harness exists to SIGKILL processes at the worst possible
moment, which is exactly how temp files get orphaned: a killed child
never runs its own cleanup. The fix is structural — every file the
harness or its children create (heap images, spec files, ready
markers, temp files via ``TMPDIR``) lives under one
:class:`ManagedTmpdir` owned by the *parent*, removed by
context-manager exit and, as a backstop, by ``atexit``. Cleanup
therefore never depends on the process being killed having had a
chance to do anything.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from pathlib import Path


class ManagedTmpdir:
    """A temp directory with guaranteed (parent-side) removal.

    Usable as a context manager; an ``atexit`` hook covers the
    non-context uses and any exit path that skips ``__exit__``
    (``sys.exit`` inside a callback, an unhandled signal in the
    *parent* short of SIGKILL). ``keep=True`` disables removal for
    debugging killed-child state.
    """

    def __init__(self, prefix: str = "lp-harness-",
                 keep: bool = False) -> None:
        self.path = Path(tempfile.mkdtemp(prefix=prefix))
        self.keep = keep
        self._cleaned = False
        atexit.register(self.cleanup)

    def file(self, name: str) -> Path:
        """Path of a named file inside the directory."""
        return self.path / name

    def cleanup(self) -> None:
        """Remove the directory tree (idempotent, never raises)."""
        if self._cleaned:
            return
        self._cleaned = True
        atexit.unregister(self.cleanup)
        if not self.keep:
            shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "ManagedTmpdir":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "kept" if self.keep else (
            "cleaned" if self._cleaned else "live"
        )
        return f"ManagedTmpdir({str(self.path)!r}, {state})"
