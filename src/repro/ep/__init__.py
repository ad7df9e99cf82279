"""Eager Persistency: the flush-and-fence baseline LP replaces.

An extension of the reproduction (the paper argues against EP
qualitatively; the simulator lets the comparison be measured). The
wrapper runs its inner kernel's batch body on one immediate row per
block. See :mod:`repro.ep.runtime` for the protocol and the caveats.
"""

from repro.ep.log import COMMITTED, EP_BUFFER_PREFIX, IN_FLIGHT, UndoLog
from repro.ep.runtime import (
    EagerPersistentKernel,
    EPRecoveryManager,
    EPRecoveryReport,
    EPRuntime,
)

__all__ = [
    "COMMITTED",
    "EP_BUFFER_PREFIX",
    "EPRecoveryManager",
    "EPRecoveryReport",
    "EPRuntime",
    "EagerPersistentKernel",
    "IN_FLIGHT",
    "UndoLog",
]
