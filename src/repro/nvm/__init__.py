"""NVM persistence domain: write accounting, crash plans, fault
injection, and the durable heap.

Submodules are exposed lazily (PEP 562): :mod:`repro.gpu.memory`
imports :mod:`repro.nvm.model` while the ``gpu`` package is still
initializing, so this ``__init__`` must not import the higher-level
crash/heap modules eagerly.
"""

from repro.nvm.model import WritebackReason, WriteStats, write_amplification

_LAZY = {
    "CrashPlan": "repro.nvm.crash",
    "FaultInjector": "repro.nvm.crash",
    "MappedShadow": "repro.nvm.mapped",
    "HeapEntry": "repro.nvm.mapped",
    "TornWindow": "repro.nvm.mapped",
    "ShardedShadow": "repro.nvm.sharded",
    "copy_heap": "repro.nvm.sharded",
    "create_heap": "repro.nvm.sharded",
    "open_heap": "repro.nvm.sharded",
    "ShardManifest": "repro.nvm.layout",
    "HeapDiff": "repro.nvm.inspect",
    "HeapReport": "repro.nvm.inspect",
    "diff_paths": "repro.nvm.inspect",
    "inspect_path": "repro.nvm.inspect",
}

__all__ = [
    "WriteStats",
    "WritebackReason",
    "write_amplification",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
