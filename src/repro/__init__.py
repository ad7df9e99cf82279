"""``repro`` — Scalable and Fast Lazy Persistency on GPUs (IISWC 2020).

A from-scratch reproduction of the paper's system: GPU Lazy Persistency
(LP) on a simulated SIMT device whose global memory sits in an NVM
persistence domain with lazy (eviction-driven) write-back.

Quick tour
----------

>>> import repro
>>> device = repro.Device()
>>> work = repro.workloads.TMMWorkload(scale="tiny")
>>> kernel = work.setup(device)
>>> lp = repro.LPRuntime(device, repro.LPConfig.paper_best())
>>> lp_kernel = lp.instrument(kernel)
>>> result = device.launch(lp_kernel)
>>> work.verify(device)                       # outputs are correct

Public surface
--------------

* :class:`Device` / :class:`GPUSpec` / :class:`NVMSpec` — the simulated
  NVM-backed GPU.
* :class:`LPConfig` and its enums — the design space of Section IV.
* :class:`LPRuntime` / :class:`LazyPersistentKernel` — kernel
  instrumentation (checksums, reduction, checksum table).
* :class:`RecoveryManager` — post-crash validation + eager recovery.
* :class:`CrashPlan` / :class:`FaultInjector` — failure models.
* :class:`MappedShadow` / :class:`ShardedShadow` / :mod:`repro.harness`
  — the durable mmap-backed NVM heap, its sharded multi-heap scale-out
  (``--shards N``), and the out-of-process crash-kill harness
  (``python -m repro crash-test``).
* :mod:`repro.workloads` — the paper's nine benchmarks.
* :mod:`repro.compiler` — the ``#pragma nvm`` directive compiler.
* :mod:`repro.bench` — the experiment harness for every table/figure.
* :mod:`repro.obs` — the flight recorder: tracing, metrics, and
  recovery forensics (see ``docs/observability.md``).
"""

from repro.core.checksum import (
    ChecksumSet,
    float_bits,
    float_to_ordered_int,
)
from repro.core.config import (
    AtomicMode,
    ChecksumKind,
    LockMode,
    LPConfig,
    ReductionMode,
    TableKind,
)
from repro.core.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    optimal_checkpoint_interval,
)
from repro.core.fusion import FusedKernel, fuse_blocks
from repro.core.recovery import RecoveryManager, RecoveryReport, ValidationReport
from repro.core.runtime import LazyPersistentKernel, LPRuntime
from repro.ep import EagerPersistentKernel, EPRecoveryManager, EPRuntime
from repro.core.tables import make_table
from repro.errors import ReproError
from repro.gpu.device import Device, LaunchResult
from repro.gpu.engine import LaunchEngine, make_engine
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
from repro.gpu.spec import GPUSpec, NVMSpec
from repro.nvm.crash import CrashPlan, FaultInjector
from repro.nvm.mapped import MappedShadow
from repro.nvm.sharded import ShardedShadow

from repro import obs  # noqa: E402  (re-export subpackage)
from repro import workloads  # noqa: E402  (re-export subpackage)

__version__ = "1.0.0"

__all__ = [
    "AtomicMode",
    "CheckpointManager",
    "CheckpointPolicy",
    "ChecksumKind",
    "ChecksumSet",
    "CrashPlan",
    "Device",
    "EPRecoveryManager",
    "EPRuntime",
    "EagerPersistentKernel",
    "ExecMode",
    "FaultInjector",
    "FusedKernel",
    "GPUSpec",
    "Kernel",
    "LaunchConfig",
    "LaunchEngine",
    "LaunchResult",
    "LazyPersistentKernel",
    "LockMode",
    "LPConfig",
    "LPRuntime",
    "MappedShadow",
    "NVMSpec",
    "RecoveryManager",
    "RecoveryReport",
    "ReductionMode",
    "ReproError",
    "ShardedShadow",
    "TableKind",
    "ValidationReport",
    "__version__",
    "float_bits",
    "float_to_ordered_int",
    "fuse_blocks",
    "make_engine",
    "make_table",
    "obs",
    "optimal_checkpoint_interval",
    "workloads",
]
