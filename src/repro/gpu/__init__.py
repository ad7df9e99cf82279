"""Simulated SIMT GPU substrate: memory, cache, warps, kernels, device.

Block execution is pluggable: :mod:`repro.gpu.engine` provides the one
launch engine behind the ``serial`` and ``batched`` names (vectorize
or not), both bit-identical in results.
"""

from repro.gpu.engine import LaunchEngine, LaunchPlan, make_engine

__all__ = [
    "LaunchEngine",
    "LaunchPlan",
    "make_engine",
]
