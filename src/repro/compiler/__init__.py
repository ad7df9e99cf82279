"""Directive-based programming support (Section VI).

Two entry points:

* :func:`compile_program` — the source-to-source path: parse ``#pragma
  nvm`` directives out of CUDA-like text and emit instrumented host
  code, instrumented kernels, and check-and-recovery kernels.
* :mod:`repro.compiler.pydsl` — the executable path: the same
  two-directive programming model for kernels running on the simulator.
"""

from repro.compiler.idempotence import (
    IdempotenceReport,
    analyze_kernel_source,
)
from repro.compiler.model import (
    CHECKSUM_TYPE_TOKENS,
    ChecksumDirective,
    CompiledProgram,
    InitDirective,
    KernelSource,
    ProgramSource,
    StoreTarget,
)
from repro.compiler.parser import parse_pragma, parse_program, split_args
from repro.compiler.pydsl import (
    FunctionKernel,
    kernel_from_function,
    lazy_persistent,
)
from repro.compiler.recovery_gen import (
    generate_recovery_function,
    generate_recovery_kernel,
    recovery_kernel_name,
)
from repro.compiler.slicing import parse_store_target, slice_for_index
from repro.compiler.transform import (
    compile_program,
    emit_host_code,
    emit_instrumented_kernel,
)

__all__ = [
    "CHECKSUM_TYPE_TOKENS",
    "IdempotenceReport",
    "analyze_kernel_source",
    "ChecksumDirective",
    "CompiledProgram",
    "FunctionKernel",
    "InitDirective",
    "KernelSource",
    "ProgramSource",
    "StoreTarget",
    "compile_program",
    "emit_host_code",
    "emit_instrumented_kernel",
    "generate_recovery_function",
    "generate_recovery_kernel",
    "kernel_from_function",
    "lazy_persistent",
    "parse_pragma",
    "parse_program",
    "parse_store_target",
    "recovery_kernel_name",
    "slice_for_index",
    "split_args",
]
