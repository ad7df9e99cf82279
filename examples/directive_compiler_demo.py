#!/usr/bin/env python3
"""The two-directive programming model (Section VI), both ways.

Part 1 — source-to-source: feed the paper's Listings 5-6 (a CUDA matrix
multiply annotated with ``#pragma nvm lpcuda_init`` and
``lpcuda_checksum``) through the directive compiler and print the
generated host code, instrumented kernel, and the check-and-recovery
kernel of Listing 7.

Part 2 — executable: the same two-step programming model on the
simulator via the Python DSL, including a crash and recovery.

Run:  python examples/directive_compiler_demo.py
"""

import numpy as np

import repro
from repro.compiler import compile_program
from repro.compiler.pydsl import kernel_from_function, lazy_persistent
from repro.core.recovery import RecoveryManager

PAPER_LISTING = """\
#pragma nvm lpcuda_init(checksumMM, grid.x*grid.y, 1)
MatrixMulCUDA<<<grid, threads, 0, stream>>>(d_C, d_A, d_B, dimsA.x, dimsB.x);

__global__ void MatrixMulCUDA(float *C, float *A, float *B, int wA, int wB) {
    int bx = blockIdx.x;
    int by = blockIdx.y;
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    float Csub = 0;
    int c = wB * BLOCK_SIZE * by + BLOCK_SIZE * bx;
#pragma nvm lpcuda_checksum("+^", checksumMM, blockIdx.x, blockIdx.y)
    C[c + wB * ty + tx] = Csub;
}
"""


def source_to_source() -> None:
    print("=" * 70)
    print("PART 1: the paper's Listings 5-6 through the directive compiler")
    print("=" * 70)
    out = compile_program(PAPER_LISTING)
    print("\n--- generated host code (lpcuda_init lowered) ---")
    print(out.host_code.splitlines()[0])
    print("\n--- instrumented kernel (Listing 2's shape, generated) ---")
    print(out.kernel_code)
    print("\n--- check-and-recovery kernel (Listing 7, generated) ---")
    print(out.recovery_code)


def executable_dsl() -> None:
    print()
    print("=" * 70)
    print("PART 2: the same model, executable on the simulator")
    print("=" * 70)

    # The lpcuda_checksum analogue: declare which buffer the region's
    # persistent stores land in.
    @kernel_from_function(grid=(8, 1), block=(32, 1), protected=("y",))
    def saxpy(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        a = np.float32(2.0)
        ctx.st("y", idx, a * ctx.ld("x", idx) + ctx.ld("y0", idx),
               slots=ctx.tid)
        ctx.flops(2)

    device = repro.Device(cache_capacity_lines=8)
    n = 256
    x = np.arange(n, dtype=np.float32)
    y0 = np.ones(n, dtype=np.float32)
    device.alloc("x", (n,), np.float32, init=x)
    device.alloc("y0", (n,), np.float32, init=y0)
    device.alloc("y", (n,), np.float32)

    # The lpcuda_init analogue: one call sizes and attaches the table.
    lp_kernel = lazy_persistent(device, saxpy)
    device.launch(lp_kernel,
                  crash_plan=repro.CrashPlan(after_blocks=4, seed=5))
    print(f"\ncrashed mid-saxpy; "
          f"{np.count_nonzero(device.memory['y'].array == 0)} elements "
          "stale")
    RecoveryManager(device, lp_kernel).recover()
    assert np.allclose(device.memory["y"].array, 2.0 * x + y0)
    print("recovered: y == 2x + y0 everywhere.")


def main() -> None:
    source_to_source()
    executable_dsl()


if __name__ == "__main__":
    main()
