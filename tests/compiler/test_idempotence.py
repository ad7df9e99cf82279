"""Tests for the idempotence analysis (Section IV-A)."""

import pytest

import repro
from repro.analysis.oracle import dynamic_oracle
from repro.compiler.idempotence import analyze_kernel_source
from repro.compiler.parser import parse_program
from repro.workloads import WORKLOADS, make_workload


def kernel_of(source: str):
    return parse_program(source).kernels[0]


MATMUL = """
__global__ void mm(float *C, float *A, float *B, int n) {
    int i = blockIdx.x;
    float sum = A[i] * B[i];
    C[i] = sum;
}
"""


def test_paper_matmul_is_idempotent():
    report = analyze_kernel_source(kernel_of(MATMUL))
    assert report.idempotent
    assert report.written_arrays == {"C"}
    assert report.read_arrays == {"A", "B"}


def test_read_modify_write_is_flagged():
    src = """
__global__ void accum(float *C) {
    int i = blockIdx.x;
    C[i] = C[i] + 1.0f;
}
"""
    report = analyze_kernel_source(kernel_of(src))
    assert not report.idempotent
    assert any("read and written" in h for h in report.hazards)


def test_compound_assignment_is_flagged():
    src = """
__global__ void accum(float *C, float *A) {
    int i = blockIdx.x;
    C[i] += A[i];
}
"""
    report = analyze_kernel_source(kernel_of(src))
    assert not report.idempotent
    assert any("compound update" in h for h in report.hazards)


def test_atomic_is_flagged():
    src = """
__global__ void histo(int *bins, int *data) {
    atomicAdd(&bins[data[blockIdx.x]], 1);
}
"""
    report = analyze_kernel_source(kernel_of(src))
    assert not report.idempotent
    assert any("atomic" in h for h in report.hazards)


def test_disjoint_in_out_arrays_pass():
    src = """
__global__ void scale(float *out, float *in) {
    int i = blockIdx.x;
    out[i] = in[i] * 2.0f;
    out[i] = out[i];
}
"""
    # The second statement reads 'out' -> conservative flag.
    report = analyze_kernel_source(kernel_of(src))
    assert not report.idempotent


def test_equality_comparison_is_not_a_write():
    src = """
__global__ void cmp(float *out, float *in) {
    int i = blockIdx.x;
    if (in[i] == 0.0f) {
        out[i] = 1.0f;
    }
}
"""
    report = analyze_kernel_source(kernel_of(src))
    assert report.idempotent
    assert report.written_arrays == {"out"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_all_workload_kernels_are_dynamically_idempotent(name):
    """Every paper benchmark's kernel really is re-execution safe —
    the property the default recovery path relies on."""
    def make_case():
        device = repro.Device()
        return device, make_workload(name, scale="tiny").setup(device)

    _, kernel = make_case()
    n_blocks = kernel.launch_config().n_blocks
    sample = list(range(0, n_blocks, max(1, n_blocks // 4)))
    verdict = dynamic_oracle(make_case, blocks=sample)
    assert verdict.idempotent, verdict.failed_blocks


def test_dynamic_check_catches_accumulation():
    import numpy as np

    from repro.compiler.pydsl import kernel_from_function

    @kernel_from_function(grid=(2, 1), block=(32, 1), protected=("acc",))
    def accumulate(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("acc", idx, ctx.ld("acc", idx) + 1.0)

    def make_case():
        device = repro.Device()
        device.alloc("acc", (64,), np.float32)
        return device, accumulate

    verdict = dynamic_oracle(make_case)
    assert not verdict.idempotent
    assert verdict.failed_blocks == [0, 1]
