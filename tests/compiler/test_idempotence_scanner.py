"""Statement-scanner idempotence analysis: pinned verdicts.

Three statement shapes a single-regex heuristic (the analyzer this
scanner replaced) misclassified — it certified each idempotent — plus
the simple shapes it got right. These tests pin the scanner's verdicts
on all of them so it never regresses to the regex's blind spots.
"""

import pytest

from repro.compiler.idempotence import (
    analyze_kernel_source,
    scan_statement,
)
from repro.compiler.parser import parse_program


def kernel_of(source: str):
    return parse_program(source).kernels[0]


MULTIDIM = """
__global__ void md(float *a, int n) {
    int i = blockIdx.x;
    int j = threadIdx.x;
    a[i][j] = a[i][j] + 1.0f;
}
"""

NESTED_SUBSCRIPT = """
__global__ void ns(int *y, int *idx, int n) {
    int i = blockIdx.x;
    y[idx[i]] += 1;
}
"""

PAREN_ATOMIC = """
__global__ void pa(int *bins, int n) {
    int i = blockIdx.x;
    atomicAdd(&(bins[i]), 1);
}
"""

SPACED_CAS = """
__global__ void sc(unsigned long long *tab, int n) {
    int h = blockIdx.x;
    atomicCAS( & tab [h], 0ULL, 1ULL);
}
"""


def test_multidim_write_blind_spot():
    # `a[i][j] = ...` never matches a single-bracket write regex, so
    # the regex analyzer wrongly certified the kernel idempotent.
    report = analyze_kernel_source(kernel_of(MULTIDIM))
    assert not report.idempotent
    assert "a" in report.written_arrays
    assert any("'a'" in h for h in report.hazards)


def test_nested_subscript_blind_spot():
    # The inner `idx[i]` bracket stops a lazy `[^\]]*` match, so the
    # regex analyzer lost the compound `+=` write to y.
    report = analyze_kernel_source(kernel_of(NESTED_SUBSCRIPT))
    assert not report.idempotent
    assert "y" in report.written_arrays
    assert "idx" in report.read_arrays
    assert any("+=" in h for h in report.hazards)


def test_parenthesized_atomic_blind_spot():
    # `&(bins...)` defeats an `&?\s*ident` capture: the regex analyzer
    # named no written array at all.
    report = analyze_kernel_source(kernel_of(PAREN_ATOMIC))
    assert not report.idempotent
    assert "bins" in report.written_arrays


def test_spaced_cas_operand():
    report = analyze_kernel_source(kernel_of(SPACED_CAS))
    assert not report.idempotent
    assert "tab" in report.written_arrays


def test_scanner_verdicts_on_simple_statements():
    # The shapes the regex analyzer also handled: pinned verdicts.
    for src, idempotent, written, hazards in (
        ("__global__ void k(float *C, float *A, int n) {\n"
         "    C[blockIdx.x] = A[blockIdx.x];\n}", True, {"C"}, []),
        ("__global__ void k(float *C, int n) {\n"
         "    C[blockIdx.x] += 1.0f;\n}", False, {"C"},
         ["compound update 'C[...] +=' accumulates on re-execution"]),
        ("__global__ void k(int *h, int n) {\n"
         "    atomicAdd(&h[blockIdx.x], 1);\n}", False, {"h"},
         ["atomic read-modify-write on 'h' accumulates on re-execution",
          "array 'h' is both read and written; re-execution would "
          "consume its own output"]),
    ):
        report = analyze_kernel_source(kernel_of(src))
        assert report.idempotent == idempotent
        assert report.written_arrays == written
        assert report.hazards == hazards


@pytest.mark.parametrize("stmt,writes,reads,atomics", [
    ("a[i][j] = b[k];", [("a", "=")], ["b"], []),
    ("y[idx[i]] += 1;", [("y", "+=")], ["idx"], []),
    ("x[i] <<= 2;", [("x", "<<=")], [], []),
    ("if (a[i] == b[j]) c[i] = 0;", [("c", "=")], ["a", "b"], []),
    ("atomicCAS(&(tab[h]), old, nw);", [], ["tab"],
     [("atomicCAS", "tab")]),
    ('printf("a[0] = %d", a[0]);', [], ["a"], []),
    ("out[i] = in[i]; // out[j] += 1;", [("out", "=")], ["in"], []),
])
def test_scan_statement_classification(stmt, writes, reads, atomics):
    eff = scan_statement(stmt)
    assert eff.writes == writes
    assert eff.reads == reads
    assert eff.atomics == atomics
