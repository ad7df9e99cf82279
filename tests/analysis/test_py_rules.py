"""Python-DSL (object-mode) lint rules: LP001-LP006."""

import ast

import numpy as np
import pytest

import repro
from repro.analysis.astinfo import analyze_kernel_callable
from repro.analysis.py_rules import lint_kernel_object, lint_python_text
from repro.compiler.pydsl import kernel_from_function, lazy_persistent
from repro.core.config import ChecksumKind, LPConfig
from repro.core.runtime import LazyPersistentKernel
from repro.core.tables import make_table
from repro.gpu.kernel import Kernel, LaunchConfig


def rules_of(findings):
    return {f.rule for f in findings if not f.suppressed}


def make_device(*buffers, n=32):
    device = repro.Device()
    for name, persistent in buffers:
        device.alloc(name, (n,), np.float32, persistent=persistent)
    return device


# ---------------------------------------------------------------------------
# LP001 — uncovered persistent stores
# ---------------------------------------------------------------------------

def test_lp001_store_to_unprotected_persistent_buffer():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def leaky(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0)
        ctx.st("extra", idx, 2.0)   # persistent but not protected

    device = make_device(("out", True), ("extra", True))
    findings = lint_kernel_object(leaky, device=device)
    assert rules_of(findings) == {"LP001"}
    (f,) = findings
    assert f.severity.value == "error"
    assert "'extra'" in f.message


def test_lp001_scratch_buffers_are_exempt():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def scratchy(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0)
        ctx.st("tmp", idx, 2.0)     # scratch: no coverage required

    device = make_device(("out", True), ("tmp", False))
    assert lint_kernel_object(scratchy, device=device) == []


def test_lp001_without_device_downgrades_to_warning():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def maybe_leaky(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0)
        ctx.st("extra", idx, 2.0)

    findings = lint_kernel_object(maybe_leaky)
    assert rules_of(findings) == {"LP001"}
    assert findings[0].severity.value == "warning"


def test_lp001_resolves_buffer_names_through_closures():
    target = "closed_over"

    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def via_closure(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0)
        ctx.st(target, idx, 2.0)

    device = make_device(("out", True), ("closed_over", True))
    findings = lint_kernel_object(via_closure, device=device)
    assert rules_of(findings) == {"LP001"}
    assert "'closed_over'" in findings[0].message


def test_lp001_flags_a_workload_output_left_out_of_protected():
    """MRI-Q with its ``qi`` output dropped from ``protected=``: recovery
    would never notice a crash that lost it, and the crash checker only
    compares declared buffers, so the lint error is what catches it."""
    device = repro.Device(cache_capacity_lines=4)
    kernel = repro.workloads.MRIQWorkload(scale="tiny").setup(device)
    kernel.protected_buffers = ("mriq_qr",)
    lp_kernel = repro.LPRuntime(device).instrument(kernel)
    findings = lint_kernel_object(lp_kernel, device=device)
    assert rules_of(findings) == {"LP001"}
    (f,) = findings
    assert f.severity.value == "error"
    assert "'mriq_qi'" in f.message


# ---------------------------------------------------------------------------
# LP002 — non-idempotent region behind default re-execution recovery
# ---------------------------------------------------------------------------

def _accumulator(**kwargs):
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",),
                          **kwargs)
    def accumulate(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        v = ctx.ld("out", idx)
        ctx.st("out", idx, v + 1.0)

    return accumulate


def test_lp002_read_write_overlap_with_default_recovery():
    findings = lint_kernel_object(_accumulator())
    assert "LP002" in rules_of(findings)
    assert "'out'" in next(
        f.message for f in findings if f.rule == "LP002"
    )


def test_lp002_silenced_by_idempotent_false():
    # Declaring non-idempotence makes default recovery raise instead of
    # silently re-executing, so the hazard is acknowledged.
    assert "LP002" not in rules_of(lint_kernel_object(
        _accumulator(idempotent=False)
    ))


def test_lp002_silenced_by_custom_recovery():
    kernel = _accumulator()
    kernel._recover_fn = lambda ctx: None
    assert "LP002" not in rules_of(lint_kernel_object(kernel))


def test_lp002_atomic_add_accumulates():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def atomic_acc(ctx):
        ctx.atomic_add("out", ctx.block_ids[:, None], 1.0)

    findings = lint_kernel_object(atomic_acc)
    assert "LP002" in rules_of(findings)
    assert "atomic read-modify-write" in next(
        f.message for f in findings if f.rule == "LP002"
    )


# ---------------------------------------------------------------------------
# LP003 — cross-block write race on a protected buffer
# ---------------------------------------------------------------------------

def test_lp003_block_independent_index_races():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def racy(ctx):
        ctx.st("out", ctx.tid[None], 1.0)   # every block writes slots 0..7

    findings = lint_kernel_object(racy)
    assert rules_of(findings) == {"LP003"}


def test_lp003_block_derived_index_is_clean():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def disjoint(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0)

    assert lint_kernel_object(disjoint) == []


def test_lp003_taint_propagates_through_locals():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def derived(ctx):
        base = ctx.block_ids[:, None] * ctx.n_threads
        off = base + 1
        ctx.st("out", off + ctx.tid, 1.0)

    assert lint_kernel_object(derived) == []


def test_lp003_single_block_grids_cannot_race():
    @kernel_from_function(grid=(1, 1), block=(8, 1), protected=("out",))
    def solo(ctx):
        ctx.st("out", ctx.tid[None], 1.0)

    assert lint_kernel_object(solo) == []


# ---------------------------------------------------------------------------
# LP004/LP006 — LazyPersistentKernel configuration rules
# ---------------------------------------------------------------------------

def _lp_case(n=32):
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def clean(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1.0)

    device = make_device(("out", True), n=n)
    return device, clean


def test_lp004_correctly_sized_table_is_clean():
    device, kernel = _lp_case()
    assert lint_kernel_object(lazy_persistent(device, kernel),
                              device=device) == []


def test_lp004_undersized_table_is_an_error():
    device, kernel = _lp_case()
    config = LPConfig.naive_quadratic()
    table = make_table(device.memory, "tiny-table", 2, config.n_lanes,
                       config)
    findings = lint_kernel_object(
        LazyPersistentKernel(kernel, config, table), device=device
    )
    assert rules_of(findings) == {"LP004"}
    assert findings[0].severity.value == "error"


def test_lp006_raw_float_parity_is_an_error():
    device, kernel = _lp_case()
    config = LPConfig(
        checksums=(ChecksumKind.MODULAR, ChecksumKind.PARITY),
        ordered_int_parity=False,
    )
    table = make_table(device.memory, "float-parity", 4, config.n_lanes,
                       config)
    findings = lint_kernel_object(
        LazyPersistentKernel(kernel, config, table), device=device
    )
    assert rules_of(findings) == {"LP006"}
    assert "'out'" in findings[0].message


def test_lp006_integer_buffers_are_exempt():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def int_kernel(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, 1)

    device = repro.Device()
    device.alloc("out", (32,), np.int64, persistent=True)
    config = LPConfig(
        checksums=(ChecksumKind.MODULAR, ChecksumKind.PARITY),
        ordered_int_parity=False,
    )
    table = make_table(device.memory, "int-parity", 4, config.n_lanes,
                       config)
    assert lint_kernel_object(
        LazyPersistentKernel(int_kernel, config, table), device=device
    ) == []


# ---------------------------------------------------------------------------
# Suppressions and helper-method inlining
# ---------------------------------------------------------------------------

class _Suppressed(Kernel):
    name = "suppressed"
    protected_buffers = ("out",)
    idempotent = True
    lint_suppressions = {
        "LP002": "re-stores identical words",
        "LP009": "re-stores identical words",
    }

    def launch_config(self):
        return LaunchConfig.linear(4, 8)

    def run_block_batch(self, ctx) -> None:
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        v = ctx.ld("out", idx)
        ctx.st("out", idx, v)


def test_documented_suppression_reports_but_does_not_gate():
    findings = lint_kernel_object(_Suppressed())
    assert findings, "the finding must still be reported"
    assert all(f.suppressed for f in findings)
    assert findings[0].suppress_reason == "re-stores identical words"
    assert rules_of(findings) == set()


class _Helper(Kernel):
    name = "helper-inline"
    protected_buffers = ("out",)
    idempotent = True

    def launch_config(self):
        return LaunchConfig.linear(4, 8)

    def _bump(self, ctx, idx):
        v = ctx.ld("out", idx)
        ctx.st("out", idx, v + 1.0)

    def run_block_batch(self, ctx) -> None:
        self._bump(ctx, ctx.block_ids[:, None] * ctx.n_threads + ctx.tid)


def test_helper_methods_are_inlined():
    assert "LP002" in rules_of(lint_kernel_object(_Helper()))


class _Claims(Kernel):
    name = "claims"

    def launch_config(self):
        return LaunchConfig.linear(1, 4)

    def run_block_batch(self, bctx):
        slot = bctx.atomic_cas_claim("keys", bctx.tid[None, :, None], 0)
        bctx.st_record(("keys", "vals"), slot, (bctx.tid, 1.0))


def test_record_store_and_slot_claim_are_seen():
    """One store per buffer of a record, and a claim is an atomic CAS."""
    effects = analyze_kernel_callable(_Claims.run_block_batch, _Claims())
    assert [(s.buffer, s.atomic) for s in effects.stores] == [
        ("keys", "cas"), ("keys", None), ("vals", None)]
    assert [ast.unparse(s.value) for s in effects.stores[1:]] == [
        "bctx.tid", "1.0"]


def test_megakv_kernels_only_carry_documented_suppressions():
    from repro.megakv import MegaKVStore
    from repro.megakv.kernels import KVDeleteKernel, KVInsertKernel
    from repro.workloads.generators import key_value_records

    device = repro.Device()
    store = MegaKVStore(device, capacity=256)
    keys, vals = key_value_records(np.random.default_rng(0), 64)
    for kernel in (
        KVInsertKernel(store, keys, vals, threads_per_block=16),
        KVDeleteKernel(store, keys, threads_per_block=16),
    ):
        findings = lint_kernel_object(kernel, device=device)
        assert findings, "conservative LP002 findings are expected"
        assert rules_of(findings) == set()
        assert all(f.rule == "LP002" and f.suppress_reason
                   for f in findings)


# ---------------------------------------------------------------------------
# File mode
# ---------------------------------------------------------------------------

FILE_MODE_SOURCE = '''
class Accumulating(Kernel):
    idempotent = True

    def run_block_batch(self, ctx):
        v = ctx.ld("out", ctx.tid[None])
        ctx.st("out", ctx.tid[None], v + 1.0)


class ClaimsSlots(Kernel):
    def run_block_batch(self, ctx):
        ctx.atomic_cas("slots", 0, 0, 1)


class WithCustomRecovery(Kernel):
    def run_block_batch(self, ctx):
        v = ctx.ld("out", ctx.tid[None])
        ctx.st("out", ctx.tid[None], v + 1.0)

    def recover_block_batch(self, ctx):
        pass
'''


def test_file_mode_flags_literal_declarations_only():
    findings = lint_python_text(FILE_MODE_SOURCE, path="kern.py")
    by_kernel = {}
    for f in findings:
        by_kernel.setdefault(f.kernel, set()).add(f.rule)
    assert by_kernel == {
        "Accumulating": {"LP002"},
        # The conservative atomic-under-default-recovery hazard.
        "ClaimsSlots": {"LP002"},
    }
    assert all(f.file == "kern.py" for f in findings)


def test_file_mode_tolerates_syntax_errors():
    findings = lint_python_text("def broken(:", path="oops.py")
    assert len(findings) == 1
    assert findings[0].severity.value == "note"
