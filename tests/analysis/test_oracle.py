"""Dynamic oracle and the static-vs-dynamic cross-check contract."""

import numpy as np
import pytest

import repro
from repro.analysis.oracle import (
    OracleVerdict,
    cross_check,
    dynamic_oracle,
    sample_blocks,
)
from repro.analysis.runner import builtin_cases, static_hazards
from repro.compiler.pydsl import kernel_from_function


def _clean_case():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def clean(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        ctx.st("out", idx, idx + 0.0)

    device = repro.Device()
    device.alloc("out", (32,), np.float32, persistent=True)
    return device, clean


def _dirty_case():
    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",))
    def dirty(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        v = ctx.ld("out", idx)
        ctx.st("out", idx, v + 1.0)

    device = repro.Device()
    device.alloc("out", (32,), np.float32, persistent=True)
    return device, dirty


def test_oracle_passes_idempotent_kernel():
    verdict = dynamic_oracle(_clean_case)
    assert verdict.idempotent
    assert verdict.tested_blocks == [0, 1, 2, 3]
    assert verdict.failed_blocks == []


def test_oracle_catches_accumulation():
    verdict = dynamic_oracle(_dirty_case)
    assert not verdict.idempotent
    assert verdict.failed_blocks == verdict.tested_blocks


def test_sample_blocks_is_deterministic_and_covers_endpoints():
    blocks = sample_blocks(100, limit=8)
    assert blocks[0] == 0 and blocks[-1] == 99
    assert blocks == sample_blocks(100, limit=8)
    assert sample_blocks(3, limit=8) == [0, 1, 2]


def test_cross_check_forbidden_direction_is_an_error():
    verdict = OracleVerdict("k", idempotent=False,
                            tested_blocks=[0, 1], failed_blocks=[1])
    findings = cross_check("k", [], verdict)
    assert len(findings) == 1
    assert findings[0].rule == "LP007"
    assert findings[0].severity.value == "error"


def test_cross_check_conservative_direction_is_a_note():
    verdict = OracleVerdict("k", idempotent=True, tested_blocks=[0])
    findings = cross_check("k", ["some hazard"], verdict)
    assert len(findings) == 1
    assert findings[0].rule == "LP007"
    assert findings[0].severity.value == "note"


def test_cross_check_agreement_is_silent():
    passed = OracleVerdict("k", idempotent=True, tested_blocks=[0])
    failed = OracleVerdict("k", idempotent=False,
                           tested_blocks=[0], failed_blocks=[0])
    assert cross_check("k", [], passed) == []
    assert cross_check("k", ["hazard"], failed) == []


@pytest.mark.parametrize(
    "case", builtin_cases(), ids=lambda c: c.name
)
def test_every_builtin_static_verdict_is_confirmed_by_the_oracle(case):
    """The acceptance contract: lplint is never less conservative than
    the machine on any built-in kernel."""
    _device, kernel = case.make_case()
    hazards = static_hazards(kernel)
    verdict = dynamic_oracle(case.make_case, sample=4)
    findings = cross_check(case.name, hazards, verdict)
    errors = [f for f in findings if f.severity.value == "error"]
    assert errors == [], (
        f"{case.name}: static analysis certified idempotence the "
        f"oracle disproved: {[f.message for f in errors]}"
    )
    if not hazards:
        assert verdict.idempotent
