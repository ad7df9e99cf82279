"""Tier-2 gate: the static/dynamic verdict table must not drift.

``oracle_verdicts.json`` pins, for every builtin kernel plus two
synthetic known-dirty kernels, (a) whether lplint's static analysis
certifies idempotence and (b) whether the dynamic re-execution oracle
agrees. Any drift — a workload turning non-idempotent, the analyzer
losing a hazard, the oracle going blind — fails this gate.

Regenerate after an intentional change with:

    PYTHONPATH=src python benchmarks/test_oracle_verdicts.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

VERDICTS_PATH = Path(__file__).parent / "oracle_verdicts.json"


def _synthetic_accumulate():
    import repro
    from repro.compiler.pydsl import kernel_from_function

    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",),
                          name="synthetic-accumulate")
    def accumulate(ctx):
        idx = ctx.block_ids[:, None] * ctx.n_threads + ctx.tid
        v = ctx.ld("out", idx)
        ctx.st("out", idx, v + 1.0)

    device = repro.Device()
    device.alloc("out", (32,), np.float32, persistent=True)
    return device, accumulate


def _synthetic_atomic():
    import repro
    from repro.compiler.pydsl import kernel_from_function

    @kernel_from_function(grid=(4, 1), block=(8, 1), protected=("out",),
                          name="synthetic-atomic")
    def atomic(ctx):
        ctx.atomic_add("out", ctx.block_ids[:, None], 1.0)

    device = repro.Device()
    device.alloc("out", (32,), np.float32, persistent=True)
    return device, atomic


def all_cases():
    """Builtin cases plus the synthetic known-dirty controls."""
    from repro.analysis.runner import BuiltinCase, builtin_cases

    return builtin_cases() + [
        BuiltinCase("synthetic-accumulate", _synthetic_accumulate),
        BuiltinCase("synthetic-atomic", _synthetic_atomic),
    ]


def compute_verdicts() -> dict:
    from repro.analysis.oracle import dynamic_oracle
    from repro.analysis.runner import static_hazards

    table = {}
    for case in all_cases():
        _device, kernel = case.make_case()
        hazards = static_hazards(kernel)
        verdict = dynamic_oracle(case.make_case, sample=4)
        table[case.name] = {
            "static_idempotent": not hazards,
            "dynamic_idempotent": verdict.idempotent,
        }
    return table


@pytest.mark.tier2
def test_verdict_table_matches_committed_fixture():
    expected = json.loads(VERDICTS_PATH.read_text())["cases"]
    actual = compute_verdicts()
    assert actual == expected


@pytest.mark.tier2
def test_committed_table_never_trusts_static_over_dynamic():
    # The analyzer's invariant, pinned on the fixture itself: wherever
    # the static analysis certifies idempotence, the oracle agreed.
    cases = json.loads(VERDICTS_PATH.read_text())["cases"]
    for name, verdict in cases.items():
        if verdict["static_idempotent"]:
            assert verdict["dynamic_idempotent"], name
    # And the dirty controls prove the oracle can actually fail.
    assert not cases["synthetic-accumulate"]["dynamic_idempotent"]
    assert not cases["synthetic-atomic"]["dynamic_idempotent"]


if __name__ == "__main__":
    VERDICTS_PATH.write_text(
        json.dumps({"cases": compute_verdicts()}, indent=2) + "\n"
    )
    print(f"wrote {VERDICTS_PATH}")
