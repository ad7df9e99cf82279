"""The dynamic oracle: simulator ground truth for static verdicts.

The analyzer's contract is that it can never be *less* conservative
than the machine: whenever static analysis certifies a property, the
simulator must agree. :func:`dynamic_oracle` is the package's one
dynamic idempotence verdict: it re-executes each tested block on a
fresh device and compares the protected buffers, for any kernel — a
workload's, a DSL function's, or one like MegaKV's whose buffers are
bound to a device at construction time. Static verdicts come from
:mod:`repro.analysis.py_rules` and
:func:`repro.compiler.idempotence.analyze_kernel_source`;
:func:`cross_check` turns any static-vs-dynamic disagreement into a
finding:

* static *idempotent* + dynamic *fails* → **LP007 error** — the
  forbidden direction: the analyzer promised a recovery soundness the
  machine disproves.
* static *hazard* + dynamic *passes* → **note** — the allowed
  direction: static conservatism on a dynamically idempotent kernel
  (e.g. MegaKV's insert, whose re-execution stores identical words).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.findings import Finding, Severity

#: Default number of blocks sampled per kernel when the grid is large.
DEFAULT_SAMPLE = 8


@dataclass
class OracleVerdict:
    """The simulator's idempotence verdict for one kernel."""

    kernel_name: str
    idempotent: bool
    tested_blocks: list[int] = field(default_factory=list)
    failed_blocks: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel_name,
            "idempotent": self.idempotent,
            "tested_blocks": list(self.tested_blocks),
            "failed_blocks": list(self.failed_blocks),
        }


def sample_blocks(n_blocks: int, limit: int = DEFAULT_SAMPLE) -> list[int]:
    """Deterministic, endpoint-including sample of block ids."""
    if n_blocks <= limit:
        return list(range(n_blocks))
    step = max(1, n_blocks // limit)
    blocks = list(range(0, n_blocks, step))
    if (n_blocks - 1) not in blocks:
        blocks.append(n_blocks - 1)
    return blocks


def dynamic_oracle(
    make_case: Callable[[], tuple],
    blocks: list[int] | None = None,
    sample: int = DEFAULT_SAMPLE,
) -> OracleVerdict:
    """Run each tested block twice on a fresh case; outputs must not move.

    ``make_case`` returns a fresh ``(device, kernel)`` pair per tested
    block — fresh, because a non-idempotent kernel contaminates its
    buffers, and because kernels like MegaKV's bind buffer objects to
    one device at construction. A block fails when its second
    execution changes any protected buffer bit.
    """
    device, kernel = make_case()
    n_blocks = kernel.launch_config().n_blocks
    test_blocks = blocks if blocks is not None else sample_blocks(n_blocks, sample)
    name = kernel.name
    failed: list[int] = []
    first = True
    for block in test_blocks:
        if not first:
            device, kernel = make_case()
        first = False
        device.launch(kernel, block_ids=[block])
        snapshot = {
            buf: device.memory[buf].array.copy()
            for buf in kernel.protected_buffers
        }
        device.launch(kernel, block_ids=[block])
        for buf, before in snapshot.items():
            if not np.array_equal(device.memory[buf].array, before):
                failed.append(block)
                break
    return OracleVerdict(
        kernel_name=name,
        idempotent=not failed,
        tested_blocks=list(test_blocks),
        failed_blocks=failed,
    )


def cross_check(
    kernel_name: str,
    static_hazards: list[str],
    verdict: OracleVerdict,
) -> list[Finding]:
    """Findings for any static-vs-dynamic disagreement.

    ``static_hazards`` empty means the static analysis certified
    idempotence. The forbidden direction (certified but dynamically
    non-idempotent) is an LP007 error; the conservative direction is
    reported as a note so suppression decisions stay auditable.
    """
    statically_idempotent = not static_hazards
    if statically_idempotent and not verdict.idempotent:
        return [Finding(
            rule="LP007",
            severity=Severity.ERROR,
            message=(
                f"static analysis certified '{kernel_name}' idempotent "
                f"but re-executing block(s) {verdict.failed_blocks} "
                "changed protected buffers — the analyzer was less "
                "conservative than the machine"
            ),
            kernel=kernel_name,
            fix_hint=(
                "treat this as an lplint bug: tighten the static "
                "analysis until the oracle agrees"
            ),
        )]
    if not statically_idempotent and verdict.idempotent:
        return [Finding(
            rule="LP007",
            severity=Severity.NOTE,
            message=(
                f"static analysis flagged '{kernel_name}' "
                f"({static_hazards[0]}) but the dynamic oracle found "
                f"block(s) {verdict.tested_blocks} idempotent — "
                "conservative direction, safe to suppress with a "
                "documented reason"
            ),
            kernel=kernel_name,
        )]
    return []
