"""Checksum-table organizations for GPU Lazy Persistency.

Use :func:`make_table` to build the table an
:class:`~repro.core.config.LPConfig` asks for.
"""

from __future__ import annotations

from repro.core.config import LPConfig, TableKind
from repro.core.tables.base import (
    EMPTY_KEY,
    TABLE_BUFFER_PREFIX,
    WORD_BYTES,
    ChecksumTable,
    TableStats,
    mix64,
    mix64_array,
    pow2_ceil,
)
from repro.core.tables.cuckoo import CuckooTable
from repro.core.tables.global_array import GlobalArrayTable
from repro.core.tables.locks import InsertionProtocol
from repro.core.tables.quadratic import QuadraticTable
from repro.errors import TableError
from repro.gpu.costs import CostModel
from repro.gpu.memory import GlobalMemory

__all__ = [
    "EMPTY_KEY",
    "TABLE_BUFFER_PREFIX",
    "ChecksumTable",
    "CuckooTable",
    "GlobalArrayTable",
    "InsertionProtocol",
    "QuadraticTable",
    "TABLE_CLASSES",
    "TableStats",
    "WORD_BYTES",
    "make_table",
    "mix64",
    "mix64_array",
    "pow2_ceil",
]

#: The table class of each kind.
TABLE_CLASSES: dict[TableKind, type[ChecksumTable]] = {
    cls.kind: cls for cls in (GlobalArrayTable, QuadraticTable, CuckooTable)
}


def make_table(
    memory: GlobalMemory,
    name: str,
    n_keys: int,
    n_lanes: int,
    config: LPConfig,
    cost_model: CostModel | None = None,
    perfect_hash: bool = False,
) -> ChecksumTable:
    """Instantiate the checksum table selected by ``config.table``.

    ``perfect_hash`` enables the Section IV-D-2 collision-free ablation
    on the hash-table kinds (it is meaningless for the global array,
    which is already collision-free).
    """
    cls = TABLE_CLASSES.get(config.table)
    if cls is None:
        raise TableError(f"unknown table kind: {config.table}")
    if cls is not GlobalArrayTable:
        return cls(memory, name, n_keys, n_lanes, config, cost_model,
                   perfect_hash=perfect_hash)
    if perfect_hash:
        raise TableError(
            "perfect_hash is a hash-table ablation; the global array "
            "is already collision-free"
        )
    return cls(memory, name, n_keys, n_lanes, config, cost_model)
