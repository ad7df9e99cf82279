"""Hash-table inserts run on a block's immediate row.

A checksum table's insert issues its loads, stores and one-element
atomics on the inserting block's immediate
:class:`~repro.gpu.batch.BatchBlockContext`. A scalar
:class:`~repro.gpu.kernel.BlockContext` still offers every primitive the
walks call, and forwards each to its own row, so an insert through
either leaves the same device behind, charge for charge.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import obs
from repro.core import runtime
from repro.core import tables as tables_pkg
from repro.core.config import AtomicMode, LockMode, LPConfig
from repro.core.tables import CuckooTable, QuadraticTable
from repro.errors import LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import BlockContext, Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory

N_KEYS = 24
LAUNCH = LaunchConfig.linear(N_KEYS, 32)


def lanes_of(key):
    return np.array([key * 3 + 1, key * 7 + 2], dtype=np.uint64)


def build_table(kind, atomics, locks):
    base = (LPConfig.naive_quadratic() if kind == "quadratic"
            else LPConfig.naive_cuckoo())
    config = base.with_(atomics=atomics, locks=locks)
    # A small cache makes the walk's stores evict, so write-back order
    # and statistics are part of what is compared.
    mem = GlobalMemory(cache_capacity_lines=4)
    if kind == "quadratic":
        table = QuadraticTable(mem, "t", N_KEYS, 2, config)
    else:
        # A minuscule chain bound forces rehashes.
        table = CuckooTable(mem, "t", N_KEYS, 2, config,
                            max_chain=2 if kind == "cuckoo-rehash" else 48)
    return mem, AtomicUnit(mem), table


def bare_row(mem, unit, key):
    return BatchBlockContext(mem, LAUNCH, (key,), atomics=unit,
                             immediate=True)


def scalar_row(mem, unit, key):
    return BlockContext(mem, unit, LAUNCH, key)


def run_inserts(kind, atomics, locks, make_ctx):
    """Every key once, then a recovery re-insert of a few, each on a
    fresh context of its own block: what the device leaves behind."""
    mem, unit, table = build_table(kind, atomics, locks)
    tallies = []
    with obs.recording() as rec:
        for key in list(range(N_KEYS)) + [5, 0, 17]:
            ctx = make_ctx(mem, unit, key)
            table.insert(ctx, key, lanes_of(key))
            tallies.append(dataclasses.asdict(ctx.tally))
    rehashes = [(e.name, e.args) for e in rec.trace.sink.events
                if e.name == "table.rehash"]
    return {
        "tallies": tallies,
        "images": {name: (buf.data.copy(), buf.shadow.copy())
                   for name, buf in mem.buffers.items()},
        "recency": mem.cache.dirty_lines,
        "by_reason": dict(mem.write_stats.by_reason),
        "by_buffer": dict(mem.write_stats.by_buffer),
        "atomics": (unit.total_ops, dict(unit.per_address)),
        "stats": table.stats.to_dict(),
        "rehashes": rehashes,
        "lookups": [table.lookup(k) for k in range(N_KEYS)],
    }


@pytest.mark.parametrize("locks", list(LockMode))
@pytest.mark.parametrize("atomics", list(AtomicMode))
@pytest.mark.parametrize("kind", ["quadratic", "cuckoo", "cuckoo-rehash"])
def test_insert_on_bare_row_equals_insert_through_block_context(
        kind, atomics, locks):
    want = run_inserts(kind, atomics, locks, scalar_row)
    got = run_inserts(kind, atomics, locks, bare_row)
    for name, (data, shadow) in want["images"].items():
        assert np.array_equal(got["images"][name][0], data), name
        assert np.array_equal(got["images"][name][1], shadow), name
    for field in ("tallies", "recency", "by_reason", "by_buffer",
                  "atomics", "stats", "rehashes"):
        assert got[field] == want[field], field
    for key, lanes in enumerate(got["lookups"]):
        assert np.array_equal(lanes, lanes_of(key)), key
    if kind == "cuckoo-rehash":
        assert got["stats"]["rehashes"] > 0 and got["rehashes"]


def test_deferred_group_refuses_one_element_atomics_and_charges_nothing():
    mem = GlobalMemory(cache_capacity_lines=8)
    keys = mem.alloc("keys", (8,), np.uint64, persistent=True,
                     init=np.zeros(8, np.uint64))
    unit = AtomicUnit(mem)
    group = BatchBlockContext(mem, LAUNCH, (0, 1), atomics=unit)
    before = dataclasses.asdict(group.tally)
    with pytest.raises(LaunchError, match="atomic_cas lands as it is issued"):
        group.atomic_cas(keys, 3, 0, 42)
    with pytest.raises(LaunchError, match="atomic_exch lands as it is issued"):
        group.atomic_exch(keys, 3, 42)
    assert dataclasses.asdict(group.tally) == before
    assert unit.total_ops == 0 and not unit.per_address
    assert not keys.array.any() and not mem.cache.dirty_lines


def test_tables_and_lp_runtime_do_not_use_block_context():
    """The walks run on the row: no ``apply_table_insert`` hook, and
    neither the tables nor the LP runtime imports ``BlockContext``."""
    assert not hasattr(Kernel, "apply_table_insert")
    assert "apply_table_insert" not in vars(runtime.LazyPersistentKernel)
    modules = [runtime, tables_pkg] + [
        module for _, module in inspect.getmembers(tables_pkg,
                                                   inspect.ismodule)
        if module.__name__.startswith(tables_pkg.__name__)]
    assert len(modules) >= 7  # runtime, the package, its five modules
    for module in modules:
        assert BlockContext not in vars(module).values(), module.__name__
    for module in modules[1:]:
        assert "repro.gpu.kernel" not in inspect.getsource(module), \
            module.__name__
