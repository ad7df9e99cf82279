"""Hash-table inserts run on a block's immediate row.

A checksum table's insert issues its loads, stores and one-element
atomics on the inserting block's immediate
:class:`~repro.gpu.batch.BatchBlockContext`; a deferred group refuses
every primitive that acts as it is issued, before any charge.
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
from repro.gpu.kernel import Kernel, LaunchConfig
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


@pytest.mark.parametrize("locks", list(LockMode))
@pytest.mark.parametrize("atomics", list(AtomicMode))
@pytest.mark.parametrize("kind", ["quadratic", "cuckoo", "cuckoo-rehash"])
def test_insert_on_the_row_is_found_by_lookup(kind, atomics, locks):
    """Every key once, then a recovery re-insert of a few, each on a
    fresh immediate row of its own block."""
    mem, unit, table = build_table(kind, atomics, locks)
    with obs.recording() as rec:
        for key in list(range(N_KEYS)) + [5, 0, 17]:
            row = BatchBlockContext(mem, LAUNCH, (key,), atomics=unit,
                                    immediate=True)
            table.insert(row, key, lanes_of(key))
    for key in range(N_KEYS):
        assert np.array_equal(table.lookup(key), lanes_of(key)), key
    if kind == "cuckoo-rehash":
        assert table.stats.to_dict()["rehashes"] > 0
        assert any(e.name == "table.rehash" for e in rec.trace.sink.events)


#: Every primitive that acts as it is issued, as a body calls it.
AS_ISSUED = {
    "atomic_cas": lambda ctx, keys: ctx.atomic_cas(keys, 3, 0, 42),
    "atomic_exch": lambda ctx, keys: ctx.atomic_exch(keys, 3, 42),
    "atomic_add": lambda ctx, keys: ctx.atomic_add(keys, [[3], [4]], 1),
    "clwb": lambda ctx, keys: ctx.clwb(keys, [3]),
    "persist_barrier": lambda ctx, keys: ctx.persist_barrier(),
    "shared memory": lambda ctx, keys: ctx.shared.alloc("s", 8),
}


@pytest.mark.parametrize("primitive", list(AS_ISSUED))
def test_deferred_group_refuses_what_acts_as_issued_and_charges_nothing(
        primitive):
    mem = GlobalMemory(cache_capacity_lines=8)
    keys = mem.alloc("keys", (8,), np.uint64, persistent=True,
                     init=np.zeros(8, np.uint64))
    mem.write(keys, np.arange(8), np.zeros(8, np.uint64))
    dirty = list(mem.cache.dirty_lines)
    unit = AtomicUnit(mem)
    group = BatchBlockContext(mem, LAUNCH, (0, 1), atomics=unit)
    before = dataclasses.asdict(group.tally)
    with pytest.raises(LaunchError,
                       match=f"{primitive} acts as it is issued"):
        AS_ISSUED[primitive](group, keys)
    assert dataclasses.asdict(group.tally) == before
    assert unit.total_ops == 0 and not unit.per_address
    assert not keys.array.any() and mem.cache.dirty_lines == dirty
    assert not mem.write_stats.to_dict()["by_reason"]
    # The same call on an immediate row is taken.
    AS_ISSUED[primitive](BatchBlockContext(
        mem, LAUNCH, (0,), atomics=unit, immediate=True), keys)


def test_tables_and_lp_runtime_keep_the_walks_off_the_kernel():
    """The walks run on the row: no ``apply_table_insert`` hook, and no
    tables module imports ``repro.gpu.kernel``."""
    assert not hasattr(Kernel, "apply_table_insert")
    assert "apply_table_insert" not in vars(runtime.LazyPersistentKernel)
    modules = [tables_pkg] + [
        module for _, module in inspect.getmembers(tables_pkg,
                                                   inspect.ismodule)
        if module.__name__.startswith(tables_pkg.__name__)]
    assert len(modules) >= 6  # the package and its five modules
    for module in modules:
        assert "repro.gpu.kernel" not in inspect.getsource(module), \
            module.__name__
