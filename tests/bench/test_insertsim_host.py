"""insertsim's host slots refuse what unique block ids cannot do,
rather than assume it cannot happen."""

import pytest

from repro.bench.insertsim import _HostCuckoo
from repro.core.tables import CuckooTable, TableStats
from repro.core.tables.cuckoo import eviction_walk
from repro.errors import TableError


def test_host_cuckoo_refuses_a_block_id_met_twice():
    host = _HostCuckoo(8, 8, CuckooTable.SEED)
    eviction_walk(host, host, 3, None, TableStats())
    with pytest.raises(TableError, match="inserted twice"):
        eviction_walk(host, host, 3, None, TableStats())
    with pytest.raises(TableError, match="met block id 3 twice"):
        host.swap(0, host.index(0, 3), 3)
    host.keys[1][host.index(1, 3)] = 3
    with pytest.raises(TableError, match="both tables"):
        host.take_all(0)
