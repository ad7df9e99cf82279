"""Unit tests for the LP region observer on an immediate row (a group
of one)."""

import numpy as np

from repro.core.checksum import ChecksumSet
from repro.core.config import PAPER_CHECKSUM_PAIR
from repro.core.region import BatchRegionObserver
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory


def make_ctx(threads=32):
    mem = GlobalMemory(cache_capacity_lines=64)
    cfg = LaunchConfig.linear(1, threads)
    return BatchBlockContext(mem, cfg, (0,), atomics=AtomicUnit(mem),
                             immediate=True)


def test_observer_folds_values_per_thread():
    ctx = make_ctx(4)
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    obs = BatchRegionObserver(cset, ctx, frozenset({"out"}))
    vals = np.float32([1.0, 2.0, 3.0, 4.0])
    obs.on_store(vals[None], np.arange(4))
    assert obs.n_values == 4
    assert np.array_equal(obs.state.reduce_lanes()[0], cset.checksum_of(vals))


def test_observer_charges_update_cost():
    ctx = make_ctx(4)
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    obs = BatchRegionObserver(cset, ctx, frozenset({"out"}))
    obs.on_store(np.float32([[1.0, 2.0]]), np.array([0, 1]))
    # 2 values x (1 modular + 2 parity incl. conversion) ops.
    assert ctx.tally.alu_ops == 6


def test_observer_conversion_cost_optional():
    ctx = make_ctx(4)
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    obs = BatchRegionObserver(cset, ctx, frozenset({"out"}),
                              charge_float_conversion=False)
    obs.on_store(np.int32([[1, 2]]), np.array([0, 1]))
    assert ctx.tally.alu_ops == 4  # one op cheaper per value


def test_observer_protected_set_exposed():
    ctx = make_ctx()
    obs = BatchRegionObserver(ChecksumSet(PAPER_CHECKSUM_PAIR), ctx,
                              frozenset({"a", "b"}))
    assert obs.protected == {"a", "b"}
