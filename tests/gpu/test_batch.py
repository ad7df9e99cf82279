"""Unit tests for the batched context's slot claim and record store.

``BatchBlockContext.atomic_cas_claim`` stands in for a per-request
``atomicCAS`` walk, so the scalar walk over a ``BlockContext`` is the
reference: same claimed slots, same write traffic, same atomic totals
and per-address histogram — including when several requests want the
same slot and the loser of one conflict bumps a third request.
"""

import numpy as np
import pytest

from repro.errors import BatchFallbackError, DeviceError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import BlockContext, ExecMode, LaunchConfig
from repro.gpu.memory import GlobalMemory

N_SLOTS = 24


def table(occupied):
    mem = GlobalMemory(cache_capacity_lines=64)
    init = np.zeros(N_SLOTS, dtype=np.uint64)
    init[list(occupied)] = 7
    return mem, mem.alloc("t", (N_SLOTS,), np.uint64, init=init)


def scalar_walk(occupied, candidates, valid):
    """The reference: one request at a time, one CAS at a time."""
    mem, buf = table(occupied)
    atomics = AtomicUnit(mem)
    ctx = BlockContext(mem, atomics, LaunchConfig.linear(1, 8), 0)
    claimed = []
    for r, row in enumerate(candidates):
        slot = -1
        for c, s in enumerate(row):
            if not valid[r, c]:
                continue
            if ctx.atomic_cas(buf, int(s), 0, 100 + r) == 0:
                slot = int(s)
                break
        else:
            if valid[r].any():
                return None  # exhausted: the scalar kernel raises here
        claimed.append(slot)
    return claimed, ctx.tally.global_write_bytes, atomics


def batch_claim(occupied, candidates, valid, mode=ExecMode.NORMAL,
                with_atomics=True):
    mem, buf = table(occupied)
    atomics = AtomicUnit(mem) if with_atomics else None
    bctx = BatchBlockContext(mem, LaunchConfig.linear(1, 8), [0],
                             mode=mode, atomics=atomics)
    claimed = bctx.atomic_cas_claim(buf, candidates[None], 0, valid[None])
    return claimed[0].tolist(), bctx.tally.global_write_bytes, atomics


@pytest.mark.parametrize("seed", range(40))
def test_claim_matches_the_scalar_cas_walk(seed):
    rng = np.random.default_rng(seed)
    occupied = rng.choice(N_SLOTS, size=rng.integers(0, 14), replace=False)
    n_requests = int(rng.integers(1, 9))
    # Candidates drawn from few slots, so requests collide constantly.
    candidates = np.stack([rng.choice(N_SLOTS // 2, size=4, replace=False)
                           for _ in range(n_requests)])
    valid = rng.random(candidates.shape) < 0.85
    valid[rng.random(n_requests) < 0.2] = False  # masked-out requests

    want = scalar_walk(occupied, candidates, valid)
    if want is None:
        with pytest.raises(BatchFallbackError):
            batch_claim(occupied, candidates, valid)
        return
    got = batch_claim(occupied, candidates, valid)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2].total_ops == want[2].total_ops
    assert got[2].per_address == want[2].per_address


def test_a_bumped_request_bumps_the_next_one():
    """Request 0 takes slot 1; request 1 (wanting 1, then 2) moves to 2,
    which request 2 had first aimed at — it must move on to 3."""
    candidates = np.array([[1, 5], [1, 2], [2, 3]])
    valid = np.ones_like(candidates, dtype=bool)
    claimed, _, atomics = batch_claim((), candidates, valid)
    assert claimed == [1, 2, 3]
    assert atomics.total_ops == 1 + 2 + 2
    assert scalar_walk((), candidates, valid)[0] == claimed


def test_exhaustion_raises_before_charging_anything():
    mem, buf = table(range(4))
    atomics = AtomicUnit(mem)
    bctx = BatchBlockContext(mem, LaunchConfig.linear(1, 8), [0],
                             atomics=atomics)
    candidates = np.array([[[4, 5], [0, 1]]])  # request 1: both taken
    with pytest.raises(BatchFallbackError):
        bctx.atomic_cas_claim(buf, candidates, 0)
    assert atomics.total_ops == 0 and not atomics.per_address
    assert bctx.tally.global_write_bytes == 0


def test_claim_refuses_what_the_scalar_context_refuses():
    candidates = np.array([[1, 2]])
    valid = np.ones_like(candidates, dtype=bool)
    with pytest.raises(DeviceError, match="VALIDATE"):
        batch_claim((), candidates, valid, mode=ExecMode.VALIDATE)
    # A context built without the launch's AtomicUnit has nothing to
    # charge contention to.
    with pytest.raises(LaunchError, match="needs the launch's AtomicUnit"):
        batch_claim((), candidates, valid, with_atomics=False)


def test_record_store_keeps_one_value_column_per_buffer():
    mem = GlobalMemory(cache_capacity_lines=64)
    mem.alloc("k", (16,), np.uint64)
    mem.alloc("v", (16,), np.uint64)
    mem.alloc("r", (16,), np.uint64)
    bctx = BatchBlockContext(mem, LaunchConfig.linear(2, 4), [0, 1])
    idx = np.array([[3, 1, 4, 0], [9, 8, 0, 0]])
    mask = np.array([[True] * 4, [True, True, False, False]])
    bctx.st_record(("k", "v"), idx, (idx + 10, idx + 20), mask=mask)
    bctx.st("r", idx, idx + 30, mask=mask)
    records = bctx.store_records
    assert [r[0] for r in records] == [("k", "v"), "r"]
    assert records[0][2].shape == (2, 4, 2)
    assert bctx.tally.global_write_bytes == 3 * 6 * 8
