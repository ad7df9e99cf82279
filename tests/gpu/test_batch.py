"""Unit tests for the slot claim and record store of the batched
context and of the one-block view of a scalar context.

``atomic_cas_claim`` stands in for a per-request ``atomicCAS`` walk, so
the scalar walk over a ``BlockContext`` is the reference: same claimed
slots, same write traffic, same atomic totals and per-address
histogram — including when several requests want the same slot and the
loser of one conflict bumps a third request.
"""

import numpy as np
import pytest

from repro.errors import BatchFallbackError, DeviceError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import BlockContext, ExecMode, LaunchConfig, _OneBlockView
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


def random_claims(seed):
    """``(occupied, candidates, valid)`` for a few colliding requests."""
    rng = np.random.default_rng(seed)
    occupied = rng.choice(N_SLOTS, size=rng.integers(0, 14), replace=False)
    n_requests = int(rng.integers(1, 9))
    # Candidates drawn from few slots, so requests collide constantly.
    candidates = np.stack([rng.choice(N_SLOTS // 2, size=4, replace=False)
                           for _ in range(n_requests)])
    valid = rng.random(candidates.shape) < 0.85
    valid[rng.random(n_requests) < 0.2] = False  # masked-out requests
    return occupied, candidates, valid


@pytest.mark.parametrize("seed", range(40))
def test_claim_matches_the_scalar_cas_walk(seed):
    occupied, candidates, valid = random_claims(seed)
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


# ---------------------------------------------------------------------------
# The one-block view of a scalar context runs the same walk and stores
# a record as a per-request loop does.


def view_claim(occupied, candidates, valid):
    mem, buf = table(occupied)
    atomics = AtomicUnit(mem)
    ctx = BlockContext(mem, atomics, LaunchConfig.linear(1, 8), 0)
    claimed = _OneBlockView(ctx).atomic_cas_claim(buf, candidates[None], 0,
                                                  valid[None])
    return claimed[0].tolist(), ctx.tally.global_write_bytes, atomics


@pytest.mark.parametrize("seed", range(40))
def test_view_claim_matches_the_scalar_cas_walk(seed):
    """Charged on the scalar context as the walk charges; a request no
    candidate can take reads -1 — the first such one is where the
    scalar walk gives up — and then nothing is charged."""
    occupied, candidates, valid = random_claims(seed)
    got = view_claim(occupied, candidates, valid)
    want = scalar_walk(occupied, candidates, valid)
    if want is not None:
        assert got[0] == want[0] and got[1] == want[1]
        assert got[2].per_address == want[2].per_address
        return
    full = [r for r in range(len(candidates))
            if valid[r].any() and got[0][r] == -1]
    first = full[0]
    assert scalar_walk(occupied, candidates[:first], valid[:first])[0] \
        == got[0][:first]
    assert scalar_walk(occupied, candidates[:first + 1],
                       valid[:first + 1]) is None
    assert got[1] == 0 and got[2].total_ops == 0


def test_view_record_store_is_thread_major():
    class Folds:
        protected = frozenset({"k", "v"})

        def __init__(self):
            self.seen = []

        def on_store(self, values, slots):
            self.seen.append((values.tolist(), slots.tolist()))

    mem = GlobalMemory(cache_capacity_lines=64)
    mem.alloc("k", (16,), np.uint64)
    mem.alloc("v", (16,), np.uint64)
    ctx = BlockContext(mem, AtomicUnit(mem), LaunchConfig.linear(1, 4), 0)
    ctx.lp_observer = folds = Folds()
    idx = np.array([[3, 1, 4, 0]])
    mask = np.array([[True, False, True, True]])
    _OneBlockView(ctx).st_record(("k", "v"), idx, (idx + 10, idx + 20),
                                 mask=mask)
    # Key then value, request by request, each from its own thread;
    # the scalar context hands each store over as a one-row batch.
    assert folds.seen == [([[13]], [[0]]), ([[23]], [[0]]),
                          ([[14]], [[2]]), ([[24]], [[2]]),
                          ([[10]], [[3]]), ([[20]], [[3]])]
    assert mem["v"].data[[3, 1, 4, 0]].tolist() == [23, 0, 24, 20]
    assert ctx.tally.global_write_bytes == 6 * 8
