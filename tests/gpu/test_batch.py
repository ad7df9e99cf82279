"""Unit tests for the batch context: its slot claim and record store,
deferred and on an immediate row, and the one block body a kernel has.

``atomic_cas_claim`` stands in for a per-request ``atomicCAS`` walk, so
the scalar walk of one-element CAS on an immediate row is the
reference: same claimed
slots, same write traffic, same atomic totals and per-address
histogram — including when several requests want the same slot and the
loser of one conflict bumps a third request.
"""

import numpy as np
import pytest

from repro.errors import BatchFallbackError, DeviceError, LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
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
    ctx = BatchBlockContext(mem, LaunchConfig.linear(1, 8), (0,),
                            atomics=atomics, immediate=True)
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
# An immediate row runs the same walk and stores a record as a
# per-request loop does.


def row_claim(occupied, candidates, valid):
    mem, buf = table(occupied)
    atomics = AtomicUnit(mem)
    row = BatchBlockContext(mem, LaunchConfig.linear(1, 8), (0,),
                            atomics=atomics, immediate=True)
    claimed = row.atomic_cas_claim(buf, candidates[None], 0, valid[None])
    return claimed[0].tolist(), row.tally.global_write_bytes, atomics


@pytest.mark.parametrize("seed", range(40))
def test_row_claim_matches_the_scalar_cas_walk(seed):
    """Charged on the row as the walk charges; with no group
    to fall back from, a request no candidate can take reads -1 — the
    first such one is where the scalar walk gives up — and then nothing
    is charged."""
    occupied, candidates, valid = random_claims(seed)
    got = row_claim(occupied, candidates, valid)
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


class Folds:
    protected = frozenset({"k", "v"})

    def __init__(self):
        self.seen = []

    def on_store(self, values, slots, mask=None):
        self.seen.append((values.tolist(), np.broadcast_to(
            slots, values.shape).tolist(), mask))


def kv_memory(cache_lines=64):
    mem = GlobalMemory(cache_capacity_lines=cache_lines)
    mem.alloc("k", (64,), np.uint64)
    mem.alloc("v", (64,), np.uint64)
    return mem


def test_row_record_store_is_thread_major():
    mem = kv_memory(cache_lines=2)
    ctx = BatchBlockContext(mem, LaunchConfig.linear(1, 4), (0,),
                            immediate=True)
    ctx.lp_observer = folds = Folds()
    idx = np.array([[3, 1, 40, 0]])
    mask = np.array([[True, False, True, True]])
    ctx.st_record(("k", "v"), idx, (idx + 10, idx + 20), mask=mask)
    # One element-major fold: each request's key then its value, each
    # from its own thread, the masked request silenced.
    ((values, slots, folded_mask),) = folds.seen
    assert values == [[[13, 23], [11, 21], [50, 60], [10, 20]]]
    assert slots == [[[0, 0], [1, 1], [2, 2], [3, 3]]]
    assert folded_mask.tolist() == [[[True], [False], [True], [True]]]
    # The words land key then value, request by request: memory and the
    # cache's recency and evictions equal that per-word loop's.
    ref = kv_memory(cache_lines=2)
    for i in (3, 40, 0):
        ref.write(ref["k"], np.array([i]), np.array([i + 10], np.uint64))
        ref.write(ref["v"], np.array([i]), np.array([i + 20], np.uint64))
    assert mem["v"].data[[3, 1, 40, 0]].tolist() == [23, 0, 60, 20]
    assert mem.cache.dirty_lines == ref.cache.dirty_lines
    assert mem.write_stats.to_dict() == ref.write_stats.to_dict()
    assert ctx.tally.global_write_bytes == 6 * 8


def test_immediate_row_lands_before_the_next_load():
    """An immediate row's store is in memory when the next ``ld`` reads;
    a deferred group's waits for the engine to land it."""
    for immediate, want in ((True, 7), (False, 0)):
        mem = kv_memory()
        bctx = BatchBlockContext(mem, LaunchConfig.linear(1, 4), [0],
                                 immediate=immediate)
        bctx.st("k", np.array([[5]]), 7)
        assert bctx.ld("k", np.array([[5]])).tolist() == [[want]]
        assert len(bctx.store_records) == (not immediate)


def test_deferred_group_refuses_an_ep_interceptor():
    class Interceptor:
        protected = frozenset({"k"})

        def before_store(self, buf, idx):
            raise AssertionError("a deferred group never logs")

    mem = kv_memory()
    bctx = BatchBlockContext(mem, LaunchConfig.linear(2, 4), [0, 1])
    with pytest.raises(LaunchError, match="deferred group"):
        bctx.ep_interceptor = Interceptor()
    row = BatchBlockContext(mem, LaunchConfig.linear(2, 4), (1,),
                            immediate=True)
    row.ep_interceptor = interceptor = Interceptor()
    assert row.ep_interceptor is interceptor


def test_an_immediate_context_is_one_row():
    mem = kv_memory()
    with pytest.raises(LaunchError, match="one row"):
        BatchBlockContext(mem, LaunchConfig.linear(2, 4), [0, 1],
                          immediate=True)


def test_a_kernel_without_a_block_body_cannot_be_built():
    class Bodiless(Kernel):
        name = "bodiless"

        def launch_config(self):
            return LaunchConfig.linear(1, 4)

    with pytest.raises(TypeError, match="run_block_batch"):
        Bodiless()
