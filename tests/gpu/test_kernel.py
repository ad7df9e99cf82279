"""Unit tests for LaunchConfig, a block's immediate row and the Kernel ABC."""

import numpy as np
import pytest

from repro.errors import DeviceError, LaunchError, UnrecoverableRegionError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory


def make_ctx(block_id=0, mode=ExecMode.NORMAL, grid=(4, 1), block=(32, 1)):
    mem = GlobalMemory(cache_capacity_lines=64)
    mem.alloc("out", (256,), np.float32)
    mem.alloc("scratch", (256,), np.float32, persistent=False)
    cfg = LaunchConfig(grid=grid, block=block)
    return BatchBlockContext(mem, cfg, (block_id,), mode, AtomicUnit(mem),
                             immediate=True), mem


def row(n):
    """The first ``n`` elements, as one row's index."""
    return np.arange(n)[None]


class Recorder:
    """Minimal StoreObserver for interception tests."""

    def __init__(self, protected=("out",)):
        self.protected = frozenset(protected)
        self.calls = []

    def on_store(self, values, slots):
        self.calls.append((np.array(values), np.array(slots)))


# -- LaunchConfig ------------------------------------------------------------

def test_launch_config_geometry():
    cfg = LaunchConfig(grid=(4, 2), block=(8, 4))
    assert cfg.n_blocks == 8
    assert cfg.threads_per_block == 32
    assert cfg.n_warps_per_block == 1
    assert cfg.block_coords(5) == (1, 1)


def test_launch_config_linear():
    cfg = LaunchConfig.linear(10, 64)
    assert cfg.n_blocks == 10
    assert cfg.threads_per_block == 64
    assert cfg.n_warps_per_block == 2


def test_launch_config_validation():
    with pytest.raises(LaunchError):
        LaunchConfig(grid=(0, 1))
    cfg = LaunchConfig(grid=(2, 2))
    with pytest.raises(LaunchError):
        cfg.block_coords(4)


# -- memory ops & accounting -------------------------------------------------

def test_ld_st_roundtrip_and_bytes():
    ctx, _ = make_ctx()
    ctx.st("out", row(4), np.array([1.0, 2.0, 3.0, 4.0]))
    vals = ctx.ld("out", row(4))
    assert np.allclose(vals, [[1, 2, 3, 4]])
    assert ctx.tally.global_write_bytes == 16
    assert ctx.tally.global_read_bytes == 16


def test_st_broadcasts_scalars():
    ctx, mem = make_ctx()
    ctx.st("out", row(8), 5.0)
    assert np.all(mem["out"].array[:8] == 5.0)


def test_observer_sees_protected_stores_only():
    ctx, _ = make_ctx()
    rec = Recorder()
    ctx.lp_observer = rec
    ctx.st("out", row(4), np.ones(4))
    ctx.st("scratch", row(4), np.ones(4))
    assert len(rec.calls) == 1


def test_validate_mode_suppresses_persistent_writes():
    ctx, mem = make_ctx(mode=ExecMode.VALIDATE)
    rec = Recorder()
    ctx.lp_observer = rec
    mem["out"].data[:4] = [9, 9, 9, 9]
    ctx.st("out", row(4), np.zeros(4))
    # The write did not land; the observer saw memory's contents.
    assert np.all(mem["out"].array[:4] == 9)
    assert np.allclose(rec.calls[0][0], 9)


def test_validate_mode_allows_scratch_writes():
    ctx, mem = make_ctx(mode=ExecMode.VALIDATE)
    ctx.st("scratch", row(4), np.ones(4))
    assert np.all(mem["scratch"].array[:4] == 1)


def test_validate_mode_suppresses_unprotected_persistent_writes():
    ctx, mem = make_ctx(mode=ExecMode.VALIDATE)
    ctx.st("out", row(4), np.ones(4))  # no observer attached
    assert np.all(mem["out"].array[:4] == 0)


def test_atomic_to_persistent_in_validate_raises():
    ctx, _ = make_ctx(mode=ExecMode.VALIDATE)
    with pytest.raises(DeviceError):
        ctx.atomic_add("out", row(1), 1.0)


def test_recover_mode_writes_normally():
    ctx, mem = make_ctx(mode=ExecMode.RECOVER)
    ctx.st("out", row(2), np.array([3.0, 4.0]))
    assert mem["out"].array[0] == 3.0


def test_thread_geometry_helpers():
    ctx, _ = make_ctx(block_id=5, grid=(4, 2), block=(8, 4))
    assert ctx.n_threads == 32
    assert [v.tolist() for v in ctx.block_xy] == [[1], [1]]
    tx, ty = ctx.thread_xy()
    assert tx[9] == 1 and ty[9] == 1
    assert np.array_equal(ctx.tid, np.arange(32))


def test_sync_is_costed():
    ctx, _ = make_ctx()
    ctx.syncthreads()
    assert ctx.tally.syncthreads == 1


def test_alu_and_flops_accounting():
    ctx, _ = make_ctx()
    ctx.alu(10)
    ctx.flops(2)           # 2 per thread x 32 threads
    ctx.flops(3, active_threads=4)
    assert ctx.tally.alu_ops == 10 + 64 + 12


def test_finalize_tally_folds_shared_traffic():
    ctx, _ = make_ctx()
    ctx.shared.alloc("s", (8,), np.int32)
    ctx.shared.write("s", slice(0, 8), np.zeros(8, np.int32))
    tally = ctx.finalize_tally()
    assert tally.shared_bytes == 32


# -- Kernel ABC defaults -----------------------------------------------------

class TinyKernel(Kernel):
    name = "tiny"
    protected_buffers = ("out",)

    def launch_config(self):
        return LaunchConfig.linear(2, 32)

    def run_block_batch(self, bctx):
        idx = bctx.block_ids[:, None] * 32 + bctx.tid
        bctx.st("out", idx, 1.0)


def test_default_recover_reruns_idempotent_block():
    ctx, mem = make_ctx()
    TinyKernel().recover_block_batch(ctx)
    assert np.all(mem["out"].array[:32] == 1.0)


def test_non_idempotent_without_recovery_raises():
    class NonIdem(TinyKernel):
        idempotent = False

    ctx, _ = make_ctx()
    with pytest.raises(UnrecoverableRegionError):
        NonIdem().recover_block_batch(ctx)



def test_one_block_context_and_one_block_body():
    """``BatchBlockContext`` is the only block context and
    ``run_block_batch`` the only body: no module names a scalar
    ``BlockContext``, and ``Kernel`` has no scalar entries."""
    import re
    from pathlib import Path

    import repro

    src = Path(repro.__file__).parent
    named = [str(path.relative_to(src)) for path in sorted(src.rglob("*.py"))
             if re.search(r"\bBlockContext\b", path.read_text())]
    assert named == []
    assert "BlockContext" not in repro.__all__
    assert not hasattr(repro, "BlockContext")
    for entry in ("run_block", "validate_block", "recover_block"):
        assert not hasattr(Kernel, entry), entry
    assert not hasattr(BatchBlockContext(
        GlobalMemory(), LaunchConfig(), (0,)), "block_context")
