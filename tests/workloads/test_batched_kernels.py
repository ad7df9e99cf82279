"""Every Parboil kernel's ``run_block_batch`` across group sizes.

A Parboil kernel has one body, ``run_block_batch``; ``serial`` runs it
one block at a time, as immediate rows (:mod:`repro.gpu.batch`). The
vector cell's deferred groups must be indistinguishable from that
reference on every observable
``assert_same_launch`` pins (completed blocks, tally, volatile + NVM
images, write-back statistics, checksum-table buffers) — through a
clean launch and through crash → validate → recover. Group sizes 1
and 3 are what catch a float path whose rounding depends on the batch
shape; 256 is the engine's default. What a body computes is pinned
separately, in ``tests/fixtures/kernels/expected.json``.
"""

import numpy as np
import pytest

import repro
from repro.core.recovery import RecoveryManager
from repro.errors import LaunchError
from repro.gpu.engine import LaunchEngine
from repro.workloads import SCALES, WORKLOADS, make_workload
from repro.workloads import cutcp, mri_gridding, mri_q, tpacf
from repro.workloads.histo import HISTOKernel
from tests.gpu.test_engines import assert_same_launch

ALL = sorted(WORKLOADS)
GROUP_SIZES = [1, 3, 256]


def _batched(group_size):
    return LaunchEngine("batched", vectorize=True, group_size=group_size)


def _launch(engine, name, scale, config, crash):
    """Launch ``name`` LP-instrumented on a cache small enough to evict
    mid-launch; optionally crash a third of the way through the grid."""
    device = repro.Device(cache_capacity_lines=16, block_order="shuffled",
                          seed=7, engine=engine)
    work = make_workload(name, scale=scale, seed=3)
    kernel = work.setup(device)
    lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
    plan = None
    if crash:
        n_blocks = kernel.launch_config().n_blocks
        plan = repro.CrashPlan(after_blocks=max(1, n_blocks // 3),
                               persist_fraction=0.3, seed=5)
    return device, device.launch(lp_kernel, crash_plan=plan), work, lp_kernel


@pytest.mark.parametrize("crash", [False, True], ids=["clean", "crash"])
@pytest.mark.parametrize("group_size", GROUP_SIZES)
@pytest.mark.parametrize("config_name", ["paper_best", "naive_quadratic"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", ALL)
def test_vector_cell_matches_serial(name, scale, config_name, group_size,
                                    crash):
    config = getattr(repro.LPConfig, config_name)()
    engine = _batched(group_size)
    ref = _launch("serial", name, scale, config, crash)
    got = _launch(engine, name, scale, config, crash)
    assert_same_launch(ref[:2], got[:2])
    if crash:
        assert ref[1].crashed
        reports = []
        for device, _, work, lp_kernel in (ref, got):
            reports.append(RecoveryManager(device, lp_kernel).recover())
            work.verify(device)
        want, have = reports
        assert want.initial.failed_blocks, "the crash lost nothing"
        assert have.initial.failed_blocks == want.initial.failed_blocks
        assert have.recovered_blocks == want.recovered_blocks
        # Every VALIDATE and RECOVER launch of the cycle, and the
        # images they left behind.
        launches = [
            [report.initial.launch, *report.recovery_launches,
             report.final.launch] for report in reports]
        assert len(launches[0]) == len(launches[1])
        for want_launch, have_launch in zip(*launches):
            assert_same_launch((ref[0], want_launch), (got[0], have_launch))
    assert engine.fallbacks == {}


@pytest.mark.parametrize("name", ALL)
def test_the_batch_body_is_the_only_body(name):
    """No Parboil kernel keeps a scalar twin: ``serial`` runs its
    ``run_block_batch`` on immediate rows."""
    kernel = make_workload(name, scale="tiny", seed=0).setup(repro.Device())
    assert "run_block_batch" in vars(type(kernel))
    assert not hasattr(kernel, "run_block")


@pytest.mark.parametrize("name", ALL)
def test_no_workload_falls_back_under_batched(name):
    """NORMAL, VALIDATE and RECOVER all stay in the vector cell."""
    device, result, work, lp_kernel = _launch(
        "batched", name, "small", repro.LPConfig.paper_best(), crash=True)
    assert result.crashed
    assert RecoveryManager(device, lp_kernel).recover().recovered
    work.verify(device)
    assert device.engine.fallbacks == {}


# ---------------------------------------------------------------------------
# Ragged chunks: an input count above ``_CHUNK`` that is no multiple of
# it, so the last pass of the chunk loop is short. No scale preset has
# one; the kernels are built directly.


def _triples(rng, n, span):
    """``n`` float32 ``[x, y, value]`` rows: positions in ``[0, span)``,
    values in ``[-1, 1)``."""
    rows = rng.random((n, 3), dtype=np.float32)
    rows[:, :2] *= span
    rows[:, 2] = rows[:, 2] * 2 - 1
    return rows.reshape(-1)


def _ragged_mri_gridding(device, rng):
    n = mri_gridding._CHUNK + 7
    device.alloc("mrig_samples", (n * 3,), np.float32, persistent=True,
                 init=_triples(rng, n, 12))
    device.alloc("mrig_grid", (12 * 12,), np.float32, persistent=True)
    return mri_gridding.MRIGriddingKernel(12, 4, n, 1.5)


def _ragged_cutcp(device, rng):
    n = 2 * cutcp._CHUNK + 5
    device.alloc("cutcp_atoms", (n * 3,), np.float32, persistent=True,
                 init=_triples(rng, n, 12))
    device.alloc("cutcp_pot", (12 * 12,), np.float32, persistent=True)
    return cutcp.CUTCPKernel(12, 4, n, 6.0)


def _ragged_mri_q(device, rng):
    n_voxels, threads, n_k = 40, 8, mri_q._CHUNK + 3
    device.alloc("mriq_x", (n_voxels * 3,), np.float32, persistent=True,
                 init=rng.random(n_voxels * 3, dtype=np.float32) * 2 - 1)
    device.alloc("mriq_k", (n_k * 4,), np.float32, persistent=True,
                 init=rng.random(n_k * 4, dtype=np.float32))
    device.alloc("mriq_qr", (n_voxels,), np.float32, persistent=True)
    device.alloc("mriq_qi", (n_voxels,), np.float32, persistent=True)
    return mri_q.MRIQKernel(n_voxels, n_k, threads)


def _ragged_tpacf(device, rng):
    threads, n_bins = 9, 8
    n_points = threads * 9  # 81 = _CHUNK + 17
    assert n_points > tpacf._CHUNK and n_points % tpacf._CHUNK
    device.alloc("tpacf_pts", (n_points * 3,), np.float32, persistent=True,
                 init=tpacf._unit_sphere_points(rng, n_points).reshape(-1))
    device.alloc("tpacf_hist", (n_points // threads * n_bins,), np.int64,
                 persistent=True)
    return tpacf.TPACFKernel(n_points, threads, n_bins)


RAGGED = {
    "mri-gridding": _ragged_mri_gridding,
    "cutcp": _ragged_cutcp,
    "mri-q": _ragged_mri_q,
    "tpacf": _ragged_tpacf,
}


@pytest.mark.parametrize("group_size", GROUP_SIZES)
@pytest.mark.parametrize("name", sorted(RAGGED))
def test_ragged_last_chunk_matches_serial(name, group_size):
    runs = []
    for engine in ("serial", _batched(group_size)):
        device = repro.Device(cache_capacity_lines=16, engine=engine)
        kernel = RAGGED[name](device, np.random.default_rng(17))
        lp_kernel = repro.LPRuntime(
            device, repro.LPConfig.paper_best()).instrument(kernel)
        runs.append((device, device.launch(lp_kernel)))
    assert_same_launch(*runs)
    assert runs[1][0].engine.fallbacks == {}
    output = runs[0][0].memory[kernel.protected_buffers[0]].array
    assert np.any(output), "the ragged launch computed nothing"


def test_histo_sample_outside_the_bins_is_rejected_per_block():
    """An out-of-range sample must not land in a neighbour's partial:
    the group falls back, and the one-block pass that meets the sample
    raises a typed error — never the ``BatchFallbackError``."""
    errors = []
    for engine in ("serial", "batched"):
        device = repro.Device(engine=engine)
        samples = np.arange(64, dtype=np.int32) % 8
        samples[40] = 8
        device.alloc("histo_in", (64,), np.int32, persistent=True,
                     init=samples)
        device.alloc("histo_partial", (4 * 8,), np.uint32, persistent=True)
        with pytest.raises(LaunchError) as err:
            device.launch(HISTOKernel(64, 8, 4, 4))
        assert err.type is LaunchError   # not a BatchFallbackError
        errors.append(str(err.value))
        # Blocks 0 and 1 completed; block 2 holds the bad sample.
        assert np.array_equal(
            device.memory["histo_partial"].array[:16], np.full(16, 2))
        assert not device.memory["histo_partial"].array[16:].any()
    assert errors[0] == errors[1]
    assert device.engine.fallbacks == {"histo": 1}
