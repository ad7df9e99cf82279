"""Integration matrix: crash recovery across workloads, tables, orders."""

import numpy as np
import pytest

import repro
from repro.core.config import ChecksumKind
from repro.core.recovery import RecoveryManager
from repro.core.runtime import LPRuntime
from repro.gpu.engine import make_engine
from repro.obs import load_schema, validate
from repro.obs.forensics import LANE_MISMATCH, MISSING_ENTRY
from repro.workloads import WORKLOADS, make_workload

TABLES = {
    "global_array": repro.LPConfig.paper_best(),
    "quadratic": repro.LPConfig.naive_quadratic(),
    "cuckoo": repro.LPConfig.naive_cuckoo(),
}


@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_crash_recovery(workload_name, table_name):
    device = repro.Device(cache_capacity_lines=16,
                          block_order="shuffled", seed=13)
    work = make_workload(workload_name, scale="tiny")
    kernel = work.setup(device)
    lp_kernel = LPRuntime(device, TABLES[table_name]).instrument(kernel)
    n_blocks = kernel.launch_config().n_blocks
    device.launch(
        lp_kernel,
        crash_plan=repro.CrashPlan(after_blocks=max(1, n_blocks // 3),
                                   persist_fraction=0.35, seed=21),
    )
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    work.verify(device)
    # Every injected failure must come with a forensics record: same
    # blocks, a known reason, and a schema-valid serialization.
    if report.initial.failed_blocks:
        forensics = report.forensics
        assert forensics is not None
        assert [f.block_id for f in forensics.failures] \
            == report.initial.failed_blocks
        assert all(f.reason in (MISSING_ENTRY, LANE_MISMATCH)
                   for f in forensics.failures)
        validate(forensics.to_dict(), load_schema("forensics"))
    else:
        assert report.forensics is None


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_block_order_invariance(workload_name):
    """LP regions are associative: any block order, same output and a
    fully valid checksum table."""
    outputs = []
    for order, seed in (("sequential", 0), ("shuffled", 7),
                        ("shuffled", 23)):
        device = repro.Device(block_order=order, seed=seed)
        work = make_workload(workload_name, scale="tiny")
        kernel = work.setup(device)
        lp_kernel = LPRuntime(device).instrument(kernel)
        device.launch(lp_kernel)
        device.drain()
        report = RecoveryManager(device, lp_kernel).validate()
        assert report.all_passed
        outputs.append({
            b: device.memory[b].array.copy()
            for b in kernel.protected_buffers
        })
    for buf in outputs[0]:
        assert np.array_equal(outputs[0][buf], outputs[1][buf])
        assert np.array_equal(outputs[0][buf], outputs[2][buf])


# -- engine parity of the post-crash pipeline -----------------------------------
#
# The validation fast path (vectorized re-checksum + batched table
# lookups) and the batched recovery dispatch must be invisible: the
# batched engine reproduces the serial reference's ValidationReport bit
# for bit — failed sets, missing entries, per-block failure_details
# lanes, and the forensics serialization (hex lanes included).

CHECKSUM_KINDS = {
    "modular": (ChecksumKind.MODULAR,),
    "parity": (ChecksumKind.PARITY,),
}


def _recover_with_engine(engine_name, config, shadow=None):
    """Crash deterministically (serial NORMAL launch), then run the
    validate → recover → re-validate pipeline under ``engine_name``.

    ``shadow`` optionally routes the NVM images through a durable
    mapped heap — the backend must be semantically invisible."""
    device = repro.Device(cache_capacity_lines=16, seed=13,
                          shadow=shadow)
    work = make_workload("spmv", scale="tiny")
    kernel = work.setup(device)
    lp_kernel = LPRuntime(device, config).instrument(kernel)
    n_blocks = kernel.launch_config().n_blocks
    device.launch(
        lp_kernel,
        crash_plan=repro.CrashPlan(after_blocks=max(1, n_blocks // 3),
                                   persist_fraction=0.35, seed=21),
    )
    device.engine = make_engine(engine_name)
    report = RecoveryManager(device, lp_kernel).recover()
    outputs = {
        b: device.memory[b].array.copy()
        for b in kernel.protected_buffers
    }
    return report, outputs, device


def _assert_details_equal(ref, got):
    assert sorted(ref) == sorted(got)
    for block_id, ref_detail in ref.items():
        detail = got[block_id]
        assert detail["reason"] == ref_detail["reason"]
        for lane_key in ("expected", "found"):
            if ref_detail[lane_key] is None:
                assert detail[lane_key] is None
            else:
                assert np.array_equal(detail[lane_key],
                                      ref_detail[lane_key])


@pytest.mark.parametrize("checksum_name", sorted(CHECKSUM_KINDS))
@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("engine_name", ["batched"])
def test_recovery_pipeline_engine_parity(engine_name, table_name,
                                         checksum_name):
    config = TABLES[table_name].with_(
        checksums=CHECKSUM_KINDS[checksum_name]
    )
    ref_report, ref_out, _ = _recover_with_engine("serial", config)
    report, out, _ = _recover_with_engine(engine_name, config)

    for phase in ("initial", "final"):
        ref_val = getattr(ref_report, phase)
        val = getattr(report, phase)
        assert val.n_blocks == ref_val.n_blocks
        assert val.failed_blocks == ref_val.failed_blocks
        assert val.missing_checksums == ref_val.missing_checksums
        _assert_details_equal(ref_val.failure_details,
                              val.failure_details)

    assert report.recovered == ref_report.recovered
    assert report.recovered_blocks == ref_report.recovered_blocks
    if ref_report.forensics is None:
        assert report.forensics is None
    else:
        assert report.forensics.to_dict() == ref_report.forensics.to_dict()
    for buf, ref_arr in ref_out.items():
        assert np.array_equal(out[buf], ref_arr)
    # The parity is only meaningful if the crash actually broke blocks.
    assert ref_report.initial.failed_blocks


# -- mapped-backend column ------------------------------------------------------
#
# Routing the NVM images through the durable mmap heap must change
# nothing observable: same failed sets, same forensics, same recovered
# memory, and an NVM image (in memory AND in the reopened heap file)
# bit-identical to the in-memory backend under the same CrashPlan seed.

@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("engine_name", ["serial", "batched"])
def test_recovery_mapped_backend_parity(engine_name, table_name,
                                        tmp_path):
    config = TABLES[table_name]
    ref_report, ref_out, ref_device = _recover_with_engine(
        engine_name, config)
    heap_path = tmp_path / "heap.lpnv"
    heap = repro.MappedShadow.create(heap_path)
    report, out, device = _recover_with_engine(
        engine_name, config, shadow=heap)

    for phase in ("initial", "final"):
        ref_val = getattr(ref_report, phase)
        val = getattr(report, phase)
        assert val.failed_blocks == ref_val.failed_blocks
        assert val.missing_checksums == ref_val.missing_checksums
        _assert_details_equal(ref_val.failure_details,
                              val.failure_details)
    if ref_report.forensics is None:
        assert report.forensics is None
    else:
        assert report.forensics.to_dict() == ref_report.forensics.to_dict()
    for buf, ref_arr in ref_out.items():
        assert np.array_equal(out[buf], ref_arr)

    # NVM images: in-memory shadow vs mapped view, then vs a cold reopen.
    ref_device.drain()
    device.drain()
    persistent = {
        name: buf.shadow.tobytes()
        for name, buf in ref_device.memory.buffers.items()
        if buf.persistent
    }
    for name, ref_bytes in persistent.items():
        assert device.memory[name].shadow.tobytes() == ref_bytes
    heap.close()
    with repro.MappedShadow.open(heap_path) as reopened:
        assert sorted(reopened.entries) == sorted(persistent)
        for name, ref_bytes in persistent.items():
            assert reopened.view(name).tobytes() == ref_bytes
    assert ref_report.initial.failed_blocks


# -- full parity matrix ---------------------------------------------------------
#
# The batched engine drives the *whole* pipeline — the crashed NORMAL
# launch, validation, recovery — across every workload, every table,
# and both shadow backends, and must land bit-identically on the
# serial reference: recovered volatile
# + NVM images, failed sets, forensics, everything.

def _full_pipeline(engine_name, workload_name, config, shadow=None,
                   cache_lines=16, crash_fraction=3):
    device = repro.Device(cache_capacity_lines=cache_lines,
                          block_order="shuffled",
                          seed=13, engine=engine_name, shadow=shadow)
    work = make_workload(workload_name, scale="tiny")
    kernel = work.setup(device)
    lp_kernel = LPRuntime(device, config).instrument(kernel)
    n_blocks = kernel.launch_config().n_blocks
    device.launch(
        lp_kernel,
        crash_plan=repro.CrashPlan(
            after_blocks=max(1, n_blocks // crash_fraction),
            persist_fraction=0.35, seed=21),
    )
    report = RecoveryManager(device, lp_kernel).recover()
    assert report.recovered
    work.verify(device)
    device.drain()
    images = {
        name: (buf.data.tobytes(),
               None if buf.shadow is None else buf.shadow.tobytes())
        for name, buf in device.memory.buffers.items()
    }
    return report, images, device


def _shadows(shadow_kind, tmp_path):
    """A fresh backend per call: ``None`` or a new mapped heap."""
    def shadow():
        if shadow_kind == "memory":
            return None
        return repro.MappedShadow.create(
            tmp_path / f"heap-{len(list(tmp_path.iterdir()))}.lpnv")
    return shadow


@pytest.mark.parametrize("shadow_kind", ["memory", "mapped"])
@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_parallel_engine_parity_matrix(workload_name, table_name,
                                       shadow_kind, tmp_path):
    config = TABLES[table_name]
    shadow = _shadows(shadow_kind, tmp_path)
    ref_report, ref_images, _ = _full_pipeline(
        "serial", workload_name, config, shadow=shadow())
    engine_name = "batched"
    report, images, _ = _full_pipeline(
        engine_name, workload_name, config, shadow=shadow())
    _assert_pipelines_equal(engine_name, ref_report, ref_images,
                            report, images)


# -- near write-through caches ---------------------------------------------------
#
# At 0-2 dirty lines nearly every store evicts, and the global array's
# 8-blocks-per-line entries re-touch lines a moment after they were
# written back: the batched engine's one-pass apply cuts at almost
# every step there. Forward launch, crash at half the grid, recover —
# still bit-identical to serial, write statistics and evictions too.

@pytest.mark.parametrize("shadow_kind", ["memory", "mapped"])
@pytest.mark.parametrize("table_name", sorted(TABLES))
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("cache_lines", [0, 1, 2])
def test_near_write_through_engine_parity(cache_lines, workload_name,
                                          table_name, shadow_kind,
                                          tmp_path):
    config = TABLES[table_name]
    shadow = _shadows(shadow_kind, tmp_path)
    runs = [
        _full_pipeline(engine_name, workload_name, config, shadow=shadow(),
                       cache_lines=cache_lines, crash_fraction=2)
        for engine_name in ("serial", "batched")
    ]
    (ref_report, ref_images, ref_device), (report, images, device) = runs
    _assert_pipelines_equal("batched", ref_report, ref_images,
                            report, images)
    assert (device.memory.write_stats.to_dict()
            == ref_device.memory.write_stats.to_dict())
    assert device.memory.cache.evictions \
        == ref_device.memory.cache.evictions
    assert not device.engine.fallbacks


def _assert_pipelines_equal(engine_name, ref_report, ref_images,
                            report, images):
    for phase in ("initial", "final"):
        ref_val = getattr(ref_report, phase)
        val = getattr(report, phase)
        assert val.n_blocks == ref_val.n_blocks, engine_name
        assert val.failed_blocks == ref_val.failed_blocks, engine_name
        assert val.missing_checksums == ref_val.missing_checksums, \
            engine_name
        _assert_details_equal(ref_val.failure_details,
                              val.failure_details)
    assert report.recovered_blocks == ref_report.recovered_blocks, \
        engine_name
    if ref_report.forensics is None:
        assert report.forensics is None, engine_name
    else:
        assert (report.forensics.to_dict()
                == ref_report.forensics.to_dict()), engine_name
    assert images.keys() == ref_images.keys(), engine_name
    for name, (ref_data, ref_shadow) in ref_images.items():
        data, shadow_bytes = images[name]
        assert data == ref_data, (engine_name, name, "volatile image")
        assert shadow_bytes == ref_shadow, (engine_name, name,
                                            "NVM image")
