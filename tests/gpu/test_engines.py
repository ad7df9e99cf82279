"""Launch-engine parity: serial vs batched, bit for bit.

LP regions are associative (DESIGN.md §3): a launch's final state must
not depend on *how* its blocks were scheduled. The ``batched`` engine
exploits that — vectorized block groups — but the contract is strict
bit-identity with the ``serial`` engine on every observable:
completed blocks, every tally field, every buffer's volatile data and
NVM shadow, the write-back statistics, and (for LP kernels) the
checksum-table contents those buffers hold. These tests pin that
contract across block orders and mid-kernel crashes.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.config import LP_CONFIGS
from repro.errors import (
    LaunchError,
    OutOfBoundsError,
    ReproError,
    TableFullError,
)
from repro.gpu.engine import ENGINES as ENGINE_NAMES
from repro.gpu.engine import make_engine
from repro.gpu.kernel import ExecMode, Kernel, LaunchConfig
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    KVWriteKernel,
    alloc_results,
)
from repro.megakv.store import MegaKVStore
from repro.nvm import MappedShadow, ShardedShadow
from repro.workloads.spmv import SPMVWorkload

ENGINES = ["batched"]

#: An Adler-32 lane depends on store order. Its state folds each block
#: row in that order, so the LP wrapper batches as its inner kernel does.
ORDER_SENSITIVE = repro.LPConfig(
    checksums=(repro.ChecksumKind.ADLER32,),
    reduction=repro.ReductionMode.SEQUENTIAL_MEMORY,
)


def assert_same_launch(ref, other):
    """Bit-identity of two (device, result) pairs from identical launches."""
    dev_a, res_a = ref
    dev_b, res_b = other
    assert res_a.completed_blocks == res_b.completed_blocks
    assert res_a.crashed == res_b.crashed
    for field in dataclasses.fields(res_a.tally):
        val_a = getattr(res_a.tally, field.name)
        val_b = getattr(res_b.tally, field.name)
        assert val_a == val_b, (field.name, val_a, val_b)
    assert dev_a.memory.buffers.keys() == dev_b.memory.buffers.keys()
    for name, buf in dev_a.memory.buffers.items():
        assert np.array_equal(buf.data, dev_b.memory[name].data), name
        if buf.shadow is not None:
            assert np.array_equal(
                buf.shadow, dev_b.memory[name].shadow
            ), name
    assert (dev_a.memory.write_stats.by_reason
            == dev_b.memory.write_stats.by_reason)
    assert (dev_a.memory.write_stats.by_buffer
            == dev_b.memory.write_stats.by_buffer)


def run_spmv(engine, config, order="sequential", crash_after=None,
             fuse=1):
    device = repro.Device(cache_capacity_lines=64, block_order=order,
                          seed=7, engine=engine)
    work = SPMVWorkload(scale="small", seed=3)
    kernel = repro.fuse_blocks(work.setup(device), fuse)
    lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
    crash_plan = None
    if crash_after is not None:
        crash_plan = repro.CrashPlan(after_blocks=crash_after,
                                     persist_fraction=0.3, seed=5)
    result = device.launch(lp_kernel, crash_plan=crash_plan)
    return device, result


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("order", ["sequential", "shuffled"])
def test_spmv_parity(engine, order):
    config = repro.LPConfig.paper_best()
    assert_same_launch(run_spmv("serial", config, order),
                       run_spmv(engine, config, order))


@pytest.mark.parametrize("engine", ENGINES)
def test_spmv_parity_under_crash(engine):
    """A mid-kernel crash truncates identically under every engine."""
    config = repro.LPConfig.paper_best()
    ref = run_spmv("serial", config, crash_after=4)
    got = run_spmv(engine, config, crash_after=4)
    assert ref[1].crashed and got[1].crashed
    assert_same_launch(ref, got)


@pytest.mark.parametrize("engine", ENGINES)
def test_spmv_parity_hash_table_config(engine):
    """Quadratic-table inserts replay in block order: table bits match."""
    config = repro.LPConfig.naive_quadratic()
    assert_same_launch(run_spmv("serial", config, "shuffled"),
                       run_spmv(engine, config, "shuffled"))


def test_crashed_state_recovers_identically():
    """The batched engine's crash image is valid LP recovery input."""
    config = repro.LPConfig.paper_best()
    states = {}
    for engine in ("serial", "batched"):
        device = repro.Device(cache_capacity_lines=64, seed=7,
                              engine=engine)
        work = SPMVWorkload(scale="small", seed=3)
        kernel = work.setup(device)
        lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
        plan = repro.CrashPlan(after_blocks=4, persist_fraction=0.3,
                               seed=5)
        device.launch(lp_kernel, crash_plan=plan)
        report = repro.RecoveryManager(device, lp_kernel).recover()
        work.verify(device)
        states[engine] = (device, report)
    dev_s, rep_s = states["serial"]
    dev_b, rep_b = states["batched"]
    assert rep_s.recovered_blocks == rep_b.recovered_blocks
    for name, buf in dev_s.memory.buffers.items():
        assert np.array_equal(buf.data, dev_b.memory[name].data), name


def run_megakv_search(engine):
    device = repro.Device(cache_capacity_lines=64, engine=engine)
    store = MegaKVStore(device, capacity=512)
    rng = np.random.default_rng(11)
    keys = np.unique(
        rng.integers(1, 2 ** 40, size=400, dtype=np.uint64)
    )
    vals = rng.integers(1, 2 ** 40, size=keys.size, dtype=np.uint64)
    device.launch(KVInsertKernel(store, keys, vals))
    # Half hits, half misses, ragged final block.
    queries = np.concatenate([
        keys[:150],
        rng.integers(2 ** 41, 2 ** 42, size=131, dtype=np.uint64),
    ])
    alloc_results(device, "results", queries.size)
    search = KVSearchKernel(store, queries, "results",
                            threads_per_block=64)
    lp_kernel = repro.LPRuntime(
        device, repro.LPConfig.paper_best()
    ).instrument(search)
    result = device.launch(lp_kernel)
    return device, result, store


@pytest.mark.parametrize("engine", ENGINES)
def test_megakv_search_engine_parity(engine):
    dev_s, res_s, store_s = run_megakv_search("serial")
    dev_b, res_b, store_b = run_megakv_search(engine)
    assert_same_launch((dev_s, res_s), (dev_b, res_b))
    # Host-side probe accounting must match too, including the
    # dedup'd probe width when both hash choices coincide.
    assert (dataclasses.asdict(store_s.stats)
            == dataclasses.asdict(store_b.stats))


# ---------------------------------------------------------------------------
# MEGA-KV write path: insert, delete and mixed write, vectorized.

SHADOWS = ["memory", "mapped", "sharded"]


def run_megakv_writes(engine, config_name, shadow, tmp_path, monkeypatch):
    """Insert, update + insert, delete, mixed write, then validate all
    four — LP instrumented, on a cache small enough that lines evict
    mid-launch.

    Returns every observable the engines must agree on. The launch's
    ``AtomicUnit`` is private to ``Device.launch``, so a recording
    subclass is patched in to keep each launch's per-address histogram;
    the write-back sequence is taken at ``GlobalMemory._write_back``.
    """
    atomic_units = []

    class RecordingAtomicUnit(repro.gpu.device.AtomicUnit):
        def __init__(self, memory):
            super().__init__(memory)
            atomic_units.append(self)

    monkeypatch.setattr(repro.gpu.device, "AtomicUnit", RecordingAtomicUnit)

    heap = None
    if shadow == "mapped":
        heap = MappedShadow.create(tmp_path / f"{engine}.heap.lpnv")
    elif shadow == "sharded":
        heap = ShardedShadow.create(tmp_path / f"{engine}.sharded",
                                    n_shards=4)
    device = repro.Device(cache_capacity_lines=16, engine=engine,
                          shadow=heap)
    writebacks = []
    write_back = device.memory._write_back

    def logged_write_back(line_ids, reason):
        writebacks.append((tuple(line_ids), reason))
        write_back(line_ids, reason)

    monkeypatch.setattr(device.memory, "_write_back", logged_write_back)

    store = MegaKVStore(device, capacity=512)
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(1, 2 ** 40, size=300, dtype=np.uint64))
    fresh = np.unique(rng.integers(2 ** 41, 2 ** 42, size=77,
                                   dtype=np.uint64))
    mixed = rng.permutation(np.concatenate([keys[::2], fresh]))
    doomed = rng.permutation(np.concatenate(
        [keys[1::3], fresh[:20], np.arange(5, 25, dtype=np.uint64)]))
    # The service's launch: updates, claims, deletes of present and of
    # absent keys, every third lane a delete, in no particular order.
    written = rng.permutation(np.concatenate(
        [keys[2::5], fresh[30:50], np.arange(30, 40, dtype=np.uint64)]))
    kernels = [
        KVInsertKernel(store, keys, keys ^ np.uint64(1 << 50), 16),
        KVInsertKernel(store, mixed, mixed ^ np.uint64(1 << 51), 16),
        KVDeleteKernel(store, doomed, 16),
        KVWriteKernel(store, written, np.where(
            np.arange(written.size) % 3 == 0, np.uint64(0),
            written ^ np.uint64(1 << 52)), 16),
    ]
    runtime = repro.LPRuntime(device, LP_CONFIGS[config_name])
    lp_kernels = [runtime.instrument(k, table_name=f"t{i}")
                  for i, k in enumerate(kernels)]
    results = [device.launch(lp) for lp in lp_kernels]
    failures = []
    for lp in lp_kernels:
        lp.reset_validation()
        results.append(device.launch(lp, mode=ExecMode.VALIDATE))
        failures.append(list(lp.validation_failures))
    device.drain()
    observed = {
        "stats": dataclasses.asdict(store.stats),
        "failures": failures,
        "atomics": [(unit.total_ops, dict(unit.per_address))
                    for unit in atomic_units],
        "writebacks": writebacks,
        "fallbacks": dict(device.engine.fallbacks),
    }
    return device, results, observed, heap


@pytest.mark.parametrize("shadow", SHADOWS)
@pytest.mark.parametrize("config_name", list(LP_CONFIGS))
@pytest.mark.parametrize("engine", ENGINES)
def test_megakv_write_path_engine_parity(engine, config_name, shadow,
                                         tmp_path, monkeypatch):
    ref = run_megakv_writes("serial", config_name, shadow, tmp_path,
                            monkeypatch)
    got = run_megakv_writes(engine, config_name, shadow, tmp_path,
                            monkeypatch)
    try:
        # Buffers cover the store arrays and every checksum table.
        for res_ref, res_got in zip(ref[1], got[1]):
            assert_same_launch((ref[0], res_ref), (got[0], res_got))
        want, have = ref[2], got[2]
        assert have["fallbacks"] == {}, "the write path fell back"
        for key in ("stats", "failures", "atomics", "writebacks"):
            assert have[key] == want[key], key
        assert any(total for total, _ in want["atomics"])
        assert len(want["writebacks"]) > 1, "no eviction before the drain"
    finally:
        for _, _, _, heap in (ref, got):
            if heap is not None:
                heap.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_table_full_mid_block_leaves_the_same_partial_state(engine):
    """No free slot left for a request: its group falls back to
    per-block execution and raises at block granularity — block 0
    sealed, block 1 (whose first lane would update key 6) untouched."""
    states = {}
    for name in ("serial", engine):
        device = repro.Device(cache_capacity_lines=4, engine=name)
        store = MegaKVStore(device, capacity=1)  # one 8-slot bucket
        keys = np.arange(1, 7, dtype=np.uint64)
        device.launch(KVInsertKernel(store, keys, keys + 100, 4))
        # 40 and 41 take the last two slots; 42 finds none.
        batch = np.array([3, 40, 41, 5, 6, 42, 2, 43], dtype=np.uint64)
        lp = repro.LPRuntime(device, repro.LPConfig.paper_best()
                             ).instrument(KVInsertKernel(
                                 store, batch, batch + 200, 4))
        with pytest.raises(TableFullError) as err:
            device.launch(lp)
        states[name] = (
            str(err.value), dataclasses.asdict(store.stats),
            {n: (b.data.copy(), b.shadow.copy())
             for n, b in device.memory.buffers.items()},
            device.memory.cache.dirty_lines,
        )
        assert store.host_search(6) == 106 and store.host_search(2) == 102
        assert store.host_search(40) == 240 and store.host_search(3) == 203
        # Only the blocks that landed are counted.
        assert (store.stats.inserts, store.stats.updates) == (6 + 2, 2)
    assert sum(device.engine.fallbacks.values()) == 1
    ref, got = states["serial"], states[engine]
    assert "both candidate buckets of key 42 are full" in ref[0]
    assert got[0] == ref[0] and got[1] == ref[1] and got[3] == ref[3]
    for name, (data, shadow) in ref[2].items():
        assert np.array_equal(got[2][name][0], data), name
        assert np.array_equal(got[2][name][1], shadow), name


@pytest.mark.parametrize("kernel_cls",
                         [KVInsertKernel, KVDeleteKernel, KVWriteKernel])
def test_repeated_key_in_a_write_batch_is_not_batchable(kernel_cls):
    """A write batch that repeats a key is refused when it is built: a
    later lane would have to see what an earlier one to the same key
    stored or cleared. Any batch that is built is batchable."""
    device = repro.Device()
    store = MegaKVStore(device, capacity=64)
    distinct = np.array([4, 9, 2], dtype=np.uint64)
    repeated = np.array([4, 9, 4], dtype=np.uint64)
    extra = {KVInsertKernel: (distinct,), KVDeleteKernel: (),
             KVWriteKernel: (np.array([4, 0, 2], dtype=np.uint64),)
             }[kernel_cls]
    assert kernel_cls(store, distinct, *extra).batchable
    with pytest.raises(LaunchError, match="repeats a key"):
        kernel_cls(store, repeated, *extra)
    # Reads never conflict: a search batch may repeat keys.
    alloc_results(device, "r", 3)
    assert KVSearchKernel(store, repeated, "r").batchable


def test_fallback_is_counted_under_the_configured_engine():
    """A kernel the batched engine cannot vectorize still runs — per
    block — but visibly: counted as a fallback, and its blocks under
    ``engine="batched"``, not under a ``serial`` nobody configured.
    A fused kernel has no batch body of its own."""
    config = repro.LPConfig.paper_best()
    with obs.recording(trace=False) as rec:
        device, result = run_spmv("batched", config, fuse=2)
        counters = rec.metrics_snapshot()["counters"]
    kernel_name = result.kernel_name
    assert device.engine.fallbacks == {kernel_name: 1}
    by_engine = {key: value for key, value in counters.items()
                 if key.startswith("engine.blocks.completed")}
    assert len(by_engine) == 1
    (key, blocks), = by_engine.items()
    assert "batched" in key and "serial" not in key
    assert blocks == result.n_completed
    fallbacks = {key: value for key, value in counters.items()
                 if key.startswith("engine.fallbacks")}
    assert list(fallbacks.values()) == [1]
    (key,) = fallbacks
    assert "batched" in key and kernel_name in key


# ---------------------------------------------------------------------------
# Engine mechanics.


def test_batched_folds_order_sensitive_checksums():
    """Order-sensitive lanes (Adler-32) batch, bit for bit, with no
    fallback: each block row folds in its store order."""
    config = ORDER_SENSITIVE
    batched = run_spmv("batched", config)
    assert_same_launch(run_spmv("serial", config), batched)
    assert batched[0].engine.fallbacks == {}


class _OverrunKernel(Kernel):
    """Block ``b`` stores four words at ``4 * b``; the buffer is two
    words short, so the last block's row runs past its end."""

    name = "overrun"
    protected_buffers = ("out",)
    batchable = True
    N_BLOCKS = 8

    def launch_config(self):
        return LaunchConfig.linear(self.N_BLOCKS, 4)

    @staticmethod
    def _idx(block_ids):
        return np.asarray(block_ids)[:, None] * 4 + np.arange(4)

    def run_block_batch(self, bctx):
        bctx.st("out", self._idx(bctx.block_ids),
                np.repeat(bctx.block_ids[:, None] + 1, 4, axis=1))


@pytest.mark.parametrize("engine", ENGINES)
def test_out_of_bounds_row_lands_nothing_of_its_group(engine):
    """The one-pass apply checks every record's bounds before anything
    lands: an overrunning last row leaves memory, cache and write
    statistics exactly as the group found them (serial, by contrast,
    has stored every earlier block when it raises)."""
    after = {}
    for name in ("serial", engine):
        device = repro.Device(cache_capacity_lines=1, engine=name)
        mem = device.memory
        out = mem.alloc("out", (4 * _OverrunKernel.N_BLOCKS - 2,), np.int32)
        lp = repro.LPRuntime(device).instrument(_OverrunKernel())
        mem.write(out, np.array([0]), np.array([-1], dtype=np.int32))

        def snapshot():
            return (
                {n: (b.data.tobytes(), b.shadow.tobytes())
                 for n, b in mem.buffers.items()},
                mem.cache.dirty_lines, mem.cache.evictions,
                mem.write_stats.to_dict(),
            )

        before = snapshot()
        with pytest.raises(OutOfBoundsError):
            device.launch(lp)
        after[name] = (before, snapshot())
    assert after[engine][1] == after[engine][0]
    assert after["serial"][1] != after["serial"][0]


def test_duplicate_block_ids_rejected():
    device = repro.Device()
    kernel = SPMVWorkload(scale="tiny", seed=3).setup(device)
    with pytest.raises(LaunchError, match="duplicate block ids"):
        device.launch(kernel, block_ids=[0, 1, 1])


def test_make_engine_resolution():
    """Two names, one choice: vectorize or not. No name is ``batched``;
    ``serial`` runs only where it is named."""
    def choices(engine):
        return engine.name, engine.vectorize, engine.group_size

    assert choices(make_engine(None)) == ("batched", True, 256)
    assert choices(make_engine("serial")) == ("serial", False, 256)
    assert choices(make_engine("batched")) == ("batched", True, 256)
    engine = make_engine("batched")
    assert make_engine(engine) is engine
    with pytest.raises(LaunchError, match="unknown launch engine"):
        make_engine("warp-speculative")


def test_parallel_is_an_unknown_engine_like_any_other():
    """No alias, no shim: every constructor that takes an engine name
    refuses it with the typed error, whose text lists the valid names."""
    from repro.service import ServiceConfig
    from repro.service.core import ServiceCore

    doors = [
        lambda: make_engine("parallel"),
        lambda: repro.Device(engine="parallel"),
        lambda: ServiceCore(ServiceConfig(engine="parallel")),
    ]
    for door in doors:
        with pytest.raises(ReproError, match="unknown launch engine") as err:
            door()
        assert isinstance(err.value, LaunchError)
        assert all(repr(name) in str(err.value) for name in ENGINE_NAMES)
    assert list(ENGINE_NAMES) == ["serial", "batched"]
    with pytest.raises(TypeError):
        make_engine("batched", jobs=2)


def test_device_accepts_engine_name():
    device = repro.Device(engine="batched")
    assert device.engine.name == "batched"


# ---------------------------------------------------------------------------
# The shape table: engine x launch -> cell.


def _shape_case(case, device):
    """``(kernel, block_ids)`` of one launch shape on ``device``."""
    kernel = SPMVWorkload(scale="small", seed=3).setup(device)
    if case == "unsafe":  # the EP wrapper's body takes only a row
        return repro.EPRuntime(device).instrument(kernel), None
    if case == "fused":  # and so does a fused kernel's
        kernel = repro.fuse_blocks(kernel, 2)
    # The LP wrapper is ``batchable`` iff its inner kernel is, whatever
    # its checksum lanes — every workload kernel is.
    config = (ORDER_SENSITIVE if case == "order_sensitive"
              else repro.LPConfig.paper_best())
    lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
    return lp_kernel, ([0] if case == "one_block" else None)


#: engine -> launch -> (cell, is it a fallback).
SHAPE_TABLE = {
    "serial": {
        "batchable": ("scalar", False),
        "order_sensitive": ("scalar", False),
        "unsafe": ("scalar", False),
        "fused": ("scalar", False),
        "one_block": ("scalar", False),
    },
    "batched": {
        "batchable": ("vector", False),
        "order_sensitive": ("vector", False),
        "unsafe": ("scalar", True),
        "fused": ("scalar", True),
        "one_block": ("vector", False),
    },
}


@pytest.mark.parametrize("case", list(SHAPE_TABLE["serial"]))
@pytest.mark.parametrize("engine_name", list(SHAPE_TABLE))
def test_launch_shape_table(engine_name, case):
    """Which of the two cells a launch runs in is decided per launch,
    from the kernel's ``batchable`` flag — read back here from the
    spans each cell emits — and only blocks that ran scalar under the
    vectorizing engine count as a fallback. Whatever the cell, the
    launch leaves exactly what ``serial`` leaves."""
    engine = make_engine(engine_name)
    with obs.recording(trace=True) as rec:
        device = repro.Device(cache_capacity_lines=64, engine=engine)
        kernel, block_ids = _shape_case(case, device)
        result = device.launch(kernel, block_ids=block_ids)
        events = {event.name for event in rec.trace.sink.events}
    cells = {
        "scalar": "engine.blocks" in events,
        "vector": "engine.group" in events,
    }
    want_cell, want_fallback = SHAPE_TABLE[engine_name][case]
    assert [cell for cell, ran in cells.items() if ran] == [want_cell]
    assert engine.fallbacks == ({kernel.name: 1} if want_fallback else {})
    ref = repro.Device(cache_capacity_lines=64, engine="serial")
    ref_kernel, _ = _shape_case(case, ref)
    assert_same_launch((ref, ref.launch(ref_kernel, block_ids=block_ids)),
                       (device, result))
