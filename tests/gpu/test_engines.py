"""Launch-engine parity: serial vs parallel vs batched, bit for bit.

LP regions are associative (DESIGN.md §3): a launch's final state must
not depend on *how* its blocks were scheduled. The engines exploit that
— process-parallel chunks, vectorized block groups — but the contract
is strict bit-identity with the ``serial`` engine on every observable:
completed blocks, every tally field, every buffer's volatile data and
NVM shadow, the write-back statistics, and (for LP kernels) the
checksum-table contents those buffers hold. These tests pin that
contract across block orders and mid-kernel crashes.
"""

import dataclasses
import os
import signal

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.config import LP_CONFIGS
from repro.errors import LaunchError
from repro.gpu import shm
from repro.gpu.engine import make_engine
from repro.errors import TableFullError
from repro.gpu.kernel import ExecMode
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    alloc_results,
)
from repro.megakv.store import MegaKVStore
from repro.nvm import MappedShadow, ShardedShadow
from repro.workloads.spmv import SPMVWorkload

ENGINES = ["parallel", "batched"]

#: An Adler-32 lane depends on store order, so its LP wrapper is not
#: ``batchable`` whatever the inner kernel: the launch stays scalar.
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


def run_spmv(engine, config, order="sequential", crash_after=None):
    device = repro.Device(cache_capacity_lines=64, block_order=order,
                          seed=7, engine=engine)
    work = SPMVWorkload(scale="small", seed=3)
    kernel = work.setup(device)
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
# MEGA-KV write path: insert and delete, vectorized.

SHADOWS = ["memory", "mapped", "sharded"]


def run_megakv_writes(engine, config_name, shadow, tmp_path, monkeypatch):
    """Insert, update + insert, delete, then validate all three — LP
    instrumented, on a cache small enough that lines evict mid-launch.

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
    kernels = [
        KVInsertKernel(store, keys, keys ^ np.uint64(1 << 50), 16),
        KVInsertKernel(store, mixed, mixed ^ np.uint64(1 << 51), 16),
        KVDeleteKernel(store, doomed, 16),
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
    per-request execution and raises with exactly the earlier requests
    applied — block 0 sealed, block 1 cut after its first update."""
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
        assert store.host_search(6) == 206 and store.host_search(2) == 102
    assert sum(device.engine.fallbacks.values()) == 1
    ref, got = states["serial"], states[engine]
    assert got[0] == ref[0] and got[1] == ref[1] and got[3] == ref[3]
    for name, (data, shadow) in ref[2].items():
        assert np.array_equal(got[2][name][0], data), name
        assert np.array_equal(got[2][name][1], shadow), name


@pytest.mark.parametrize("kernel_cls", [KVInsertKernel, KVDeleteKernel])
def test_repeated_key_in_a_write_batch_is_not_batchable(kernel_cls):
    """Routed by a property of the input: a later request must see what
    an earlier one to the same key stored or cleared."""
    device = repro.Device()
    store = MegaKVStore(device, capacity=64)
    distinct = np.array([4, 9, 2], dtype=np.uint64)
    repeated = np.array([4, 9, 4], dtype=np.uint64)
    extra = (distinct,) if kernel_cls is KVInsertKernel else ()
    assert kernel_cls(store, distinct, *extra).batchable
    assert not kernel_cls(store, repeated, *extra).batchable
    # Reads never conflict: a search batch may repeat keys.
    alloc_results(device, "r", 3)
    assert KVSearchKernel(store, repeated, "r").batchable


def test_fallback_is_counted_under_the_configured_engine():
    """A kernel the batched engine cannot vectorize still runs — per
    block — but visibly: counted as a fallback, and its blocks under
    ``engine="batched"``, not under a ``serial`` nobody configured."""
    config = ORDER_SENSITIVE
    with obs.recording(trace=False) as rec:
        device, result = run_spmv("batched", config)
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


def test_parallel_falls_back_for_unsafe_kernels():
    """EP kernels (clwb, cache-state dependent) must run serially."""
    device = repro.Device(cache_capacity_lines=64, engine="parallel")
    work = SPMVWorkload(scale="tiny", seed=3)
    kernel = work.setup(device)
    ep_kernel = repro.EPRuntime(device).instrument(kernel)
    assert not getattr(ep_kernel, "parallel_safe", True)
    device.launch(ep_kernel)
    work.verify(device)


def test_batched_requires_commutative_checksums():
    """Order-sensitive lanes (Adler-32) disable batching, not correctness."""
    config = ORDER_SENSITIVE
    assert_same_launch(run_spmv("serial", config),
                       run_spmv("batched", config))


def test_duplicate_block_ids_rejected():
    device = repro.Device()
    kernel = SPMVWorkload(scale="tiny", seed=3).setup(device)
    with pytest.raises(LaunchError, match="duplicate block ids"):
        device.launch(kernel, block_ids=[0, 1, 1])


def test_make_engine_resolution():
    """Three names, two choices each: (vectorize, pool of ``jobs``)."""
    def choices(engine):
        return engine.name, engine.vectorize, engine.jobs

    assert choices(make_engine(None)) == ("serial", False, 1)
    assert choices(make_engine("serial")) == ("serial", False, 1)
    assert choices(make_engine("batched")) == ("batched", True, 1)
    assert choices(make_engine("parallel", jobs=3)) == ("parallel", True, 3)
    engine = make_engine("parallel", jobs=3)
    assert make_engine(engine) is engine
    with pytest.raises(LaunchError, match="unknown launch engine"):
        make_engine("warp-speculative")


def test_device_accepts_engine_name():
    device = repro.Device(engine="batched")
    assert device.engine.name == "batched"


def test_parallel_jobs_default_is_container_aware():
    assert make_engine("parallel").jobs == shm.cpu_budget()
    assert make_engine("parallel", jobs=0).jobs == shm.cpu_budget()
    with pytest.raises(LaunchError, match="jobs >= 1"):
        make_engine("parallel", jobs=-1)


def test_jobs_is_a_worker_count_and_nothing_else():
    """An engine with no pool ignores ``jobs``; in particular it is not
    the batched engine's group size."""
    for name in ("serial", "batched"):
        engine = make_engine(name, jobs=2)
        assert (engine.jobs, engine.group_size) == (1, 256)
    assert make_engine("parallel", jobs=2).group_size == 256


# ---------------------------------------------------------------------------
# The shape table: engine x launch -> cell.


def _shape_case(case, device):
    """``(kernel, block_ids)`` of one launch shape on ``device``."""
    kernel = SPMVWorkload(scale="small", seed=3).setup(device)
    if case == "unsafe":  # EP logging reads shared cache state
        return repro.EPRuntime(device).instrument(kernel), None
    # An order-sensitive lane leaves the LP wrapper op-loggable but not
    # ``batchable`` — every workload kernel itself is.
    config = (ORDER_SENSITIVE if case == "parallel_safe"
              else repro.LPConfig.paper_best())
    lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
    return lp_kernel, ([0] if case == "one_block" else None)


#: engine -> launch -> (cell, is it a fallback). ``parallel`` is at
#: ``jobs=2``: a launch pools from four blocks up.
SHAPE_TABLE = {
    "serial": {
        "batchable": ("scalar-inline", False),
        "parallel_safe": ("scalar-inline", False),
        "unsafe": ("scalar-inline", False),
        "one_block": ("scalar-inline", False),
    },
    "batched": {
        "batchable": ("vector-inline", False),
        "parallel_safe": ("scalar-inline", True),
        "unsafe": ("scalar-inline", True),
        "one_block": ("vector-inline", False),
    },
    "parallel": {
        "batchable": ("vector-pool", False),
        "parallel_safe": ("scalar-pool", False),
        "unsafe": ("scalar-inline", True),
        "one_block": ("vector-inline", False),
    },
}


@pytest.mark.parametrize("case", list(SHAPE_TABLE["serial"]))
@pytest.mark.parametrize("engine_name", list(SHAPE_TABLE))
def test_launch_shape_table(engine_name, case):
    """Which of the four cells a launch runs in is decided per launch,
    from the kernel's flags and the launch's length — read back here
    from the spans each cell emits — and only blocks that ran
    scalar-inline under a non-serial engine count as a fallback."""
    engine = (_forked_engine() if engine_name == "parallel"
              else make_engine(engine_name, jobs=2))
    with engine, obs.recording(trace=True) as rec:
        device = repro.Device(cache_capacity_lines=64, engine=engine)
        kernel, block_ids = _shape_case(case, device)
        device.launch(kernel, block_ids=block_ids)
        events = {event.name: event.args for event in rec.trace.sink.events}
    cells = {
        "scalar-inline": "engine.blocks" in events,
        "vector-inline": "engine.group" in events,
        "scalar-pool": not events.get("engine.workers",
                                      {}).get("vectorized", True),
        "vector-pool": events.get("engine.workers",
                                  {}).get("vectorized", False),
    }
    want_cell, want_fallback = SHAPE_TABLE[engine_name][case]
    assert [cell for cell, ran in cells.items() if ran] == [want_cell]
    assert engine.fallbacks == ({kernel.name: 1} if want_fallback else {})
    assert not shm.leaked_segments()


# ---------------------------------------------------------------------------
# Shared-memory pool mechanics.


def _forked_engine(jobs=2):
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("no fork on this platform")
    return make_engine("parallel", jobs=jobs)


@pytest.mark.parametrize("config_name", ["paper_best", "naive_quadratic"])
def test_forked_pool_vectorized_parity(config_name):
    """jobs=2 forces real worker processes through the batched path."""
    config = getattr(repro.LPConfig, config_name)()
    engine = _forked_engine()
    try:
        ref = run_spmv("serial", config, "shuffled")
        got = run_spmv(engine, config, "shuffled")
        assert engine._pool is not None, "pool path was not exercised"
        assert_same_launch(ref, got)
    finally:
        engine.close()
    assert not shm.leaked_segments()


def test_forked_pool_block_granular_parity():
    """Adler-32 lanes disable batching: workers ship per-block op logs."""
    config = ORDER_SENSITIVE
    engine = _forked_engine()
    try:
        ref = run_spmv("serial", config)
        got = run_spmv(engine, config)
        assert engine._pool is not None, "pool path was not exercised"
        assert_same_launch(ref, got)
    finally:
        engine.close()
    assert not shm.leaked_segments()


def test_engine_is_reentrant_and_reuses_its_pool():
    """Two launches on one engine instance: one fork, identical results."""
    engine = _forked_engine()
    try:
        device = repro.Device(cache_capacity_lines=64, seed=7,
                              engine=engine)
        work = SPMVWorkload(scale="small", seed=3)
        kernel = work.setup(device)
        lp_kernel = repro.LPRuntime(
            device, repro.LPConfig.paper_best()).instrument(kernel)
        device.launch(lp_kernel)
        first_pool = engine._pool
        assert first_pool is not None
        first_pids = [p.pid for p, _ in first_pool.workers]
        device.launch(lp_kernel)
        assert engine._pool is first_pool, "pool must persist across launches"
        assert [p.pid for p, _ in engine._pool.workers] == first_pids
        work.verify(device)
    finally:
        engine.close()
    assert not shm.leaked_segments()


def test_sigkilled_worker_falls_back_and_leaks_nothing():
    """Killing a pool worker must not lose blocks or /dev/shm segments."""
    engine = _forked_engine()
    with obs.recording(trace=False) as rec:
        try:
            device = repro.Device(cache_capacity_lines=64, seed=7,
                                  engine=engine)
            work = SPMVWorkload(scale="small", seed=3)
            kernel = work.setup(device)
            lp_kernel = repro.LPRuntime(
                device, repro.LPConfig.paper_best()).instrument(kernel)
            device.launch(lp_kernel)
            pool = engine._pool
            assert pool is not None
            victim = pool.workers[0][0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)

            result = device.launch(lp_kernel)
            assert engine._pool is None, "broken pool must be torn down"
            assert result.completed_blocks == list(
                range(kernel.launch_config().n_blocks))
            work.verify(device)
            # The serial continuation is a fallback like any other:
            # counted once for the launch, under the configured engine.
            assert engine.fallbacks == {lp_kernel.name: 1}
            counters = rec.metrics_snapshot()["counters"]
            assert counters[
                "engine.fallbacks{engine=parallel,"
                f"kernel={lp_kernel.name}}}"] == 1
        finally:
            engine.close()
        shm.reap_orphans()
        assert not shm.leaked_segments()
        # the live segment gauges must agree with the empty registry
        assert shm.publish_segment_gauges(rec.metrics) == (0, 0)
        snap = rec.metrics_snapshot()["gauges"]
        assert snap["engine.shm.segments"] == 0
        assert snap["engine.shm.segment_bytes"] == 0


def test_forked_pool_over_a_sharded_heap_keeps_parity(tmp_path):
    """Pool workers are sealed and never touch a shard file, so where a
    buffer's shadow lives cannot change what a pooled launch computes
    or persists: same results, same shard bytes as serial.
    """
    from repro.nvm.sharded import ShardedShadow

    config = repro.LPConfig.paper_best()

    def run(engine, path):
        heap = ShardedShadow.create(path, n_shards=4)
        device = repro.Device(cache_capacity_lines=64, seed=7,
                              engine=engine, shadow=heap)
        work = SPMVWorkload(scale="small", seed=3)
        kernel = work.setup(device)
        lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
        result = device.launch(lp_kernel)
        device.drain()
        heap.close()
        return device, result

    engine = _forked_engine()
    try:
        ref = run("serial", tmp_path / "a.lpnv")
        got = run(engine, tmp_path / "b.lpnv")
        assert engine._pool is not None, "pool path was not exercised"
        assert_same_launch(ref, got)
    finally:
        engine.close()
    assert not shm.leaked_segments()
    # The two heaps converged to bit-identical persistent images.
    for k in range(4):
        a = (tmp_path / f"a.lpnv.shard{k}").read_bytes()
        b = (tmp_path / f"b.lpnv.shard{k}").read_bytes()
        assert a == b, f"shard {k} diverged between serial and pooled"


def test_engine_close_unlinks_every_segment():
    engine = _forked_engine()
    config = repro.LPConfig.paper_best()
    with obs.recording(trace=False) as rec:
        run_spmv(engine, config)
        assert engine._pool is not None
        created = {engine._pool.image_seg.name, engine._pool.slot_seg.name,
                   engine._pool.arena_seg.name}
        assert created <= set(shm.leaked_segments())
        gauges = rec.metrics_snapshot()["gauges"]
        assert gauges["engine.shm.segments"] >= 3
        assert gauges["engine.shm.segment_bytes"] >= sum(
            seg.nbytes for seg in (engine._pool.image_seg,
                                   engine._pool.slot_seg,
                                   engine._pool.arena_seg))
        engine.close()
        assert not created & set(shm.leaked_segments())
        assert engine._pool is None
        # unlinking the last segment drove the gauges back to zero
        gauges = rec.metrics_snapshot()["gauges"]
        assert gauges["engine.shm.segments"] == 0
        assert gauges["engine.shm.segment_bytes"] == 0
