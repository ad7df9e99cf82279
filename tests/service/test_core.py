"""ServiceCore: window coalescing, the flush path, and resume.

The unclean-stop tests are the in-process mirror of the SIGKILL
scenario (:mod:`tests.service.unclean`): the window runs through the
real ``execute_window`` and dies before its drain, ``close(drain=False)``
abandons the write-back cache with the request WAL still armed,
exactly what the kernel does to a SIGKILLed daemon, and the next
:class:`ServiceCore` on the same heap must replay, recover, and
converge.
"""

import json
import math
import os
import struct
import zlib

import numpy as np
import pytest

from repro.core.runtime import LPRuntime
from repro.core.tables import make_table
from repro.errors import ConfigError, HeapLayoutError, ServiceError
from repro.gpu.device import Device
from repro.megakv import KVInsertKernel, MegaKVStore
from repro.nvm import create_heap
from repro.service.core import (
    STORE_NAME,
    THREADS_PER_BLOCK,
    ServiceConfig,
    ServiceCore,
    partition_window,
)
from repro.service.reqlog import (
    MAGIC,
    SCHEMA_VERSION,
    RequestLog,
    log_path_for,
)
from tests.service.unclean import apply_reference as _apply_reference
from tests.service.unclean import crash_before_drain, crash_window
from tests.service.unclean import requests as _reqs


# ----------------------------------------------------------------------
# partition_window
# ----------------------------------------------------------------------

def _values(plan):
    """The value each GET of a plan is answered with before any search
    ran: its own, or ``("lookup", key)`` for one that waits."""
    keys = list(plan.lookups)
    waiting = {id(doc): ("lookup", keys[slot])
               for doc, slot in plan.deferred}
    return [waiting.get(id(doc), doc.get("value"))
            for req, doc in plan.responses if req.op == "get"]


def test_partition_disjoint_ops_stay_in_one_batch():
    plan = partition_window(_reqs(
        ("put", 1, 10), ("put", 2, 20), ("delete", 3, None),
        ("get", 4, None)))
    assert plan.launches() == [("write", [1, 2, 3], [10, 20, 0])]
    assert list(plan.lookups) == [4]
    assert (plan.superseded_writes, plan.local_gets) == (0, 0)


def test_partition_write_after_write_keeps_the_last():
    plan = partition_window(_reqs(
        ("put", 1, 10), ("put", 1, 11)))
    assert plan.launches() == [("write", [1], [11])]
    assert plan.superseded_writes == 1
    assert [doc for _, doc in plan.responses] == \
        [{"ok": True, "op": "put"}] * 2


def test_partition_read_after_write_is_answered_from_the_window():
    plan = partition_window(_reqs(
        ("put", 1, 10), ("get", 1, None)))
    assert not plan.lookups and plan.local_gets == 1
    assert _values(plan) == [10]


def test_partition_write_after_read_reads_pre_window_state():
    plan = partition_window(_reqs(
        ("get", 1, None), ("delete", 1, None)))
    assert _values(plan) == [("lookup", 1)]
    assert plan.launches() == [("write", [1], [0])]


def test_partition_duplicate_reads_coexist():
    plan = partition_window(_reqs(
        ("get", 1, None), ("get", 1, None), ("get", 1, None)))
    assert list(plan.lookups) == [1]
    assert _values(plan) == [("lookup", 1)] * 3


def test_partition_same_key_chains_follow_arrival_order():
    plan = partition_window(_reqs(
        ("get", 1, None), ("put", 1, 10), ("get", 1, None),
        ("delete", 1, None), ("get", 1, None), ("put", 2, 20),
        ("delete", 2, None), ("put", 2, 21)))
    assert _values(plan) == [("lookup", 1), 10, None]
    # Key 1 was written first, but its last write is a delete: the
    # write's lanes run puts first.
    assert plan.launches() == [("write", [2, 1], [21, 0])]
    assert (plan.superseded_writes, plan.local_gets) == (3, 2)


def test_partition_rejects_unbatchable_op():
    with pytest.raises(ServiceError):
        partition_window(_reqs(("ping", 1, None)))


# ----------------------------------------------------------------------
# execute_window
# ----------------------------------------------------------------------

@pytest.fixture
def volatile_core():
    core = ServiceCore(ServiceConfig(capacity=256, cache_lines=64))
    yield core
    core.close()


def _window(core, *ops):
    """Run one window; returns ``{req_key: response}`` per op index."""
    reqs = _reqs(*ops)
    result = core.execute_window(reqs)
    assert len(result.responses) == len(reqs)
    return result


def test_window_read_your_writes_within_one_window(volatile_core):
    result = _window(volatile_core,
                     ("put", 1, 10), ("get", 1, None),
                     ("put", 1, 11), ("get", 1, None))
    by_req = {id(req): doc for req, doc in result.responses}
    reqs = [req for req, _ in result.responses]
    gets = [doc for req, doc in result.responses if req.op == "get"]
    assert [doc["value"] for doc in gets] == [10, 11]
    # One write of the last value; both GETs answered from the window.
    assert (result.sub_batches, result.launches) == (1, 1)
    assert (result.superseded_writes, result.local_gets) == (1, 2)
    assert volatile_core.store.contents() == {1: 11}
    assert all(by_req[id(r)]["ok"] for r in reqs)


def test_window_delete_then_get_misses(volatile_core):
    _window(volatile_core, ("put", 5, 50))
    result = _window(volatile_core, ("delete", 5, None), ("get", 5, None))
    get_doc = [doc for req, doc in result.responses
               if req.op == "get"][0]
    assert get_doc["value"] is None


def test_window_get_of_absent_key_is_none_not_error(volatile_core):
    result = _window(volatile_core, ("get", 999, None))
    doc = result.responses[0][1]
    assert doc["ok"] and doc["value"] is None


def test_window_store_full_fails_whole_window(volatile_core):
    cap = volatile_core.store.n_slots // 8
    too_many = [("put", k + 1, 1) for k in range(cap + 1)]
    result = _window(volatile_core, *too_many)
    assert all(not doc["ok"] and doc["error"] == "store_full"
               for _, doc in result.responses)
    assert result.launches == 0
    # The store still works afterwards.
    ok = _window(volatile_core, ("put", 1, 1), ("get", 1, None))
    assert all(doc["ok"] for _, doc in ok.responses)


# ----------------------------------------------------------------------
# Durable lifecycle: clean restart and unclean-stop resume
# ----------------------------------------------------------------------

def _make_core(tmp_path, shards):
    heap = (tmp_path / "sharded" / "heap.lpnv" if shards
            else tmp_path / "heap.lpnv")
    return ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                       heap_path=heap, shards=shards), heap


@pytest.mark.parametrize("shards", [0, 1, 4],
                         ids=["mapped", "1-shard", "sharded"])
def test_clean_restart_preserves_state(tmp_path, shards):
    core, heap = _make_core(tmp_path, shards)
    ops = [("put", 1, 10), ("put", 2, 20), ("delete", 1, None),
           ("put", 3, 30)]
    core.execute_window(_reqs(*ops))
    core.close(drain=True)

    reopened = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                           heap_path=heap, shards=shards)
    try:
        assert reopened.resume_info["resumed"]
        assert reopened.resume_info["replayed_launches"] == 0
        assert reopened.store.contents() == _apply_reference({}, ops)[0]
    finally:
        reopened.close()


@pytest.mark.parametrize("shards", [0, 1, 4],
                         ids=["mapped", "1-shard", "sharded"])
def test_unclean_stop_replays_wal_and_converges(tmp_path, shards):
    core, heap = _make_core(tmp_path, shards)
    acked = [("put", k, k * 100) for k in range(1, 21)]
    core.execute_window(_reqs(*acked))  # acked: drained + WAL cleared

    # The in-flight window: logged and launched by the service itself,
    # but the checkpoint never drains, like a SIGKILL mid-window.
    inflight = [("put", 1, 111), ("put", 30, 300), ("delete", 2, None),
                ("get", 5, None), ("put", 5, 555)]
    crash_before_drain(core, *inflight)
    assert RequestLog(log_path_for(heap)).read()

    reopened = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                           heap_path=heap, shards=shards)
    try:
        info = reopened.resume_info
        assert info["resumed"]
        assert info["replayed_launches"] >= 1
        expected, _ = _apply_reference(_apply_reference({}, acked)[0],
                                       inflight)
        assert reopened.store.contents() == expected
        # The WAL is retired: a second restart replays nothing.
        assert RequestLog(log_path_for(heap)).read() == []

        # And the service keeps serving after the resume.
        result = reopened.execute_window(_reqs(("get", 5, None),
                                               ("put", 40, 400)))
        docs = {req.op: doc for req, doc in result.responses}
        assert docs["get"]["value"] == 555
        assert docs["put"]["ok"]
    finally:
        reopened.close()


def test_unacked_window_is_idempotent_under_client_retry(tmp_path):
    """Crash before the ack, then the client retries the same ops —
    the end state must equal a single application."""
    core, heap = _make_core(tmp_path, shards=0)
    inflight = [("put", 7, 70), ("delete", 8, None)]
    crash_before_drain(core, *inflight)

    reopened = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                           heap_path=heap)
    try:
        reopened.execute_window(_reqs(*inflight))  # the retry
        assert reopened.store.contents() == {7: 70}
    finally:
        reopened.close()


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_read_only_window_touches_nothing_durable(tmp_path, monkeypatch,
                                                  shards):
    core, heap = _make_core(tmp_path, shards)
    try:
        core.execute_window(_reqs(("put", 1, 10), ("put", 2, 20),
                                  ("delete", 2, None)))
        # The WAL file always exists (written in place): it is one of
        # the files a GET-only window must leave byte-for-byte alone.
        files = core.heap.extent_paths() + [heap, log_path_for(heap)]
        before = [path.read_bytes() for path in files]
        for step in ("sync", "arm"):
            monkeypatch.setattr(core.heap, step, lambda *a, _s=step: (
                pytest.fail(f"a GET-only window called heap.{_s}")))

        result = core.execute_window(_reqs(
            ("get", 1, None), ("get", 2, None), ("get", 1, None),
            ("get", 3, None)))

        assert [doc["value"] for _, doc in result.responses] == \
            [10, None, 10, None]
        assert (result.launches, result.drained_lines) == (1, 0)
        assert [path.read_bytes() for path in files] == before
        assert RequestLog(log_path_for(heap)).read() == []
    finally:
        monkeypatch.undo()
        core.close()


def _directory(core):
    return [(e.name, e.base_addr, e.nbytes)
            for e in core.heap.entries.values()]


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_serving_never_grows_the_heap(tmp_path, monkeypatch, shards):
    """2 000 mixed windows: the allocator cursor, the directory, the
    disk blocks of every extent and the size of the WAL file stay where
    window 10 left them, and the heap sees no attach / detach (it used
    to gain ~1 KiB per window)."""
    core, heap = _make_core(tmp_path, shards)
    rng = np.random.default_rng(5)
    keys = range(1, 33)

    def window():
        ops = []
        for _ in range(12):
            op = ("get", "put", "put", "delete")[rng.integers(4)]
            ops.append((op, int(rng.choice(keys)),
                        int(rng.integers(1, 2**62)) if op == "put"
                        else None))
        return ops

    def footprint():
        return (core.device.memory.alloc_cursor, _directory(core),
                [os.stat(path).st_blocks
                 for path in core.heap.extent_paths()],
                os.stat(log_path_for(heap)).st_size,
                sorted(os.listdir(heap.parent)))

    try:
        oracle, _ = _apply_reference({}, [("put", k, k) for k in keys])
        core.execute_window(_reqs(*[("put", k, k) for k in keys]))
        for _ in range(9):
            ops = window()
            core.execute_window(_reqs(*ops))
            _apply_reference(oracle, ops)
        settled = footprint()
        for step in ("attach", "detach"):
            monkeypatch.setattr(core.heap, step, lambda *a, _s=step: (
                pytest.fail(f"steady-state serving called heap.{_s}")))
        for _ in range(1990):
            ops = window()
            core.execute_window(_reqs(*ops))
            _apply_reference(oracle, ops)
        assert footprint() == settled
        assert core.store.contents() == oracle
    finally:
        monkeypatch.undo()
        core.close()


# ----------------------------------------------------------------------
# Restart across a configuration change
# ----------------------------------------------------------------------

_BASE = dict(capacity=512, cache_lines=32)
_OPS = [("put", 1, 10), ("put", 2, 20), ("delete", 1, None)]


@pytest.mark.parametrize("change,dropped,attached", [
    (dict(config="quadratic"), 1, 2),   # lanes -> keys + lanes
    (dict(config="cuckoo"), 1, 4),
    (dict(max_batch=16), 1, 1),         # two regions -> one
    (dict(max_batch=100), 0, 0),        # still two regions: same table
], ids=["quadratic", "cuckoo", "max-batch-16", "max-batch-100"])
@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_clean_restart_under_another_config_reseats_the_tables(
        tmp_path, shards, change, dropped, attached):
    core, heap = _make_core(tmp_path, shards)
    core.execute_window(_reqs(*_OPS))
    core.close()

    reopened = ServiceCore(ServiceConfig(**_BASE, **change), heap_path=heap)
    info = reopened.resume_info
    assert (info["detached_orphans"], info["reattached_buffers"]) == \
        (dropped, attached)
    assert reopened.store.contents() == {2: 20}
    reopened.execute_window(_reqs(("put", 3, 30), ("delete", 2, None)))
    # And the re-seated table carries a crashed window like any other.
    crash_before_drain(reopened, ("put", 4, 40), ("delete", 3, None))

    again = ServiceCore(ServiceConfig(**_BASE, **change), heap_path=heap)
    try:
        info = again.resume_info
        assert (info["replayed_launches"], info["detached_orphans"],
                info["reattached_buffers"]) == (1, 0, 0)
        assert again.store.contents() == {4: 40}
    finally:
        again.close()


@pytest.mark.parametrize("base,change,error", [
    (_BASE, dict(config="quadratic"), HeapLayoutError),
    (_BASE, dict(max_batch=16), HeapLayoutError),
    # ceil(4 / 64) == ceil(2 / 64): the layout agrees, the bound does not.
    (dict(_BASE, max_batch=4), dict(max_batch=2), ConfigError),
], ids=["quadratic", "max-batch-16", "max-batch-2"])
def test_config_change_with_a_window_in_flight_is_refused(tmp_path, base,
                                                          change, error):
    """The same mismatch with a WAL record present is a typed failure,
    not a silent re-seed of the checksums that window needs."""
    heap = tmp_path / "heap.lpnv"
    core = ServiceCore(ServiceConfig(**base), heap_path=heap)
    crash_window(core, "after-drain",
                 ("put", 1, 10), ("put", 2, 20), ("put", 3, 30))
    wal = log_path_for(heap).read_bytes()
    with pytest.raises(error):
        ServiceCore(ServiceConfig(**{**base, **change}), heap_path=heap)
    assert log_path_for(heap).read_bytes() == wal

    # Under the configuration that wrote it, the window still resumes.
    reopened = ServiceCore(ServiceConfig(**base), heap_path=heap)
    try:
        assert reopened.resume_info["replayed_launches"] == 1
        assert reopened.store.contents() == {1: 10, 2: 20, 3: 30}
    finally:
        reopened.close()


def test_heap_without_session_tables_gets_them_on_first_start(tmp_path):
    """A cleanly retired heap from before the tables were
    session-lifetime holds the store's two buffers and nothing else."""
    core, heap = _make_core(tmp_path, shards=0)
    core.execute_window(_reqs(*_OPS))
    for name in [n for n, e in core.heap.entries.items()
                 if e.role == "table"]:
        core.heap.detach(name)
    assert len(_directory(core)) == 2
    core.close()

    reopened = ServiceCore(ServiceConfig(**_BASE), heap_path=heap)
    try:
        info = reopened.resume_info
        assert (info["detached_orphans"], info["reattached_buffers"]) == \
            (0, 1)
        assert reopened.store.contents() == {2: 20}
        reopened.execute_window(_reqs(("put", 3, 30)))
        assert reopened.store.contents() == {2: 20, 3: 30}
    finally:
        reopened.close()


def _two_table_heap(heap, shards):
    """A cleanly stopped heap in the two-table layout — store, then one
    checksum table per write kernel — holding {1: 10, 2: 20}."""
    config = ServiceConfig(**_BASE)
    device = Device(cache_capacity_lines=config.cache_lines,
                    shadow=create_heap(heap, shards))
    store = MegaKVStore(device, config.capacity, name=STORE_NAME)
    runtime = LPRuntime(device, config.lp_config())
    for name in ("megakv-insert", "megakv-delete"):
        make_table(device.memory, name,
                   math.ceil(config.max_batch / THREADS_PER_BLOCK),
                   runtime.cset.n_lanes, config.lp_config(),
                   cost_model=device.cost_model)
    device.launch(KVInsertKernel(store, np.array([1, 2], np.uint64),
                                 np.array([10, 20], np.uint64)))
    device.drain()
    assert [name for name in device.memory.buffers
            if name.startswith("__lp_")] == \
        ["__lp_megakv-insert_lanes", "__lp_megakv-delete_lanes"]
    device.shadow.close()
    RequestLog(log_path_for(heap), max_keys=config.max_batch).clear()


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_two_table_heap_resumes_with_its_wal_clear(tmp_path, shards):
    """Both old tables are orphans (no window needs their checksums);
    the one write table takes their place."""
    heap = tmp_path / "heap.lpnv"
    _two_table_heap(heap, shards)
    reopened = ServiceCore(ServiceConfig(**_BASE), heap_path=heap)
    try:
        info = reopened.resume_info
        assert (info["replayed_launches"], info["detached_orphans"],
                info["reattached_buffers"]) == (0, 2, 1)
        assert [name for name, e in reopened.heap.entries.items()
                if e.role == "table"] == ["__lp_megakv-write_lanes"]
        assert reopened.store.contents() == {1: 10, 2: 20}
        reopened.execute_window(_reqs(("put", 3, 30), ("delete", 1, None)))
        assert reopened.store.contents() == {2: 20, 3: 30}
    finally:
        reopened.close()


def test_older_wal_with_a_window_in_flight_is_refused(tmp_path):
    """The two-table build's record of an in-flight window — an insert
    and a delete — is not replayed by this build: a typed refusal that
    leaves the heap and the log byte for byte as they were."""
    heap = tmp_path / "heap.lpnv"
    _two_table_heap(heap, 0)
    body = json.dumps([["insert", [3], [30]], ["delete", [1], None]],
                      separators=(",", ":")).encode()
    record = struct.pack("<4sIII", MAGIC, SCHEMA_VERSION - 1, len(body),
                         zlib.crc32(body)) + body
    cleared = log_path_for(heap).read_bytes()  # preallocated, in place
    log_path_for(heap).write_bytes(record + cleared[len(record):])
    files = [heap, log_path_for(heap)]
    before = [path.read_bytes() for path in files]
    with pytest.raises(ServiceError,
                       match=f"has schema {SCHEMA_VERSION - 1}"):
        ServiceCore(ServiceConfig(**_BASE), heap_path=heap)
    assert [path.read_bytes() for path in files] == before


def test_foreign_wal_schema_is_refused(tmp_path):
    """An older build's record (a JSON document where the header
    should be) is refused, not guessed at and not overwritten."""
    core, heap = _make_core(tmp_path, shards=0)
    core.close()
    old = json.dumps({"schema": 3,
                      "launches": [["insert", [1], [10]]]}).encode()
    log_path_for(heap).write_bytes(old)
    with pytest.raises(ServiceError,
                       match=f"not a schema-{SCHEMA_VERSION} record"):
        ServiceCore(ServiceConfig(**_BASE), heap_path=heap)
    assert log_path_for(heap).read_bytes().startswith(old)


def test_volatile_core_has_no_reqlog(volatile_core):
    assert not volatile_core.durable
    assert volatile_core.reqlog is None
    assert volatile_core.backend() == "memory"


@pytest.mark.parametrize("shards,backend", [(0, "mapped"),
                                            (1, "sharded"),
                                            (4, "sharded")])
def test_backend_names(tmp_path, shards, backend):
    core, _ = _make_core(tmp_path, shards)
    try:
        assert core.backend() == backend
    finally:
        core.close()


def test_backend_is_what_the_heap_is_not_what_the_flag_says(tmp_path):
    """A restart opens by on-disk magic, so backend() (and the shard
    count stats() reports) must follow the heap, not ``shards``."""
    core, heap = _make_core(tmp_path, shards=4)
    core.close()
    reopened = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                           heap_path=heap)  # restarted without --shards
    try:
        assert reopened.backend() == "sharded"
        assert reopened.shards == 4
    finally:
        reopened.close()


@pytest.mark.parametrize("shards", [0, 1, 4],
                         ids=["mapped", "1-shard", "sharded"])
def test_reopen_follows_the_heap_with_or_without_the_flag(tmp_path, shards):
    core, heap = _make_core(tmp_path, shards)
    core.close()
    for asked in (0, shards):
        reopened = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                               heap_path=heap, shards=asked)
        try:
            assert reopened.shards == reopened.heap.n_shards == shards
            assert reopened.backend() == reopened.heap.kind
        finally:
            reopened.close()


@pytest.mark.parametrize("created,asked", [(0, 4), (4, 2), (0, 1),
                                           (1, 4)])
def test_contradicting_shards_on_existing_heap_is_refused(tmp_path, created,
                                                          asked):
    core, heap = _make_core(tmp_path, shards=created)
    core.close()
    with pytest.raises(ServiceError, match=f"expected a {asked}-shard"):
        ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                    heap_path=heap, shards=asked)


def test_unknown_lp_config_rejected():
    with pytest.raises(ConfigError, match="unknown LP config 'nope'"):
        ServiceConfig(config="nope").lp_config()
