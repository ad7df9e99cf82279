"""ServiceCore: window partitioning, the flush path, and resume.

The unclean-stop tests are the in-process mirror of the SIGKILL
scenario (:mod:`tests.service.unclean`): the window runs through the
real ``execute_window`` and dies before its drain, ``close(drain=False)``
abandons the write-back cache with the request WAL still armed,
exactly what the kernel does to a SIGKILLed daemon, and the next
:class:`ServiceCore` on the same heap must replay, recover, and
converge.
"""

import pytest

from repro.errors import ConfigError, ServiceError
from repro.service.core import (
    ServiceConfig,
    ServiceCore,
    partition_window,
)
from repro.service.reqlog import RequestLog, log_path_for
from tests.service.unclean import apply_reference as _apply_reference
from tests.service.unclean import crash_before_drain
from tests.service.unclean import requests as _reqs


# ----------------------------------------------------------------------
# partition_window
# ----------------------------------------------------------------------

def test_partition_disjoint_ops_stay_in_one_batch():
    batches = partition_window(_reqs(
        ("put", 1, 10), ("put", 2, 20), ("delete", 3, None),
        ("get", 4, None)))
    assert len(batches) == 1
    sb = batches[0]
    assert [r.key for r in sb.inserts] == [1, 2]
    assert [r.key for r in sb.deletes] == [3]
    assert [r.key for r in sb.searches] == [4]


def test_partition_write_after_write_cuts():
    batches = partition_window(_reqs(
        ("put", 1, 10), ("put", 1, 11)))
    assert len(batches) == 2


def test_partition_read_after_write_cuts():
    batches = partition_window(_reqs(
        ("put", 1, 10), ("get", 1, None)))
    assert len(batches) == 2


def test_partition_write_after_read_cuts():
    batches = partition_window(_reqs(
        ("get", 1, None), ("delete", 1, None)))
    assert len(batches) == 2


def test_partition_duplicate_reads_coexist():
    batches = partition_window(_reqs(
        ("get", 1, None), ("get", 1, None), ("get", 1, None)))
    assert len(batches) == 1
    assert len(batches[0].searches) == 3


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
    assert result.sub_batches == 4
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
        assert reopened.store.contents() == _apply_reference({}, ops)
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
    assert RequestLog(log_path_for(heap)).read() is not None

    reopened = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                           heap_path=heap, shards=shards)
    try:
        info = reopened.resume_info
        assert info["resumed"]
        assert info["replayed_launches"] >= 1
        expected = _apply_reference(_apply_reference({}, acked), inflight)
        assert reopened.store.contents() == expected
        # The WAL is retired: a second restart replays nothing.
        assert RequestLog(log_path_for(heap)).read() is None

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
