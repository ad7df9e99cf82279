"""Resume exactness: the restarted service rebuilds the layout the heap
directory holds from its configuration alone, and recovers the crashed
window to exactly the arrival-order outcome — wherever in its durable
half the window died.

Convergence of the store contents alone cannot see layout drift — a
reconcile step would turn a table that misses its directory entry into
a detach + re-attach and recovery re-executes every block against the
seeded table, so the contents still come out right. The two reconcile
counters staying at zero is the assertion that does see it: every
buffer met its entry by name and address.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import LP_CONFIGS
from repro.service.core import ServiceConfig, ServiceCore
from tests.service.unclean import (
    DEATH_POINTS,
    apply_reference,
    crash_before_drain,
    crash_window,
    requests,
)

KEYS = st.integers(min_value=1, max_value=6)  # few keys => conflicts
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, st.integers(1, 2**63)),
    st.tuples(st.just("delete"), KEYS, st.none()),
    st.tuples(st.just("get"), KEYS, st.none()),
)

#: Same-key chains a coalesced window must get right: each is a run of
#: ops that appears, in this order, among one key's requests.
CHAINS = (("put", "get"), ("put", "put"), ("put", "delete", "get"),
          ("get", "put"))


def _has_chain(ops) -> bool:
    by_key: dict[int, list[str]] = {}
    for op, key, _ in ops:
        by_key.setdefault(key, []).append(op)
    return any(
        tuple(history[i:i + len(chain)]) == chain
        for history in by_key.values() for chain in CHAINS
        for i in range(len(history)))


def _covers_the_plan(ops) -> bool:
    """All three ops and at least one same-key chain."""
    return ({op for op, _, _ in ops} == {"put", "delete", "get"}
            and _has_chain(ops))


def _core(root, shards, config):
    return ServiceCore(
        ServiceConfig(capacity=256, cache_lines=16, config=config),
        heap_path=Path(root) / "h" / "heap.lpnv", shards=shards)


@pytest.mark.parametrize("config", sorted(LP_CONFIGS))
@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
@settings(max_examples=10, deadline=None)
@given(acked=st.lists(OPS, min_size=0, max_size=8),
       inflight=st.lists(OPS, min_size=4, max_size=12)
       .filter(_covers_the_plan))
def test_resume_rebuilds_the_window_exactly(shards, config, acked, inflight):
    before, _ = apply_reference({}, acked)
    after, responses = apply_reference(dict(before), inflight)

    # Uncrashed, the window acks what one-at-a-time execution would.
    with tempfile.TemporaryDirectory() as root:
        core = _core(root, shards, config)
        try:
            core.execute_window(requests(*acked))
            result = core.execute_window(requests(*inflight))
            assert [doc for _, doc in result.responses] == responses
            assert core.store.contents() == after
        finally:
            core.close()

    for point in DEATH_POINTS:
        with tempfile.TemporaryDirectory() as root:
            core = _core(root, shards, config)
            core.execute_window(requests(*acked))
            crash_window(core, point, *inflight)

            reopened = _core(root, 0, config)  # by magic, as a restart does
            try:
                info = reopened.resume_info
                assert info["replayed_launches"] == 1, (point, info)
                assert info["reattached_buffers"] == 0, (point, info)
                assert info["detached_orphans"] == 0, (point, info)
                assert reopened.store.contents() == after, point
            finally:
                reopened.close()


#: One window with same-key chains: it coalesces to one search ([9])
#: and one write ({1: 10, 3: 30}, then a delete of 2).
PINNED_WINDOW = [("put", 1, 10), ("put", 2, 20), ("get", 1, None),
                 ("delete", 2, None), ("put", 3, 30), ("get", 3, None),
                 ("get", 9, None)]

#: What the heap directory of a capacity-512, max_batch-128 service
#: holds — at every instant of its life, this window's death included:
#: the store, then the write kernel's two-region checksum table
#: (global-array LP; identical on the mapped and the 4-shard heap).
PINNED_DIRECTORY = [
    ("megakv_keys", 0, 32768),
    ("megakv_vals", 32768, 32768),
    ("__lp_megakv-write_lanes", 65536, 32),
]


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_window_allocations_are_pinned(tmp_path, shards):
    heap = tmp_path / "h" / "heap.lpnv"
    core = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                       heap_path=heap, shards=shards)
    assert [(e.name, e.base_addr, e.nbytes)
            for e in core.heap.entries.values()] == PINNED_DIRECTORY
    core.execute_window(requests(*[("put", k, k * 7)
                                   for k in range(40, 50)]))
    assert crash_before_drain(core, *PINNED_WINDOW) == PINNED_DIRECTORY


def test_sharded_service_writes_the_manifest_once(tmp_path):
    """Placement lives in the shard directories, and those are written
    when the service's buffers are first laid out: serving, crashing
    and resuming touch neither the manifest nor any directory again."""
    heap = tmp_path / "h" / "heap.lpnv"
    config = ServiceConfig(capacity=512, cache_lines=32)
    with obs.recording(trace=False) as rec:
        core = ServiceCore(config, heap_path=heap, shards=4)
        created = heap.read_bytes()
        for base in (40, 50, 60):
            core.execute_window(requests(
                *[("put", k, k * 7) for k in range(base, base + 10)],
                ("get", base, None), ("delete", base + 1, None)))
        crash_before_drain(core, *PINNED_WINDOW)
        reopened = ServiceCore(config, heap_path=heap)
        try:
            assert reopened.resume_info["replayed_launches"] == 1
            reopened.execute_window(requests(("put", 7, 70)))
        finally:
            reopened.close()
    assert rec.metrics.value("nvm.sharded.reopens") == 1
    assert rec.metrics.value("nvm.sharded.manifest_writes") == 1
    assert heap.read_bytes() == created
