"""Resume exactness: the restarted service rebuilds the crashed window
under the very names and addresses the heap directory holds.

Convergence of the store contents alone cannot see allocation drift —
the reconcile step turns a replayed buffer that misses its directory
entry into a detach + re-attach and recovery re-executes every block
against the zeroed table, so the contents still come out right. The
two reconcile counters staying at zero is the assertion that does see
it: every prepared buffer met its entry by name and address.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.config import LP_CONFIGS
from repro.service.core import (
    ServiceConfig,
    ServiceCore,
    partition_window,
)
from tests.service.unclean import (
    apply_reference,
    crash_before_drain,
    requests,
)

KEYS = st.integers(min_value=1, max_value=6)  # few keys => conflicts
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, st.integers(1, 2**63)),
    st.tuples(st.just("delete"), KEYS, st.none()),
    st.tuples(st.just("get"), KEYS, st.none()),
)


def _covers_the_plan(ops) -> bool:
    """At least two sub-batches and all three kernels."""
    return ({op for op, _, _ in ops} == {"put", "delete", "get"}
            and len(partition_window(requests(*ops))) >= 2)


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
    with tempfile.TemporaryDirectory() as root:
        core = _core(root, shards, config)
        if acked:
            core.execute_window(requests(*acked))
        crash_before_drain(core, *inflight)

        reopened = _core(root, 0, config)  # by magic, as a restart does
        try:
            info = reopened.resume_info
            assert info["replayed_launches"] >= 3
            assert info["reattached_buffers"] == 0, info
            assert info["detached_orphans"] == 0, info
            assert reopened.store.contents() == \
                apply_reference(apply_reference({}, acked), inflight)
        finally:
            reopened.close()


#: One window, three sub-batches, five launches (2 inserts, 1 delete,
#: 2 searches) after a 10-put acked window on a capacity-512 store.
PINNED_WINDOW = [("put", 1, 10), ("put", 2, 20), ("get", 1, None),
                 ("delete", 2, None), ("put", 3, 30), ("get", 3, None),
                 ("get", 9, None)]

#: What the heap directory held before that window's drain at the
#: commit preceding the single-launch-list refactor (global-array LP;
#: identical on the mapped and the 4-shard heap).
PINNED_DIRECTORY = [
    ("megakv_keys", 0, 32768),
    ("megakv_vals", 32768, 32768),
    ("__lp_megakv-insert_b1_lanes", 65664, 16),
    ("__lp_megakv-insert_b2_lanes", 65792, 16),
    ("__lp_megakv-delete_b3_lanes", 65920, 16),
    ("megakv_results_4", 66048, 8),
    ("__lp_megakv-search_b4_lanes", 66176, 16),
    ("megakv_results_5", 66304, 16),
    ("__lp_megakv-search_b5_lanes", 66432, 16),
]


@pytest.mark.parametrize("shards", [0, 4], ids=["mapped", "sharded"])
def test_window_allocations_are_pinned(tmp_path, shards):
    heap = tmp_path / "h" / "heap.lpnv"
    core = ServiceCore(ServiceConfig(capacity=512, cache_lines=32),
                       heap_path=heap, shards=shards)
    core.execute_window(requests(*[("put", k, k * 7)
                                   for k in range(40, 50)]))
    assert crash_before_drain(core, *PINNED_WINDOW) == PINNED_DIRECTORY


def test_sharded_service_writes_the_manifest_once(tmp_path):
    """Placement lives in the shard directories: serving, crashing and
    resuming allocate and free a checksum table per launch without ever
    touching the manifest again."""
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
            assert reopened.resume_info["replayed_launches"] == 5
            reopened.execute_window(requests(("put", 7, 70)))
        finally:
            reopened.close()
    assert rec.metrics.value("nvm.sharded.reopens") == 1
    assert rec.metrics.value("nvm.sharded.manifest_writes") == 1
    assert heap.read_bytes() == created
