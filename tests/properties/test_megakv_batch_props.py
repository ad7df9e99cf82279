"""Property: the vectorized MEGA-KV write path *is* the per-block one.

``KVWriteKernel`` — and ``KVInsertKernel`` / ``KVDeleteKernel``, its
all-put and all-delete forms — has one body, ``run_block_batch``. The
batched engine runs it over a whole block group; the serial engine
runs it one block at a time, its stores issued as they happen. What
makes the serial engine the reference is everything one request can do
to the next inside a launch: a miss claims a slot the next miss in that
bucket must then skip, a full first bucket spills into the second, a
delete frees a slot no later put of the launch may claim, key and value
stores interleave per request on their way to the write-back cache,
and a request neither bucket can take raises at block granularity — the
blocks before its block applied, its block not. On a deliberately tiny
store (1, 2 or 4 buckets of 8 slots, a pool of 30 keys) all of that
happens in almost every example, so for arbitrary insert / delete /
mixed write sequences — keys distinct within a launch (a write batch
that repeats one is refused before any effect), put and delete lanes in
any order, ragged tail blocks, caches from one line to plenty — serial
and batched must agree on

* every buffer's volatile and NVM image (store arrays and checksum
  tables alike),
* ``store.stats``,
* each launch's full tally, or the ``TableFullError`` text it died with,
* the cache's dirty lines in recency order, its eviction count, and the
  NVM write statistics,

and the batched engine falls back to per-block execution only for a
launch the table cannot hold.

The named cases below pin the situations the search must not miss, with
keys chosen by the bucket they hash to.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import LaunchError, TableFullError
from repro.megakv import KVBatchSession
from repro.megakv.kernels import KVDeleteKernel, KVInsertKernel, KVWriteKernel
from repro.megakv.store import BUCKET_WIDTH, MegaKVStore

KEY_POOL = list(range(1, 31))

key_lists = st.lists(st.sampled_from(KEY_POOL), min_size=1, max_size=14,
                     unique=True)
#: A write's lanes: a negative entry deletes the key of its magnitude.
lane_lists = st.lists(st.sampled_from(KEY_POOL + [-k for k in KEY_POOL]),
                      min_size=1, max_size=14, unique_by=abs)
launches = st.lists(
    st.one_of(st.tuples(st.just("insert"), key_lists),
              st.tuples(st.just("delete"), key_lists),
              st.tuples(st.just("write"), lane_lists)),
    min_size=1, max_size=5,
)


def run(engine, ops, capacity, threads, cache_lines):
    """Launch ``ops`` LP-instrumented; everything observable afterwards."""
    device = repro.Device(cache_capacity_lines=cache_lines, engine=engine)
    store = MegaKVStore(device, capacity=capacity)
    runtime = repro.LPRuntime(device, repro.LPConfig.paper_best())
    outcomes = []
    for n, (op, lanes) in enumerate(ops):
        signed = np.array(lanes, dtype=np.int64)
        keys = np.abs(signed).astype(np.uint64)
        # Values differ per launch so an update is visible.
        values = keys + np.uint64(100 * (n + 1))
        if op == "insert":
            kernel = KVInsertKernel(store, keys, values, threads)
        elif op == "delete":
            kernel = KVDeleteKernel(store, keys, threads)
        else:
            kernel = KVWriteKernel(
                store, keys, np.where(signed < 0, np.uint64(0), values),
                threads)
        lp_kernel = runtime.instrument(kernel, table_name=f"t{n}")
        try:
            outcomes.append(device.launch(lp_kernel).tally.to_dict())
        except TableFullError as exc:
            outcomes.append(str(exc))
    return {"outcomes": outcomes, **observe(device, store)}


def observe(device, store):
    """Everything a launch can leave behind, outcome apart."""
    memory = device.memory
    return {
        "stats": dataclasses.asdict(store.stats),
        "buffers": {name: (buf.data.copy(), buf.shadow.copy())
                    for name, buf in memory.buffers.items()},
        "dirty": memory.cache.dirty_lines,
        "evictions": memory.cache.evictions,
        "written": (dict(memory.write_stats.by_reason),
                    dict(memory.write_stats.by_buffer)),
        "fallbacks": sum(device.engine.fallbacks.values()),
    }


def assert_same(ref, got):
    for key in ref.keys() - {"buffers", "fallbacks"}:
        assert got[key] == ref[key], key
    assert got["buffers"].keys() == ref["buffers"].keys()
    for name, (data, shadow) in ref["buffers"].items():
        assert np.array_equal(got["buffers"][name][0], data), name
        assert np.array_equal(got["buffers"][name][1], shadow), name


@settings(max_examples=120, deadline=None)
@given(ops=launches,
       capacity=st.sampled_from([1, 2, 4]),
       threads=st.sampled_from([2, 4, 8]),
       cache_lines=st.sampled_from([1, 3, 64]))
def test_batched_write_path_equals_serial(ops, capacity, threads,
                                          cache_lines):
    ref = run("serial", ops, capacity, threads, cache_lines)
    got = run("batched", ops, capacity, threads, cache_lines)
    assert_same(ref, got)
    full = any(isinstance(o, str) for o in ref["outcomes"])
    mixed = any(min(lanes) < 0 < max(lanes) for _, lanes in ops)
    event(f"table full: {full}")
    event(f"puts and deletes in one launch: {mixed}")
    # The per-block path is taken for that one reason.
    if not full:
        assert got["fallbacks"] == 0


# ---------------------------------------------------------------------------
# The named cases, with keys picked by the buckets they hash to.


def keys_by_buckets(capacity):
    """``{(bucket_0, bucket_1): [keys...]}`` over a wide key range."""
    store = MegaKVStore(repro.Device(), capacity=capacity)
    table = {}
    for key in range(1, 400):
        pair = (store.bucket_of(key, 0), store.bucket_of(key, 1))
        table.setdefault(pair, []).append(key)
    return table


def both_ways(ops, capacity=2, threads=4, cache_lines=3):
    ref = run("serial", ops, capacity, threads, cache_lines)
    got = run("batched", ops, capacity, threads, cache_lines)
    assert_same(ref, got)
    return ref, got


def test_several_misses_into_one_bucket_claim_in_request_order():
    # Six new keys, all with first-choice bucket 0: every one of them
    # sees the same empty slots in the launch's starting image.
    table = keys_by_buckets(2)
    keys = (table[(0, 1)] + table[(0, 0)])[:6]
    ref, got = both_ways([("insert", keys)])
    assert got["fallbacks"] == 0
    assert ref["stats"]["inserts"] == 6


def test_first_bucket_full_spills_into_the_second():
    table = keys_by_buckets(2)
    fill = table[(0, 0)][:BUCKET_WIDTH]        # bucket 0 is now full
    spill = table[(0, 1)][:3]                  # must land in bucket 1
    ref, got = both_ways([("insert", fill), ("insert", spill)])
    assert got["fallbacks"] == 0
    assert isinstance(ref["outcomes"][1], dict)
    # Eight failed CAS attempts on bucket 0 precede each claim.
    assert ref["outcomes"][1]["atomic_ops"] >= 3 * (BUCKET_WIDTH + 1)


def test_updates_and_inserts_mixed_in_one_ragged_launch():
    table = keys_by_buckets(2)
    old = table[(0, 1)][:3] + table[(1, 0)][:2]
    new = table[(0, 1)][3:6] + table[(1, 1)][:1]
    batch = [old[0], new[0], new[1], old[3], new[2], old[1], new[3]]
    ref, got = both_ways([("insert", old), ("insert", batch)], threads=4)
    assert got["fallbacks"] == 0
    assert ref["stats"]["updates"] == 3 and ref["stats"]["inserts"] == 9


def test_a_repeated_key_is_refused_before_any_effect():
    """Refused when the kernel is built — by hand or by a session's
    ``mixed`` stream, on either engine: no launch, no store, no
    statistic, no table."""
    table = keys_by_buckets(2)
    a, b = table[(0, 1)][:2]
    keys = np.array([a, b, a], np.uint64)
    values = np.array([5, 0, 6], np.uint64)
    for engine in ("serial", "batched"):
        device = repro.Device(cache_capacity_lines=3, engine=engine)
        store = MegaKVStore(device, capacity=2)
        session = KVBatchSession(device, store, threads_per_block=4)
        session.insert(keys[:2], np.array([1, 2], np.uint64))
        before = observe(device, store)
        for op in (("insert", keys, keys), ("delete", keys),
                   ("write", keys, values)):
            with pytest.raises(LaunchError, match="repeats a key"):
                session.mixed([op])
            with pytest.raises(LaunchError, match="repeats a key"):
                device.launch(session.runtime.instrument(
                    KVWriteKernel(store, keys, values, 4)))
        assert_same(before, observe(device, store))
        assert len(session.manager.epoch_kernels) == 1
        assert device.memory.buffers.keys() == before["buffers"].keys()


def test_both_buckets_full_raises_with_the_same_partial_state():
    table = keys_by_buckets(2)
    one_bucket = table[(0, 0)]
    fill, late = one_bucket[:6], one_bucket[6:10]
    # Two more fit, the third does not. Two lanes a block: block 0
    # (a claim and an update) lands; block 1 raises at its second lane
    # with its first lane's claim not applied, block 2 never runs.
    batch = [late[0], fill[0], late[1], late[2], late[3]]
    ref, got = both_ways([("insert", fill), ("insert", batch)], threads=2)
    assert isinstance(ref["outcomes"][1], str)
    assert "both candidate buckets" in ref["outcomes"][1]
    assert got["fallbacks"] == 1
    assert ref["stats"]["inserts"] == 7 and ref["stats"]["updates"] == 1
    keys = ref["buffers"]["megakv_keys"][0]
    assert late[0] in keys and late[1] not in keys
    # One block: the whole launch is refused, none of it applied.
    ref, got = both_ways([("insert", fill), ("insert", batch)], threads=8)
    assert "both candidate buckets" in ref["outcomes"][1]
    assert got["fallbacks"] == 1
    assert ref["stats"]["inserts"] == 6 and ref["stats"]["updates"] == 0


def test_a_delete_listed_before_a_put_frees_nothing_the_put_can_claim():
    """Bucket 0 is full and holds the delete's key; the put's first
    choice is bucket 0 and its second bucket 1. Run in listed order the
    put would claim the slot the delete frees; lanes run puts first, so
    it lands in bucket 1 on both engines and the freed slot stays
    empty."""
    table = keys_by_buckets(2)
    fill = table[(0, 0)][:BUCKET_WIDTH]
    victim, new = fill[3], table[(0, 1)][0]
    ref, got = both_ways([("insert", fill), ("write", [-victim, new])])
    assert got["fallbacks"] == 0
    assert ref["stats"]["removed"] == 1
    assert ref["stats"]["inserts"] == BUCKET_WIDTH + 1
    keys = ref["buffers"]["megakv_keys"][0]
    assert int(np.flatnonzero(keys == new)[0]) // BUCKET_WIDTH == 1
    assert keys[3] == 0 and victim not in keys
