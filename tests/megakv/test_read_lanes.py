"""Read lanes: a write launch that also answers a window's GETs.

A lane of :class:`~repro.megakv.kernels.KVWriteKernel` may read its
key's value as the launch found it, into a volatile results buffer,
before the lane's own write; a lane past the writing ones only reads.
For in-flight windows coalesced the way the service does it — a lane
per key, reading when a GET came before every write of its key — on a
tiny store (so claims collide and spill) and small blocks (so the tail
is ragged), serial and batched must agree on

* the answers,
* every buffer's volatile and NVM image,
* the launch's and the validation replay's tally,
* ``store.stats``,

and an LP-instrumented launch must validate clean: a read-only lane
folds nothing when it runs, so validation must fold nothing for it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import TableFullError
from repro.gpu.kernel import ExecMode
from repro.megakv.kernels import KVInsertKernel, KVWriteKernel
from repro.megakv.store import MegaKVStore

KEYS = st.integers(min_value=1, max_value=30)
OPS = st.tuples(st.sampled_from(["put", "delete", "get"]), KEYS)


def coalesce(inflight):
    """A window's lanes: ``(keys, values, reads)`` as the service plans
    them — a lane per key, writing lanes first (the kernel runs their
    puts before their deletes), then the keys the window only reads."""
    reads, writes = set(), {}
    for n, (op, key) in enumerate(inflight):
        if op == "get":
            if key not in writes:
                reads.add(key)
        else:
            writes[key] = 0 if op == "delete" else 1000 * key + n
    keys = list(writes) + sorted(reads - set(writes))
    return (np.array(keys, dtype=np.uint64),
            np.array(list(writes.values()), dtype=np.uint64),
            np.array([k in reads for k in keys], dtype=bool))


def run(engine, acked, inflight, capacity=4, threads=4, cache_lines=3):
    """Acked puts, then the window's one LP launch and its validation
    replay; everything observable afterwards."""
    keys, values, reads = coalesce(inflight)
    device = repro.Device(cache_capacity_lines=cache_lines, engine=engine)
    store = MegaKVStore(device, capacity=capacity)
    answers = device.alloc("answers", (keys.size,), np.uint64,
                           persistent=False)
    lp = repro.LPRuntime(device, repro.LPConfig.paper_best()).instrument(
        KVWriteKernel(store, keys, values, threads, reads, answers.name),
        table_name="t")
    try:
        if acked:
            stored = np.array(sorted(set(acked)), dtype=np.uint64)
            device.launch(KVInsertKernel(
                store, stored, stored * np.uint64(7), threads))
        tallies = [device.launch(lp).tally.to_dict()]
    except TableFullError as exc:
        tallies, failures = [str(exc)], None
    else:
        lp.reset_validation()
        tallies.append(
            device.launch(lp, mode=ExecMode.VALIDATE).tally.to_dict())
        failures = list(lp.validation_failures)
    return {
        "answers": answers.array.copy(),
        "tallies": tallies,
        "failures": failures,
        "stats": dataclasses.asdict(store.stats),
        "buffers": {name: (buf.data.copy(), buf.shadow.copy())
                    for name, buf in device.memory.buffers.items()
                    if buf.persistent},
        "fallbacks": sum(device.engine.fallbacks.values()),
        "contents": store.contents(),
    }


def both_ways(acked, inflight, **kw):
    ref = run("serial", acked, inflight, **kw)
    got = run("batched", acked, inflight, **kw)
    assert np.array_equal(got["answers"], ref["answers"])
    for key in ("tallies", "failures", "stats", "contents"):
        assert got[key] == ref[key], key
    assert got["buffers"].keys() == ref["buffers"].keys()
    for name, (data, shadow) in ref["buffers"].items():
        assert np.array_equal(got["buffers"][name][0], data), name
        assert np.array_equal(got["buffers"][name][1], shadow), name
    if ref["failures"] is None:  # the table filled: nothing more to say
        return ref
    assert got["fallbacks"] == 0
    assert ref["failures"] == [], "a clean launch failed validation"
    # The answers are the acked state; the store is the window applied.
    state = {k: 7 * k for k in acked}
    keys, _, reads = coalesce(inflight)
    assert ref["answers"].tolist() == [
        state.get(int(k), 0) if r else 0 for k, r in zip(keys, reads)]
    for n, (op, key) in enumerate(inflight):
        if op == "put":
            state[key] = 1000 * key + n
        elif op == "delete":
            state.pop(key, None)
    assert ref["contents"] == state
    return ref


@settings(max_examples=80, deadline=None)
@given(acked=st.lists(KEYS, max_size=12),
       inflight=st.lists(OPS, min_size=1, max_size=24),
       threads=st.sampled_from([2, 4, 8]))
# The window that made validation fold a read-only lane's hit: acked
# ``put 2``; in flight ``delete 1, put 1, put 1, get 2``.
@example(acked=[2], inflight=[("delete", 1), ("put", 1), ("put", 1),
                              ("get", 2)], threads=4)
def test_read_lanes_are_the_per_request_loop(acked, inflight, threads):
    both_ways(acked, inflight, threads=threads)


@pytest.mark.parametrize("acked,inflight", [
    # Read-only lanes only: a hit and an absent key.
    ([3, 5], [("get", 3), ("get", 9)]),
    # A lane that reads and then puts, a hit and a miss.
    ([3], [("get", 3), ("put", 3), ("get", 11), ("put", 11)]),
    # A lane that reads and then deletes, a hit and a miss.
    ([3], [("get", 3), ("delete", 3), ("get", 12), ("delete", 12)]),
    # A delete lane ahead of a put lane: the kernel reorders its writing
    # lanes, and each answer must stay at its key's position.
    ([4, 6], [("get", 4), ("delete", 4), ("get", 6), ("put", 6),
              ("get", 8)]),
], ids=["read-only", "read-put", "read-delete", "reordered"])
def test_named_read_lane_cases(acked, inflight):
    ref = both_ways(acked, inflight, threads=2)
    keys, _, reads = coalesce(inflight)
    n_reads = int(reads.sum())
    hits = sum(int(k) in acked for k, r in zip(keys, reads) if r)
    assert (ref["stats"]["searches"], ref["stats"]["hits"]) == \
        (n_reads, hits)


def test_a_ragged_tail_and_two_full_blocks_of_lanes():
    """More than 64 lanes at the service's 64 threads per block: two
    blocks, the second ragged, reads on both sides of the cut."""
    acked = list(range(1, 200, 3))
    inflight = []
    for key in range(1, 91):
        inflight += [("get", key)] if key % 2 else []
        inflight += [("put", key)] if key % 3 else [("delete", key)]
    inflight += [("get", key) for key in range(300, 330)]
    ref = both_ways(acked, inflight, capacity=256, threads=64,
                    cache_lines=16)
    keys, values, reads = coalesce(inflight)
    assert keys.size == 120 and values.size == 90
    assert ref["stats"]["searches"] == int(reads.sum()) == 75

