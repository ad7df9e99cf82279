"""Mixed GET/PUT/DELETE streams vs the host oracle, on every substrate.

The service's flush path assumes a mixed op stream means the same
thing no matter which launch engine runs it and which shadow backs the
heap. This pins that: one deterministic interleaved stream (with
overwrites, deletes of absent keys, and searches for missing keys) is
executed across engines × shadows and every outcome must be
bit-identical to the in-Python reference dict — searched values via
the returned result arrays, the final image via ``contents()`` and
per-key ``host_search``.
"""

import numpy as np
import pytest

import repro
from repro.gpu.engine import make_engine
from repro.megakv import KVBatchSession, MegaKVStore
from repro.nvm import MappedShadow, ShardedShadow

ENGINES = ["serial", "batched"]
SHADOWS = ["memory", "mapped", "sharded"]


def _stream(seed=0, n=64):
    """Deterministic mixed stream: puts (with overwrites), deletes
    (some of absent keys), searches (some of missing keys)."""
    rng = np.random.default_rng(seed)
    keyspace = rng.choice(np.arange(1, 10_000, dtype=np.uint64),
                          size=n, replace=False)
    ops = []
    ops.append(("insert", keyspace[:32],
                rng.integers(1, 1 << 63, 32, dtype=np.uint64)))
    ops.append(("search", keyspace[:16]))
    ops.append(("delete", keyspace[8:24]))          # all live at this point
    ops.append(("search", keyspace[:32]))           # hits and misses
    ops.append(("insert", keyspace[8:16],           # re-insert deleted
                rng.integers(1, 1 << 63, 8, dtype=np.uint64)))
    ops.append(("insert", keyspace[:8],             # overwrite live keys
                rng.integers(1, 1 << 63, 8, dtype=np.uint64)))
    ops.append(("delete", keyspace[40:48]))         # delete absent keys
    # One write launch, as the service issues it: deletes (value 0) of
    # live and absent keys listed among updates and fresh puts.
    written = keyspace[[0, 24, 9, 48, 1, 25, 44, 10, 49]]
    ops.append(("write", written, np.where(
        np.arange(written.size) % 2 == 0, np.uint64(0),
        rng.integers(1, 1 << 63, written.size, dtype=np.uint64))))
    ops.append(("search", keyspace))                # full sweep
    return ops


def _oracle(ops):
    """Reference semantics: a dict, plus expected search results."""
    state: dict[int, int] = {}
    searches = []
    for op in ops:
        if op[0] in ("insert", "write"):
            for k, v in zip(op[1], op[2]):
                if v:
                    state[int(k)] = int(v)
                else:
                    state.pop(int(k), None)
        elif op[0] == "delete":
            for k in op[1]:
                state.pop(int(k), None)
        else:
            searches.append(np.array([state.get(int(k), 0)
                                      for k in op[1]], dtype=np.uint64))
    return state, searches


def _build(tmp_path, engine, shadow):
    heap = None
    if shadow == "mapped":
        heap = MappedShadow.create(tmp_path / "mixed.heap.lpnv")
    elif shadow == "sharded":
        heap = ShardedShadow.create(tmp_path / "mixed.sharded",
                                    n_shards=4)
    device = repro.Device(cache_capacity_lines=64,
                          engine=make_engine(engine), shadow=heap)
    store = MegaKVStore(device, capacity=256)
    session = KVBatchSession(device, store, threads_per_block=16)
    return device, store, session, heap


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("shadow", SHADOWS)
def test_mixed_stream_matches_host_oracle(tmp_path, engine, shadow):
    ops = _stream()
    expected_state, expected_searches = _oracle(ops)

    device, store, session, heap = _build(tmp_path, engine, shadow)
    try:
        outcomes = session.mixed(ops)
        session.checkpoint()

        got_searches = [o.results for o in outcomes
                        if o.results is not None]
        assert len(got_searches) == len(expected_searches)
        for got, want in zip(got_searches, expected_searches):
            assert np.array_equal(got, want)

        assert store.contents() == expected_state
        for key, value in expected_state.items():
            assert store.host_search(key) == value
        # A key deleted and never re-inserted really is gone.
        gone = next(int(k) for k in ops[2][1]
                    if int(k) not in expected_state)
        assert store.host_search(gone) is None

        if heap is not None:
            # The drained image is the durable truth too.
            assert store.contents(persisted=True) == expected_state
    finally:
        if heap is not None:
            device.drain()
            heap.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_agree_bit_for_bit(tmp_path, engine):
    """Every engine's full-sweep results equal serial's, bitwise."""
    ops = _stream(seed=7)
    _, _, serial_session, _ = _build(tmp_path / "a", "serial", "memory")
    serial_sweep = serial_session.mixed(ops)[-1].results

    base = tmp_path / engine
    base.mkdir()
    _, _, session, heap = _build(base, engine, "mapped")
    try:
        sweep = session.mixed(ops)[-1].results
        assert sweep.dtype == serial_sweep.dtype
        assert np.array_equal(sweep, serial_sweep)
    finally:
        session.checkpoint()
        heap.close()
