"""Crash-recovery tests for the LP-protected MEGA-KV session."""

import numpy as np
import pytest

import repro
from repro.megakv import KVBatchSession, MegaKVStore
from repro.workloads.generators import key_value_records


def build(capacity=512, n=200, cache_lines=8, seed=0):
    device = repro.Device(cache_capacity_lines=cache_lines)
    store = MegaKVStore(device, capacity=capacity)
    session = KVBatchSession(device, store, threads_per_block=16)
    keys, vals = key_value_records(np.random.default_rng(seed), n)
    return device, store, session, keys, vals


def as_dict(keys, vals):
    return dict(zip(map(int, keys), map(int, vals)))


def test_clean_batches():
    _, store, session, keys, vals = build(cache_lines=1024)
    out = session.insert(keys, vals)
    assert not out.crashed
    res = session.search(keys)
    assert np.array_equal(res.results, vals)
    session.delete(keys[:100])
    assert store.contents() == as_dict(keys[100:], vals[100:])


def test_insert_crash_recovers_all_records():
    _, store, session, keys, vals = build()
    out = session.insert(
        keys, vals,
        crash_plan=repro.CrashPlan(after_blocks=6, persist_fraction=0.4,
                                   seed=3),
    )
    assert out.crashed
    assert out.recovery is not None and out.recovery.recovered
    assert store.contents() == as_dict(keys, vals)


def test_delete_crash_recovers_removals():
    _, store, session, keys, vals = build()
    session.insert(keys, vals)
    out = session.delete(
        keys[:120],
        crash_plan=repro.CrashPlan(after_blocks=3, persist_fraction=0.5,
                                   seed=9),
    )
    assert out.recovery.recovered
    assert store.contents() == as_dict(keys[120:], vals[120:])


def test_search_crash_recovers_results():
    _, store, session, keys, vals = build()
    session.insert(keys, vals)
    out = session.search(
        keys[:100],
        crash_plan=repro.CrashPlan(after_blocks=2, persist_fraction=0.2,
                                   seed=11),
    )
    assert out.recovery.recovered
    assert np.array_equal(out.results, vals[:100])


def test_consecutive_crashing_batches():
    """Recover each batch before admitting the next (the session rule)."""
    _, store, session, keys, vals = build(n=150)
    session.insert(
        keys, vals,
        crash_plan=repro.CrashPlan(after_blocks=4, persist_fraction=0.3,
                                   seed=1),
    )
    session.delete(
        keys[:50],
        crash_plan=repro.CrashPlan(after_blocks=1, persist_fraction=0.6,
                                   seed=2),
    )
    out = session.search(keys)
    expect = np.concatenate([np.zeros(50, np.uint64), vals[50:]])
    assert np.array_equal(out.results, expect)


@pytest.mark.parametrize("seed", range(4))
def test_insert_crash_recovery_across_seeds(seed):
    _, store, session, keys, vals = build(seed=seed)
    out = session.insert(
        keys, vals,
        crash_plan=repro.CrashPlan(after_blocks=7,
                                   persist_fraction=0.25, seed=seed),
    )
    assert out.recovery.recovered
    assert store.contents() == as_dict(keys, vals)


def test_each_batch_gets_its_own_checksum_table():
    device, _, session, keys, vals = build(cache_lines=1024, n=64)
    session.insert(keys[:32], vals[:32])
    session.insert(keys[32:], vals[32:])
    lp_buffers = [n for n in device.memory.buffers if n.startswith("__lp_")]
    assert len(lp_buffers) >= 2


def test_mixed_operation_stream():
    """The paper's workload shape: insert, search & delete records."""
    _, store, session, keys, vals = build(cache_lines=1024, n=120)
    outcomes = session.mixed([
        ("insert", keys, vals),
        ("search", keys[:60]),
        ("delete", keys[:40]),
        ("search", keys[:60]),
    ])
    assert [o.op for o in outcomes] == ["insert", "search", "delete",
                                        "search"]
    assert np.array_equal(outcomes[1].results, vals[:60])
    expect = np.concatenate([np.zeros(40, np.uint64), vals[40:60]])
    assert np.array_equal(outcomes[3].results, expect)


def test_mixed_stream_with_injected_crashes():
    _, store, session, keys, vals = build(n=150)
    outcomes = session.mixed(
        [
            ("insert", keys, vals),
            ("delete", keys[:50]),
            ("search", keys),
        ],
        crash_plans={
            0: repro.CrashPlan(after_blocks=5, persist_fraction=0.4,
                               seed=4),
            1: repro.CrashPlan(after_blocks=1, persist_fraction=0.2,
                               seed=8),
        },
    )
    assert outcomes[0].crashed and outcomes[0].recovery.recovered
    assert outcomes[1].crashed and outcomes[1].recovery.recovered
    assert not outcomes[2].crashed
    expect = np.concatenate([np.zeros(50, np.uint64), vals[50:]])
    assert np.array_equal(outcomes[2].results, expect)


def test_mixed_stream_rejects_unknown_ops():
    _, _, session, keys, _ = build(n=10)
    with pytest.raises(ValueError):
        session.mixed([("upsert", keys)])


def test_checkpoint_releases_epoch_resources():
    device, store, session, keys, vals = build(cache_lines=1024, n=80)
    session.insert(keys, vals)
    session.search(keys[:20])
    n_before = len(device.memory.buffers)
    lines = session.checkpoint()
    assert lines >= 0
    assert len(device.memory.buffers) < n_before
    # The store itself survives and further batches work.
    out = session.search(keys[:20])
    assert np.array_equal(out.results, vals[:20])


def test_crash_recovers_older_batches_in_epoch():
    """Regression for the bug hypothesis found: a crash during batch N
    must also recover batches < N whose effects were still volatile."""
    device, store, session, keys, vals = build(cache_lines=4, n=24)
    session.insert(keys[:12], vals[:12])              # stays dirty
    out = session.insert(
        keys[12:], vals[12:],
        crash_plan=repro.CrashPlan(after_blocks=0, seed=3),
    )
    assert out.recovery is not None
    assert store.contents() == as_dict(keys, vals)


# -- a session with a launch bound (``max_keys``) --------------------------


def build_bounded(n=200, cache_lines=8, seed=0):
    device = repro.Device(cache_capacity_lines=cache_lines)
    store = MegaKVStore(device, capacity=512)
    session = KVBatchSession(device, store, threads_per_block=16,
                             max_keys=n)
    keys, vals = key_value_records(np.random.default_rng(seed), n)
    return device, store, session, keys, vals


def test_bounded_session_allocates_once_and_reuses_its_tables():
    device, store, session, keys, vals = build_bounded(cache_lines=1024)
    layout = (sorted(device.memory.buffers), device.memory.alloc_cursor)
    assert [n for n in layout[0] if n.startswith("__lp_")] == \
        ["__lp_megakv-write_lanes"]
    assert not device.memory[f"{store.name}_results"].persistent
    for epoch in range(3):
        # One launch carries the epoch's puts and deletes: a delete is
        # a lane whose value is 0, and it may come before a put.
        session.write(keys, np.where(np.arange(keys.size) % 4 == epoch,
                                     np.uint64(0), vals + np.uint64(epoch)))
        session.checkpoint()
        assert (sorted(device.memory.buffers),
                device.memory.alloc_cursor) == layout
    session.delete(keys[:50])  # the paper's kernels share the table
    session.checkpoint()
    assert (sorted(device.memory.buffers),
            device.memory.alloc_cursor) == layout
    live = (np.arange(keys.size) >= 50) & (np.arange(keys.size) % 4 != 2)
    assert store.contents() == as_dict(keys[live],
                                       vals[live] + np.uint64(2))


def test_lookup_reads_without_touching_the_persistence_domain():
    device, _, session, keys, vals = build_bounded(cache_lines=1024)
    session.insert(keys, vals)
    session.checkpoint()
    stats = device.memory.write_stats.total_lines
    probe = np.concatenate([keys[:30], keys[:30], np.array([7], np.uint64)])
    got = session.lookup(probe)
    assert np.array_equal(
        got, np.concatenate([vals[:30], vals[:30], np.zeros(1, np.uint64)]))
    assert device.memory.cache.n_dirty == 0
    assert device.memory.write_stats.total_lines == stats
    assert session.manager.epoch_kernels == []


def test_bounded_session_enforces_its_bound():
    from repro.errors import ConfigError

    _, _, session, keys, vals = build_bounded(n=64, cache_lines=1024)
    more_keys, more_vals = key_value_records(np.random.default_rng(1), 65)
    with pytest.raises(ConfigError, match="at most 64 keys"):
        session.insert(more_keys, more_vals)
    with pytest.raises(ConfigError):
        session.lookup(more_keys)
    session.insert(keys[:32], vals[:32])
    for second in (lambda: session.insert(keys[32:], vals[32:]),
                   lambda: session.delete(keys[:8])):
        with pytest.raises(ConfigError, match="one write launch"):
            second()  # same epoch, same table
    session.checkpoint()
    session.insert(keys[32:], vals[32:])      # the next epoch is fine


def test_lookup_needs_a_bounded_session():
    from repro.errors import ConfigError

    _, _, session, keys, _ = build(n=10)
    with pytest.raises(ConfigError, match="max_keys"):
        session.lookup(keys)


@pytest.mark.parametrize("persist_fraction", [0.0, 0.3])
def test_bounded_session_recovers_a_crashing_epoch(persist_fraction):
    """A reused table must not vouch for lost stores: the second epoch
    rewrites every key, block for block, and loses its cached lines —
    with the first epoch's checksums left in NVM the store's old values
    would validate."""
    _, store, session, keys, vals = build_bounded(cache_lines=1024)
    session.insert(keys, vals)
    session.checkpoint()
    fresh = vals + np.uint64(1)
    n_blocks = -(-keys.size // 16)
    out = session.insert(
        keys, fresh,
        crash_plan=repro.CrashPlan(after_blocks=n_blocks,
                                   persist_fraction=persist_fraction,
                                   seed=5))
    assert out.recovery.recovered
    assert out.recovery.recovered_blocks
    assert store.contents() == as_dict(keys, fresh)
