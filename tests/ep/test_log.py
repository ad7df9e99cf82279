"""Unit tests for the EP undo log."""

import numpy as np
import pytest

import repro
from repro.ep.log import COMMITTED, UndoLog, _value_bits
from repro.errors import TableError
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig


def make_env(n_blocks=4, capacity=8):
    device = repro.Device(cache_capacity_lines=256)
    data = device.alloc("data", (64,), np.int32,
                        init=np.arange(64, dtype=np.int32))
    log = UndoLog(device.memory, "t", n_blocks, capacity)
    ctx = BatchBlockContext(device.memory, LaunchConfig.linear(n_blocks, 16),
                            (0,), immediate=True)
    return device, data, log, ctx


def test_geometry_validation():
    device = repro.Device()
    with pytest.raises(TableError):
        UndoLog(device.memory, "t", 0, 4)
    with pytest.raises(TableError):
        UndoLog(device.memory, "t", 4, 0)


def test_append_records_old_values():
    device, data, log, ctx = make_env()
    idx = np.array([3, 4, 5])
    log.append(ctx, data, idx)
    assert int(log.cursors.array[0]) == 3
    # Entries hold the (address, old-bits) pairs.
    entries = log.entries.array
    addr0 = int(entries[0])
    assert addr0 == data.base_addr + 3 * 4
    assert int(entries[1]) == 3  # old value bits of data[3]


def test_append_overflow_rejected():
    device, data, log, ctx = make_env(capacity=2)
    log.append(ctx, data, np.array([0, 1]))
    with pytest.raises(TableError):
        log.append(ctx, data, np.array([2]))


def test_append_flushes_log_lines():
    device, data, log, ctx = make_env()
    before = device.memory.write_stats.total_lines
    log.append(ctx, data, np.array([0]))
    assert device.memory.write_stats.total_lines > before
    assert ctx.tally.serial_cycles > 0  # the persist barrier


def test_commit_and_reset():
    device, data, log, ctx = make_env()
    assert not log.is_committed(0)
    log.commit(ctx)
    assert log.is_committed(0)
    log.reset_block(ctx)
    assert not log.is_committed(0)
    assert int(log.cursors.array[0]) == 0


def test_rollback_restores_in_reverse():
    device, data, log, ctx = make_env()
    # Two writes to the same element: log 7 (original), then 100.
    log.append(ctx, data, np.array([7]))
    ctx.st(data, [[7]], np.int32(100))
    log.append(ctx, data, np.array([7]))
    ctx.st(data, [[7]], np.int32(200))
    assert data.array[7] == 200
    undone = log.rollback(0)
    assert undone == 2
    # Reverse order: 100 first, then the original 7 last.
    assert data.array[7] == 7


def test_rollback_is_idempotent():
    device, data, log, ctx = make_env()
    log.append(ctx, data, np.array([1, 2]))
    ctx.st(data, [[1, 2]], np.array([50, 60], np.int32))
    log.rollback(0)
    log.rollback(0)
    assert data.array[1] == 1 and data.array[2] == 2


def test_rollback_survives_the_persistence_domain():
    """Rollback writes are themselves ordinary (lazy) stores."""
    device, data, log, ctx = make_env()
    log.append(ctx, data, np.array([9]))
    ctx.st(data, [[9]], np.int32(999))
    device.drain()
    log.rollback(0)
    assert data.array[9] == 9
    device.drain()
    assert data.nvm_array[9] == 9


def test_value_bits_roundtrip_dtypes():
    for dtype, vals in (
        (np.int32, [-1, 0, 7]),
        (np.float32, [3.5, -2.25]),
        (np.uint64, [2**63, 1]),
        (np.uint8, [255, 0]),
    ):
        arr = np.array(vals, dtype=dtype)
        bits = _value_bits(arr)
        back = np.array([
            np.frombuffer(np.uint64(b).tobytes()[:arr.dtype.itemsize],
                          dtype=dtype)[0]
            for b in bits
        ], dtype=dtype)
        assert np.array_equal(back, arr)


def test_ep_buffers_are_prefixed_for_attribution():
    device, data, log, ctx = make_env()
    for buf in (log.entries, log.cursors, log.commits):
        assert buf.name.startswith("__ep_")
        assert buf.persistent
