"""Unit tests for MEGA-KV insert/search/delete kernels."""

import inspect

import numpy as np
import pytest

import repro
import repro.megakv as megakv
from repro.errors import TableFullError
from repro.gpu.kernel import Kernel
from repro.megakv import MegaKVStore
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    alloc_results,
)
from repro.workloads.generators import key_value_records


def build(capacity=256, n=100, seed=0):
    device = repro.Device()
    store = MegaKVStore(device, capacity=capacity)
    keys, vals = key_value_records(np.random.default_rng(seed), n)
    return device, store, keys, vals


def test_insert_populates_store():
    device, store, keys, vals = build()
    device.launch(KVInsertKernel(store, keys, vals, threads_per_block=16))
    assert store.contents() == dict(
        zip(map(int, keys), map(int, vals))
    )
    assert store.stats.inserts == 100


def test_insert_update_path():
    device, store, keys, vals = build()
    device.launch(KVInsertKernel(store, keys, vals, threads_per_block=16))
    new_vals = vals + np.uint64(1)
    device.launch(KVInsertKernel(store, keys, new_vals,
                                 threads_per_block=16))
    assert store.stats.updates == 100
    assert store.host_search(int(keys[0])) == int(new_vals[0])


def test_search_hits_and_misses():
    device, store, keys, vals = build()
    device.launch(KVInsertKernel(store, keys, vals, threads_per_block=16))
    alloc_results(device, "res", 100)
    query = keys.copy()
    query[50:] += np.uint64(1 << 60)  # 50 misses
    device.launch(KVSearchKernel(store, query, "res",
                                 threads_per_block=16))
    res = device.memory["res"].array
    assert np.array_equal(res[:50], vals[:50])
    assert np.all(res[50:] == 0)
    assert store.stats.hits == 50


def test_delete_removes_and_tolerates_absent():
    device, store, keys, vals = build()
    device.launch(KVInsertKernel(store, keys, vals, threads_per_block=16))
    mix = np.concatenate([keys[:30], keys[:10] + np.uint64(1 << 60)])
    device.launch(KVDeleteKernel(store, mix, threads_per_block=16))
    assert store.stats.removed == 30
    contents = store.contents()
    assert len(contents) == 70
    assert int(keys[0]) not in contents


def test_zero_keys_and_values_rejected():
    device, store, keys, vals = build()
    bad = keys.copy()
    bad[0] = 0
    with pytest.raises(TableFullError):
        KVInsertKernel(store, bad, vals)
    badv = vals.copy()
    badv[0] = 0
    with pytest.raises(TableFullError):
        KVInsertKernel(store, keys, badv)
    with pytest.raises(TableFullError):
        KVInsertKernel(store, keys, vals[:50])


def test_launch_config_covers_requests():
    device, store, keys, vals = build(n=100)
    kernel = KVInsertKernel(store, keys, vals, threads_per_block=32)
    cfg = kernel.launch_config()
    assert cfg.n_blocks * cfg.threads_per_block >= 100


def test_delete_then_insert_reuses_slot():
    device, store, keys, vals = build(n=10)
    device.launch(KVInsertKernel(store, keys, vals, threads_per_block=8))
    device.launch(KVDeleteKernel(store, keys, threads_per_block=8))
    assert store.contents() == {}
    device.launch(KVInsertKernel(store, keys, vals, threads_per_block=8))
    assert len(store.contents()) == 10


def test_each_kv_kernel_has_one_body():
    """No scalar twin in ``repro.megakv``: ``serial`` runs the batch
    body (and a write's batch validation) on immediate rows, and
    whether a kernel batches is a constant, not a property of its
    input."""
    classes = [cls for module in (megakv.kernels, megakv.lp, megakv.store)
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__]
    kernels = [cls for cls in classes if issubclass(cls, Kernel)]
    assert len(kernels) >= 5  # _BatchKernel, write, insert, delete, search
    for cls in classes:
        assert not {"run_block", "validate_block", "_find", "_claim",
                    "_answer"} & vars(cls).keys(), cls
    for cls in kernels:
        assert not hasattr(cls, "run_block")
        assert cls.batchable is True
    device, store, keys, vals = build()
    assert "batchable" not in vars(KVInsertKernel(store, keys, vals))
