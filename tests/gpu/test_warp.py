"""Unit tests for warp shuffle emulation."""

import numpy as np
import pytest

from repro.gpu.warp import (
    WARP_SIZE,
    lane_ids,
    shfl_down,
    warp_ids,
    warp_reduce,
)


def test_shfl_down_basic():
    vals = np.arange(32)
    out = shfl_down(vals, 1)
    # Lane i receives lane i+1; last lane keeps its own value.
    assert np.array_equal(out[:-1], vals[1:])
    assert out[-1] == vals[-1]


def test_shfl_down_multi_warp():
    vals = np.arange(64)
    out = shfl_down(vals, 16)
    assert out[0] == 16
    assert out[32] == 48           # second warp shifts within itself
    assert out[31] == 31           # no cross-warp leakage
    assert out[48] == 48           # lanes with no source keep their own


def test_shfl_down_zero_offset_is_identity():
    vals = np.arange(40)
    assert np.array_equal(shfl_down(vals, 0), vals)


def test_shfl_down_partial_warp_pads_with_zero():
    vals = np.arange(1, 41)  # 40 threads: warp 1 has 8 live lanes
    out = shfl_down(vals, 4)
    # Thread 36 (lane 4 of warp 1) sources lane 8 -> padding 0.
    assert out[36] == 0
    assert out[35] == 40


def test_shfl_down_negative_offset_rejected():
    with pytest.raises(ValueError):
        shfl_down(np.arange(32), -1)


def test_warp_reduce_add_matches_sum():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 1000, size=96).astype(np.uint64)
    reduced, steps = warp_reduce(vals, "add")
    assert steps == 5  # log2(32)
    expect = vals.reshape(3, 32).sum(axis=1)
    assert np.array_equal(reduced, expect)


def test_warp_reduce_xor_matches_fold():
    rng = np.random.default_rng(1)
    vals = rng.integers(0, 1 << 60, size=64).astype(np.uint64)
    reduced, _ = warp_reduce(vals, "xor")
    expect = np.bitwise_xor.reduce(vals.reshape(2, 32), axis=1)
    assert np.array_equal(reduced, expect)


def test_warp_reduce_partial_warp():
    vals = np.arange(1, 41).astype(np.uint64)  # 40 threads
    reduced, _ = warp_reduce(vals, "add")
    assert reduced[0] == np.sum(np.arange(1, 33))
    assert reduced[1] == np.sum(np.arange(33, 41))


def test_warp_reduce_unknown_op_rejected():
    with pytest.raises(ValueError):
        warp_reduce(np.arange(32), "mul")


def test_lane_and_warp_ids():
    assert np.array_equal(lane_ids(4), [0, 1, 2, 3])
    assert lane_ids(40)[32] == 0
    assert warp_ids(40)[31] == 0
    assert warp_ids(40)[32] == 1
