"""Unit tests for checksum functions and region state."""

import numpy as np
import pytest

from repro.core.checksum import (
    Adler32Checksum,
    BatchChecksumState,
    ChecksumSet,
    EMPTY_SENTINEL,
    ModularChecksum,
    ParityChecksum,
    float_bits,
    float_to_ordered_int,
    make_function,
    to_lane_words,
)
from repro.core.config import PAPER_CHECKSUM_PAIR, ChecksumKind
from repro.errors import ConfigError


# -- value normalization (Fig. 2) --------------------------------------------

def test_paper_fig2_example():
    """3.5 as float32 concatenates to the integer 1080033280."""
    assert float_bits(np.float32([3.5]))[0] == 1080033280


def test_float_bits_float64():
    out = float_bits(np.float64([1.0]))
    assert out.dtype == np.uint64
    assert out[0] == np.float64(1.0).view(np.uint64)


def test_float_bits_ints_two_complement():
    out = float_bits(np.int32([-1]))
    assert out[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert float_bits(np.int32([5]))[0] == 5


def test_float_bits_rejects_weird_dtypes():
    with pytest.raises(ConfigError):
        float_bits(np.array(["x"]))


def test_ordered_int_is_monotone():
    vals = np.float32([-100.0, -1.5, -0.0, 0.0, 1e-10, 3.5, 1e30])
    ordered = float_to_ordered_int(vals)
    assert np.all(np.diff(ordered.astype(np.int64)) >= 0)


def test_ordered_int_float64():
    vals = np.float64([-2.0, 0.0, 2.0])
    ordered = float_to_ordered_int(vals)
    assert ordered[0] < ordered[1] < ordered[2]


def test_ordered_int_rejects_ints():
    with pytest.raises(ConfigError):
        float_to_ordered_int(np.int32([1]))


# -- individual checksum functions --------------------------------------------

def test_modular_is_wraparound_sum():
    f = ModularChecksum()
    words = np.array([2**63, 2**63, 5], dtype=np.uint64)
    assert f.fold_all(words) == 5  # wraps modulo 2**64


def test_parity_is_xor():
    f = ParityChecksum()
    words = np.array([0b1100, 0b1010], dtype=np.uint64)
    assert f.fold_all(words) == 0b0110


def test_parity_empty_fold_is_identity():
    f = ParityChecksum()
    assert f.fold_all(np.array([], dtype=np.uint64)) == 0


def test_adler32_matches_zlib():
    import zlib

    f = Adler32Checksum()
    words = np.arange(10, dtype=np.uint64)
    expect = zlib.adler32(np.ascontiguousarray(words, "<u8").tobytes(), 1)
    assert f.fold_all(words) == expect


def test_adler32_is_order_sensitive():
    f = Adler32Checksum()
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([3, 2, 1], dtype=np.uint64)
    assert f.fold_all(a) != f.fold_all(b)
    with pytest.raises(ConfigError):
        f.combine(a, b)
    with pytest.raises(ConfigError):
        f.fold_at(np.zeros(3, np.uint64), np.arange(3), a)


def test_make_function_covers_all_kinds():
    for kind in ChecksumKind:
        assert make_function(kind).kind is kind


def test_reduce_op_names():
    assert ModularChecksum().reduce_op == "add"
    assert ParityChecksum().reduce_op == "xor"
    with pytest.raises(ConfigError):
        _ = Adler32Checksum().reduce_op


# -- ChecksumSet ---------------------------------------------------------------

def test_checksum_set_reference_fold():
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    vals = np.float32([1.0, 2.0, 3.5])
    lanes = cset.checksum_of(vals)
    words = to_lane_words(vals)
    assert lanes[0] == words.sum(dtype=np.uint64)
    assert lanes[1] == np.bitwise_xor.reduce(words)


def test_checksum_set_needs_kinds():
    with pytest.raises(ConfigError):
        ChecksumSet(())


def test_checksum_set_ops_and_commutativity():
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    assert cset.commutative
    assert cset.ops_per_update == 3  # 1 modular + 2 parity
    seq = ChecksumSet((ChecksumKind.ADLER32,))
    assert not seq.commutative


def test_false_negative_bound_shrinks_with_lanes():
    one = ChecksumSet((ChecksumKind.MODULAR,)).false_negative_bound()
    two = ChecksumSet(PAPER_CHECKSUM_PAIR).false_negative_bound()
    assert two < one < 1e-18


# -- BatchChecksumState, one block ----------------------------------------------

def test_state_update_scatter_and_reference():
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    state = BatchChecksumState(cset, n_threads=4)
    vals = np.float32([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    state.update(vals[None], np.arange(8) % 4)
    assert state.n_values == 8
    assert np.array_equal(state.reduce_lanes()[0], cset.checksum_of(vals))


def test_state_order_insensitive_for_commutative_lanes():
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    vals = np.float32([5.0, -1.0, 2.25, 9.0])

    s1 = BatchChecksumState(cset, 2)
    s1.update(vals[None], np.array([0, 1, 0, 1]))
    s2 = BatchChecksumState(cset, 2)
    s2.update(vals[::-1][None], np.array([1, 1, 0, 0]))
    assert np.array_equal(s1.reduce_lanes(), s2.reduce_lanes())


def test_state_misaligned_slots_rejected():
    state = BatchChecksumState(ChecksumSet(PAPER_CHECKSUM_PAIR), 2)
    with pytest.raises(ConfigError):
        state.update(np.float32([[1.0, 2.0]]), np.array([[0, 1, 0]]))
    with pytest.raises(ConfigError):  # two blocks into a one-block state
        state.update(np.float32([[1.0], [2.0]]), np.array([0]))


def test_state_with_adler_lane():
    cset = ChecksumSet((ChecksumKind.MODULAR, ChecksumKind.ADLER32))
    state = BatchChecksumState(cset, 2)
    vals = np.float32([1.0, 2.0, 3.0])
    state.update(vals[None, :2], np.array([0, 1]))
    state.update(vals[None, 2:], np.array([0]))
    lanes = state.reduce_lanes()[0]
    words = to_lane_words(vals)
    assert lanes[0] == words.sum(dtype=np.uint64)
    assert lanes[1] == Adler32Checksum().fold_all(words)


def test_empty_sentinel_is_all_ones():
    assert int(EMPTY_SENTINEL) == (1 << 64) - 1


def test_state_lane_positions_exposed():
    cset = ChecksumSet((ChecksumKind.ADLER32, ChecksumKind.MODULAR))
    state = BatchChecksumState(cset, 2, n_blocks=3)
    assert state.comm_lane_positions == [1]
    assert state.seq_lane_positions == [0]
    assert state.per_thread.shape == (3, 2, 1)
    assert state.seq_states.tolist() == [[1], [1], [1]]  # Adler's start
