"""Property-based tests for checksum algebra (hypothesis)."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.checksum import (
    BatchChecksumState,
    ChecksumSet,
    ModularChecksum,
    ParityChecksum,
    float_bits,
    float_to_ordered_int,
    to_lane_words,
)
from repro.core.config import PAPER_CHECKSUM_PAIR, ChecksumKind
from repro.core.region import BatchRegionObserver
from repro.gpu.batch import BatchBlockContext
from repro.gpu.kernel import LaunchConfig
from repro.gpu.memory import GlobalMemory

words = hnp.arrays(
    np.uint64,
    st.integers(1, 64),
    elements=st.integers(0, (1 << 64) - 1),
)

floats32 = hnp.arrays(
    np.float32,
    st.integers(1, 64),
    elements=st.floats(-(2.0 ** 100), 2.0 ** 100, width=32, allow_nan=False,
                       allow_subnormal=False),
)


@given(words)
def test_modular_fold_is_order_invariant(ws):
    f = ModularChecksum()
    shuffled = ws.copy()
    np.random.default_rng(0).shuffle(shuffled)
    assert f.fold_all(ws) == f.fold_all(shuffled)


@given(words)
def test_parity_fold_is_order_invariant(ws):
    f = ParityChecksum()
    assert f.fold_all(ws) == f.fold_all(ws[::-1].copy())


@given(words, words)
def test_combine_is_commutative_and_merges_folds(a, b):
    for f in (ModularChecksum(), ParityChecksum()):
        fa, fb = f.fold_all(a), f.fold_all(b)
        assert f.combine(np.uint64(fa), np.uint64(fb)) == f.combine(
            np.uint64(fb), np.uint64(fa)
        )
        joint = f.fold_all(np.concatenate([a, b]))
        assert f.combine(np.uint64(fa), np.uint64(fb)) == joint


@given(words)
def test_parity_self_inverse(ws):
    f = ParityChecksum()
    doubled = np.concatenate([ws, ws])
    assert f.fold_all(doubled) == 0


@given(floats32)
def test_float_bits_injective_on_distinct_bit_patterns(vals):
    ws = float_bits(vals)
    raw = vals.view(np.uint32)
    # Equal words iff equal bit patterns.
    assert np.array_equal(ws[:, None] == ws[None, :],
                          raw[:, None] == raw[None, :])


@given(st.floats(-(2.0 ** 100), 2.0 ** 100, width=32, allow_nan=False,
                 allow_subnormal=False),
       st.floats(-(2.0 ** 100), 2.0 ** 100, width=32, allow_nan=False,
                 allow_subnormal=False))
def test_ordered_int_preserves_order(a, b):
    fa, fb = np.float32([a]), np.float32([b])
    oa = int(float_to_ordered_int(fa)[0])
    ob = int(float_to_ordered_int(fb)[0])
    if a < b:
        assert oa < ob
    elif a > b:
        assert oa > ob


@given(floats32, st.integers(1, 16))
@settings(max_examples=50)
def test_block_state_any_slotting_same_checksum(vals, n_threads):
    """Per-thread accumulation must not depend on which thread folded
    which value — the property that makes the reduction correct."""
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    rng = np.random.default_rng(42)

    s1 = BatchChecksumState(cset, n_threads)
    s1.update(vals[None], np.arange(vals.size) % n_threads)
    s2 = BatchChecksumState(cset, n_threads)
    s2.update(vals[None], rng.integers(0, n_threads, vals.size))
    assert np.array_equal(s1.reduce_lanes(), s2.reduce_lanes())
    assert np.array_equal(s1.reduce_lanes()[0], cset.checksum_of(vals))


@given(floats32)
def test_checksum_detects_single_element_change(vals):
    """Changing one element to a different bit pattern flips at least
    one lane (no false negative for single-point corruption)."""
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    before = cset.checksum_of(vals)
    mutated = vals.copy().view(np.uint32)
    mutated[0] ^= 1
    after = cset.checksum_of(mutated.view(np.float32))
    assert not np.array_equal(before, after)


@given(words)
def test_to_lane_words_is_stable(ws):
    assert np.array_equal(
        to_lane_words(ws.view(np.float64)), to_lane_words(ws.view(np.float64))
    )


# -- Adler-32 folded row by row ------------------------------------------------

ADLER = ChecksumSet((ChecksumKind.MODULAR, ChecksumKind.ADLER32))


def adler_of(values, start=1) -> int:
    """zlib over the little-endian lane words of ``values``, in order."""
    data = np.ascontiguousarray(to_lane_words(values), dtype="<u8")
    return zlib.adler32(data.tobytes(), start)


@st.composite
def ragged_rows(draw):
    """A group of rows with a ragged mask, a dtype and start states."""
    dtype = draw(st.sampled_from([np.float32, np.int32, np.uint64]))
    n_rows = draw(st.integers(1, 4))
    width = draw(st.integers(0, 40))
    values = draw(hnp.arrays(dtype, (n_rows, width)))
    keep = draw(hnp.arrays(np.bool_, (n_rows, width)))
    starts = draw(st.lists(
        st.tuples(st.integers(0, 65520), st.integers(0, 65520)),
        min_size=n_rows, max_size=n_rows))
    return values, keep, [b << 16 | a for a, b in starts]


@given(ragged_rows(), st.booleans())
@settings(max_examples=80)
def test_batched_adler_fold_matches_zlib_per_row(case, masked):
    """Each row's kept words fold, in row order, exactly as zlib folds
    their bytes from that row's start state."""
    values, keep, starts = case
    state = BatchChecksumState(ADLER, n_threads=8, n_blocks=len(starts))
    state.seq_states[:, 0] = starts
    state.update(values, np.arange(values.shape[1]) % 8,
                 keep if masked else None)
    lanes = state.reduce_lanes()
    for row, start in enumerate(starts):
        kept = values[row][keep[row]] if masked else values[row]
        assert int(lanes[row, 1]) == adler_of(kept, start)
        assert lanes[row, 0] == to_lane_words(kept).sum(dtype=np.uint64)


@given(st.integers(1, 3), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_record_store_folds_key_then_value_per_request(n_blocks, width,
                                                       seed):
    """``st_record`` folds a request's key and then its value before the
    next request: an Adler lane tells that order from folding all keys
    and then all values."""
    rng = np.random.default_rng(seed)
    mem = GlobalMemory(cache_capacity_lines=64)
    for name in ("k", "v"):
        mem.alloc(name, (n_blocks * width,), np.uint64)
    bctx = BatchBlockContext(mem, LaunchConfig.linear(n_blocks, 4),
                             range(n_blocks))
    bctx.lp_observer = observer = BatchRegionObserver(
        ADLER, bctx, frozenset({"k", "v"}))
    idx = np.arange(n_blocks * width).reshape(n_blocks, width)
    keys = rng.integers(1, 2**63, idx.shape, dtype=np.uint64)
    vals = rng.integers(1, 2**63, idx.shape, dtype=np.uint64)
    keep = rng.random(idx.shape) < 0.7
    bctx.st_record(("k", "v"), idx, (keys, vals), mask=keep)
    lanes = observer.state.reduce_lanes()
    for row in range(n_blocks):
        pairs = np.stack([keys[row], vals[row]], axis=-1)[keep[row]]
        assert int(lanes[row, 1]) == adler_of(pairs.reshape(-1))
