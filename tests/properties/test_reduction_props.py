"""Property-based tests: reductions agree with the direct fold."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.checksum import BatchChecksumState, ChecksumSet
from repro.core.config import PAPER_CHECKSUM_PAIR
from repro.core.reduction import reduce_parallel, reduce_sequential
from repro.gpu.warp import warp_reduce

values = hnp.arrays(
    np.uint64,
    st.integers(1, 300),
    elements=st.integers(0, (1 << 64) - 1),
)


@given(values, st.integers(1, 130))
@settings(max_examples=60)
def test_parallel_equals_sequential_equals_reference(vals, n_threads):
    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    state = BatchChecksumState(cset, n_threads)
    state.update(vals.view(np.float64)[None],
                 np.arange(vals.size) % n_threads)
    expect = cset.checksum_of(vals)
    assert np.array_equal(reduce_parallel(state), expect)
    assert np.array_equal(reduce_sequential(state), expect)


@given(values)
@settings(max_examples=60)
def test_warp_reduce_add_always_matches_numpy(vals):
    reduced, _ = warp_reduce(vals, "add")
    n_warps = -(-vals.size // 32)
    padded = np.zeros(n_warps * 32, dtype=np.uint64)
    padded[:vals.size] = vals
    with np.errstate(over="ignore"):
        expect = padded.reshape(n_warps, 32).sum(axis=1, dtype=np.uint64)
    assert np.array_equal(reduced, expect)


@given(values)
@settings(max_examples=60)
def test_warp_reduce_xor_always_matches_numpy(vals):
    reduced, _ = warp_reduce(vals, "xor")
    n_warps = -(-vals.size // 32)
    padded = np.zeros(n_warps * 32, dtype=np.uint64)
    padded[:vals.size] = vals
    expect = np.bitwise_xor.reduce(padded.reshape(n_warps, 32), axis=1)
    assert np.array_equal(reduced, expect)
