"""Property-based tests: the pair kernels' helpers equal the formulas
they replaced, bit for bit.

TPACF's ``_bin_of`` must land on ``np.digitize``'s index; MRI-GRIDDING's
``_tile_r2`` / ``_window`` and CUTCP's ``_potential`` must produce the
float32 words the full-array ``np.where`` forms did (compared as
``uint32``). The inputs sit where the shortcuts could slip: on and one
ulp either side of every bin edge, the support radius, the cutoff and
the ``1e-12`` floor, at ``r2 == 0`` and ``q == 0`` (the ``0/0`` lane),
over lengths 1-67 so every SIMD tail is taken.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.workloads.cutcp import _SCALE_SHAPES as CUTCP_SHAPES
from repro.workloads.cutcp import _potential
from repro.workloads.mri_gridding import _SCALE_SHAPES as MRIG_SHAPES
from repro.workloads.mri_gridding import _tile_r2, _window
from repro.workloads.tpacf import _bin_edges, _bin_of

F32 = np.float32


def _around(*values) -> list[float]:
    """Each value and its float32 neighbours on both sides."""
    out = []
    for v in np.asarray(values, dtype=F32):
        out += [np.nextafter(v, F32(-np.inf)), v, np.nextafter(v, F32(np.inf))]
    return [float(x) for x in out]


def _bits(a: np.ndarray) -> np.ndarray:
    assert a.dtype == F32
    return a.view(np.uint32)


# -- TPACF ------------------------------------------------------------------


@pytest.mark.parametrize("n_bins", range(2, 65))
def test_bin_of_equals_digitize_on_every_edge(n_bins):
    edges = _bin_edges(n_bins)
    dots = np.array(_around(*edges, -1.0, 1.0) + [0.0, -0.0], dtype=F32)
    assert np.array_equal(_bin_of(dots, edges), np.digitize(dots, edges))


@given(st.integers(2, 64),
       hnp.arrays(F32, st.tuples(st.integers(1, 3), st.integers(1, 67)),
                  elements=st.floats(-1.25, 1.25, width=32)))
@settings(max_examples=200)
def test_bin_of_equals_digitize_anywhere(n_bins, dots):
    edges = _bin_edges(n_bins)
    got = _bin_of(dots, edges)
    assert got.shape == dots.shape
    assert np.array_equal(got, np.digitize(dots, edges))


# -- MRI-GRIDDING -----------------------------------------------------------

WIDTHS = sorted({F32(width) for *_, width in MRIG_SHAPES.values()})


def _support(width):
    return F32((2.0 * float(width)) ** 2), F32(1.0) / (width * width)


def _r2_arrays(specials):
    """``(lead, n)`` float32 r² arrays, n in 1-67, mixing the special
    values with arbitrary ones."""
    elements = st.one_of(st.sampled_from(specials),
                         st.floats(0.0, 300.0, width=32))
    return hnp.arrays(F32, st.tuples(st.integers(1, 3), st.integers(1, 67)),
                      elements=elements)


WINDOW_SPECIALS = _around(0.0, 1e-12, *(_support(w)[0] for w in WIDTHS))


@given(st.sampled_from(WIDTHS), _r2_arrays(WINDOW_SPECIALS))
@settings(max_examples=200)
def test_window_equals_the_where_form(width, r2):
    support2, inv_w2 = _support(width)
    want = np.where(r2 < support2, np.exp(-r2 * inv_w2), F32(0.0))
    assert np.array_equal(_bits(_window(r2, support2, inv_w2)), _bits(want))


@given(st.integers(1, 8), st.integers(1, 67), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_tile_r2_equals_per_cell_distances(tile, n, seed):
    rng = np.random.default_rng(seed)
    bx, by = rng.integers(0, 8, size=2)
    sx = (rng.random(n, dtype=F32) * 64).astype(F32)
    sy = (rng.random(n, dtype=F32) * 64).astype(F32)
    cols = (bx * tile + np.arange(tile)).astype(F32)
    rows = (by * tile + np.arange(tile)).astype(F32)
    # The per-cell formula, cells in thread order ty * tile + tx.
    tid = np.arange(tile * tile)
    cx = (bx * tile + tid % tile).astype(F32)
    cy = (by * tile + tid // tile).astype(F32)
    dx = cx[:, None] - sx[None, :]
    dy = cy[:, None] - sy[None, :]
    want = dx * dx + dy * dy
    assert np.array_equal(_bits(_tile_r2(cols, rows, sx, sy)), _bits(want))
    # A group of tiles is the same tile stacked.
    group = _tile_r2(np.stack([cols] * 3), np.stack([rows] * 3), sx, sy)
    assert np.array_equal(_bits(group), _bits(np.stack([want] * 3)))


# -- CUTCP ------------------------------------------------------------------

CUTOFFS = sorted({F32(cutoff) for *_, cutoff in CUTCP_SHAPES.values()})
POTENTIAL_SPECIALS = _around(0.0, 1e-12, *(c * c for c in CUTOFFS))


def _assert_potential_matches(r2, aq, cutoff):
    cutoff2 = cutoff * cutoff
    inside = (r2 < cutoff2) & (r2 > F32(1e-12))
    want = np.where(
        inside,
        aq / np.sqrt(r2, where=r2 > 0, out=np.ones_like(r2)),
        F32(0.0),
    ).astype(F32)
    assert np.array_equal(_bits(_potential(r2, aq, cutoff2)), _bits(want))


@pytest.mark.parametrize("cutoff", CUTOFFS)
def test_potential_on_the_special_lanes(cutoff):
    """Every special r² against q = 0 (``0/0`` at r² = 0), +1 and -1."""
    r2 = np.array(POTENTIAL_SPECIALS, dtype=F32)[:, None]
    aq = np.array([0.0, 1.0, -1.0], dtype=F32)
    _assert_potential_matches(np.repeat(r2, aq.size, axis=1), aq, cutoff)


@given(st.sampled_from(CUTOFFS), _r2_arrays(POTENTIAL_SPECIALS), st.data())
@settings(max_examples=200)
def test_potential_equals_the_masked_sqrt_form(cutoff, r2, data):
    charges = st.one_of(st.just(0.0), st.floats(-1.0, 1.0, width=32))
    aq = data.draw(hnp.arrays(F32, r2.shape[-1], elements=charges))
    _assert_potential_matches(r2, aq, cutoff)
