"""Property: ``GlobalMemory.write_rows`` is one ``write`` per step.

The batched engine lands a whole group's deferred stores through
``write_rows``: it replays cache recency on line ids, lands the data in
as few assignments as the evictions allow and writes back once per
evicting step. Whatever the records, the cache capacity or the heap
behind the memory, every observable must equal the reference that
issues one :meth:`GlobalMemory.write` per step in step order: volatile
and NVM images, write statistics, the dirty lines (in recency order)
and eviction count, and the backend's ``arm(lines)`` / ``commit``
sequence.

Records draw over three persistent buffers of different dtypes and a
scratch one, small enough that steps share lines; indices repeat
within a step; masks silence elements and whole rows; multi-word
records (a tuple of distinct buffers) make each word a
step; and an optional ``after_row`` hook reads memory and stores what
it read, as an order-dependent table insert does.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.memory import GlobalMemory
from repro.nvm.mapped import MappedShadow
from repro.nvm.sharded import ShardedShadow

#: (name, elements, dtype, persistent)
BUFFERS = (
    ("a", 96, np.uint64, True),
    ("b", 200, np.int32, True),
    ("c", 64, np.float32, True),
    ("s", 80, np.uint64, False),
)
SIZES = [size for _, size, _, _ in BUFFERS]
CAPACITIES = (0, 1, 2, 8, 64)
HEAPS = ("memory", "mapped", "sharded2")


@st.composite
def records(draw):
    n_rows = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            target = draw(st.integers(0, len(BUFFERS) - 1))
            limit = SIZES[target]
            width = 1
        else:
            target = tuple(draw(st.lists(
                st.integers(0, len(BUFFERS) - 1), min_size=1, max_size=3,
                unique=True)))
            limit = min(SIZES[t] for t in target)
            width = len(target)
        n = draw(st.integers(1, 12))
        # A narrow index range makes duplicates within a step likely.
        span = draw(st.sampled_from([4, 40, limit]))
        idx = np.array(draw(st.lists(
            st.lists(st.integers(0, min(span, limit) - 1),
                     min_size=n, max_size=n),
            min_size=n_rows, max_size=n_rows)), dtype=np.int64)
        raw = np.array(draw(st.lists(
            st.integers(0, 2 ** 31 - 1),
            min_size=n_rows * n * width, max_size=n_rows * n * width)))
        values = raw.reshape((n_rows, n, width) if isinstance(target, tuple)
                             else (n_rows, n))
        mask = None
        if draw(st.booleans()):
            mask = np.array(draw(st.lists(
                st.lists(st.booleans(), min_size=n, max_size=n),
                min_size=n_rows, max_size=n_rows)), dtype=bool)
        out.append((target, idx, values, mask))
    return n_rows, out


def _memory(heap_kind, capacity, tmp_dir):
    shadow = None
    if heap_kind == "mapped":
        shadow = MappedShadow.create(tmp_dir / "heap.lpnv")
    elif heap_kind == "sharded2":
        shadow = ShardedShadow.create(tmp_dir / "heap.lpnv", n_shards=2)
    mem = GlobalMemory(cache_capacity_lines=capacity, shadow=shadow)
    bufs = [mem.alloc(name, (size,), dtype, persistent=persistent)
            for name, size, dtype, persistent in BUFFERS]
    events = []
    if shadow is not None:
        shadow.arm_listener = lambda lines, mode: events.append(
            ("arm", lines, mode))
        shadow.writeback_listener = lambda total: events.append(
            ("commit", total))
    return mem, bufs, shadow, events


def _resolve(bufs, target, idx, values, mask):
    """A drawn record as a ``write_rows`` record."""
    if isinstance(target, tuple):
        return tuple(bufs[t] for t in target), idx, values, mask
    return bufs[target], idx, values.astype(bufs[target].dtype), mask


def _hook(mem, bufs):
    """Read a word the rows may just have written; store it elsewhere."""
    a, b = bufs[0], bufs[1]

    def after_row(row):
        word = a.data[(7 * row) % a.size]
        mem.write(b, np.array([row]), np.array([word]).astype(b.dtype))

    return after_row


def _reference(mem, bufs, n_rows, recs, after_row):
    for r in range(n_rows):
        for target, idx, values, mask in recs:
            keep = np.ones(idx.shape[1], bool) if mask is None else mask[r]
            if isinstance(target, tuple):
                for e in np.flatnonzero(keep):
                    for c, t in enumerate(target):
                        mem.write(bufs[t], idx[r, e:e + 1],
                                  values[r, e:e + 1, c])
            elif keep.any():
                buf = bufs[target]
                mem.write(buf, idx[r][keep],
                          values[r][keep].astype(buf.dtype))
        if after_row is not None:
            after_row(r)


def _observe(mem, bufs, events):
    return {
        "data": [buf.data.tobytes() for buf in bufs],
        "shadow": [None if buf.shadow is None else buf.shadow.tobytes()
                   for buf in bufs],
        "stats": mem.write_stats.to_dict(),
        "dirty": mem.cache.dirty_lines,
        "evictions": mem.cache.evictions,
        "events": events,
    }


@pytest.mark.parametrize("heap_kind", HEAPS)
@given(case=records(), capacity=st.sampled_from(CAPACITIES),
       hooked=st.booleans())
@settings(max_examples=40, deadline=None)
def test_write_rows_equals_one_write_per_step(tmp_path_factory, heap_kind,
                                              case, capacity, hooked):
    n_rows, recs = case
    ref_mem, ref_bufs, ref_heap, ref_events = _memory(
        heap_kind, capacity, tmp_path_factory.mktemp("ref"))
    mem, bufs, heap, events = _memory(
        heap_kind, capacity, tmp_path_factory.mktemp("got"))
    try:
        _reference(ref_mem, ref_bufs, n_rows, recs,
                   _hook(ref_mem, ref_bufs) if hooked else None)
        mem.write_rows(n_rows, [_resolve(bufs, *rec) for rec in recs],
                       _hook(mem, bufs) if hooked else None)
        assert _observe(mem, bufs, events) \
            == _observe(ref_mem, ref_bufs, ref_events)
    finally:
        for h in (ref_heap, heap):
            if h is not None:
                h.close()
