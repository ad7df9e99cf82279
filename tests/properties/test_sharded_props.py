"""Property: sharded placement is re-derivable and unchanged.

``ShardedShadow`` keeps the block→shard map only in memory (per-block
refcounts, per-shard load counters) and rebuilds it from the shard
directories at open. For an arbitrary attach / detach sequence —
bump allocations, frees, and new buffers landing on freed addresses —
over {1, 2, 4} shards and both a fine and a coarse block granularity,
after every step

* a cold ``open`` of the same files derives exactly the live state, and
* every buffer lives in the shard the original placement rule picks.

The second half pins that rule with a reference written the way the
map was first maintained: rescan the whole block table for the loads,
rescan every buffer to decide whether a freed block is still in use.
Same owners for the same allocation order means the shard files stay
byte-identical to the ones heaps created before the map was derived.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.errors import HeapLayoutError
from repro.nvm.sharded import ShardedShadow
from tests.nvm.test_sharded import _buffer_at, _placement

LINE = 128

#: ("alloc", n_lines) bumps the cursor; ("free", i) drops the i-th live
#: buffer; ("reuse", i) homes a new buffer in the i-th freed span.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 9)),
        st.tuples(st.just("free"), st.integers(0, 63)),
        st.tuples(st.just("reuse"), st.integers(0, 63)),
    ),
    min_size=1, max_size=30,
)


class ReferencePlacement:
    """Least-loaded by mapped-block count, ties to the lowest shard id;
    blocks an overlapping buffer already claimed pin the shard."""

    def __init__(self, n_shards, block_lines):
        self.n_shards = n_shards
        self.block_lines = block_lines
        self.block_map = {}
        self.spans = {}  # name -> (first_line, n_lines)
        self.owner = {}

    def _blocks(self, first, n_lines):
        return range(first // self.block_lines,
                     (first + n_lines - 1) // self.block_lines + 1)

    def attach(self, name, first, n_lines):
        """The owning shard, or ``None`` when the span is already split."""
        blocks = self._blocks(first, n_lines)
        pinned = {self.block_map[b] for b in blocks if b in self.block_map}
        if len(pinned) > 1:
            return None
        if pinned:
            shard = pinned.pop()
        else:
            loads = [0] * self.n_shards
            for owner in self.block_map.values():
                loads[owner] += 1
            shard = min(range(self.n_shards), key=lambda k: (loads[k], k))
        for block in blocks:
            self.block_map.setdefault(block, shard)
        self.spans[name] = (first, n_lines)
        self.owner[name] = shard
        return shard

    def detach(self, name):
        first, n_lines = self.spans.pop(name)
        del self.owner[name]
        for block in self._blocks(first, n_lines):
            lo = block * self.block_lines
            hi = lo + self.block_lines
            if not any(f < hi and f + n > lo
                       for f, n in self.spans.values()):
                del self.block_map[block]


@pytest.mark.parametrize("block_lines", [1, 4])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
@given(steps=steps)
# On 2 shards x 4-line blocks this frees two neighbours, lets a new
# buffer take the first one's block to the other shard, then offers a
# span that straddles both owners: the refused-attach path.
@example(steps=[("alloc", 1), ("alloc", 6), ("alloc", 1), ("alloc", 4),
                ("alloc", 4), ("alloc", 8), ("free", 0), ("free", 0),
                ("reuse", 0), ("reuse", 0)])
@settings(max_examples=60, deadline=None)
def test_live_placement_equals_cold_derivation_and_reference(
        tmp_path_factory, n_shards, block_lines, steps):
    path = tmp_path_factory.mktemp("sharded") / "heap.lpnv"
    heap = ShardedShadow.create(path, n_shards=n_shards, line_size=LINE,
                                dir_capacity=8 * 1024,
                                data_capacity=64 * 1024,
                                block_lines=block_lines)
    ref = ReferencePlacement(n_shards, block_lines)
    cursor = 0          # next never-used line
    live = []           # names, attach order
    holes = []          # (first_line, n_lines) of freed buffers
    for serial, (op, arg) in enumerate(steps):
        name = f"b{serial}"
        if op == "free" and live:
            victim = live.pop(arg % len(live))
            holes.append(ref.spans[victim])
            ref.detach(victim)
            heap.detach(victim)
        elif op == "reuse" and holes:
            first, n_lines = holes.pop(arg % len(holes))
        elif op == "alloc":
            first, n_lines = cursor, arg
            cursor += arg
        else:
            continue
        if op != "free":
            buf = _buffer_at(first * LINE, name, (n_lines * LINE,),
                             np.uint8)
            if ref.attach(name, first, n_lines) is None:
                event("span already split across shards")
                with pytest.raises(HeapLayoutError):
                    heap.attach(buf)
                holes.append((first, n_lines))
            else:
                heap.attach(buf)
                live.append(name)

        owner, block_map, refs, loads = _placement(heap)
        assert owner == ref.owner
        assert block_map == ref.block_map
        assert loads == [sum(1 for s in block_map.values() if s == k)
                         for k in range(n_shards)]
        assert set(refs) == set(block_map)
        with ShardedShadow.open(path) as cold:
            assert _placement(cold) == (owner, block_map, refs, loads)
            assert list(cold.entries) == sorted(
                live, key=lambda n: ref.spans[n][0])
    heap.close()
