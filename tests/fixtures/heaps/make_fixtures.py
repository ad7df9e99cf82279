"""Regenerate the checked-in heap fixtures (run from the repo root).

    PYTHONPATH=src python tests/fixtures/heaps/make_fixtures.py

The committed files were written by the commit *before* the heap
surface was unified (``MappedShadow.create`` / ``ShardedShadow.create``
called directly), which is the point: ``tests/nvm/test_format_compat.py``
pins that today's ``open_heap`` / ``adopt`` / ``inspect_path`` still
read those bytes. Regenerating them with a newer writer only proves
the writer agrees with itself, so do it only for a deliberate format
bump — and say so in the commit.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.gpu.memory import GlobalMemory
from repro.nvm.mapped import MappedShadow
from repro.nvm.sharded import ShardedShadow

HERE = Path(__file__).resolve().parent
#: 4224-byte header + journal, 2 KiB directory, 8 KiB data: 14.5 KiB a file.
GEOMETRY = dict(line_size=128, dir_capacity=2048, data_capacity=8192)
BUFFERS = (("x", (40,), np.float64), ("__lp_table", (48,), np.uint32),
           ("y", (24,), np.int32))


def fill(heap):
    mem = GlobalMemory(cache_capacity_lines=4, shadow=heap)
    for i, (name, shape, dtype) in enumerate(BUFFERS):
        buf = mem.alloc(name, shape, dtype)
        n = int(np.prod(shape))
        mem.write(buf, np.arange(n), (np.arange(n) * (i + 3) + 1).astype(dtype))
    mem.drain()
    return mem


def record(heap, armed):
    return {
        "line_size": heap.line_size,
        "directory": [e.to_dict() for e in heap.entries.values()],
        "armed_lines": armed,
        "images": {
            name: hashlib.sha256(heap.view(name).tobytes()).hexdigest()
            for name in heap.entries},
    }


def main():
    expected = {}

    plain = MappedShadow.create(HERE / "plain.lpnv", **GEOMETRY)
    fill(plain)
    expected["plain.lpnv"] = record(plain, [])
    plain.close()

    sharded = ShardedShadow.create(HERE / "sharded2.lpnv", n_shards=2,
                                   **GEOMETRY)
    fill(sharded)
    # Leave shard-of-"x"'s journal armed on two of x's lines, as a
    # SIGKILL inside the write-back window would.
    first, _ = sharded.entries["x"].line_span(sharded.line_size)
    armed = [first, first + 2]
    sharded.arm(armed)
    doc = record(sharded, armed)
    doc["owner"] = {name: sharded.shard_of_buffer(name)
                    for name in sharded.entries}
    expected["sharded2.lpnv"] = doc
    sharded.close()  # no commit: the journal stays armed on disk

    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
