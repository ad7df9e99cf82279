"""Every Parboil kernel against the observables pinned beside it.

``tests/fixtures/kernels/expected.json`` holds what a clean launch +
drain and a crash at half the grid + recover + drain leave behind for
each of the eight kernels at ``small`` and ``medium``, as written by
the kernel bodies before the pair kernels' arithmetic was cut down to
what their sums read (see ``make_fixtures.py`` beside it). Both engines
must still reproduce it bit for bit: image hashes, every ``Tally``
field, cycles, write-back statistics, failed blocks and recovery
cycles. Engine parity alone cannot catch an error the scalar and the
vector body share.
"""

import json

import pytest

from repro.workloads import WORKLOADS
from tests.fixtures.kernels.make_fixtures import HERE, OBSERVE, SCALES

EXPECTED = json.loads((HERE / "expected.json").read_text())


def test_fixture_covers_every_kernel_scale_and_leg():
    assert sorted(EXPECTED) == sorted(WORKLOADS)
    for by_scale in EXPECTED.values():
        assert sorted(by_scale) == sorted(SCALES)
        for by_leg in by_scale.values():
            assert sorted(by_leg) == sorted(OBSERVE)


@pytest.mark.parametrize("leg", sorted(OBSERVE))
@pytest.mark.parametrize("engine", ["serial", "batched"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_reproduces_its_pinned_observables(name, scale, engine, leg):
    want = EXPECTED[name][scale][leg]
    have = json.loads(json.dumps(OBSERVE[leg](name, scale, engine)))
    for key in want:
        assert have[key] == want[key], key
    assert have.keys() == want.keys()
