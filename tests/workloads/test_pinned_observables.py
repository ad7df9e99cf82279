"""Every pinned kernel against the observables recorded beside it.

``tests/fixtures/kernels/expected.json`` holds what a clean launch +
drain, a crash at half the grid + recover + drain, and the same crash
under an Adler-32 lane leave behind for each of the eight Parboil
kernels at ``small`` and ``medium``, the same crash through each hash
table's walk (lock-free, and locked with emulated atomics) at
``small``, the same kernels under Eager Persistency, clean and crashed
and recovered from the undo log, at ``small``, and the clean, crash and
Adler-32 legs of the MEGA-KV write and search kernels (see ``make_fixtures.py`` beside it for which
bodies wrote each part). Both engines must still
reproduce it bit for bit: image hashes, every ``Tally`` field, cycles,
write-back statistics, failed blocks and recovery cycles. Engine parity
alone cannot catch an error both engines share.
"""

import json

import pytest

from repro.workloads import WORKLOADS
from tests.fixtures.kernels.make_fixtures import (
    HERE,
    KV_KERNELS,
    KV_LEGS,
    OBSERVE,
    SCALES,
    SMALL_LEGS,
    TABLE_SCALE,
    legs_at,
)

EXPECTED = json.loads((HERE / "expected.json").read_text())


def test_fixture_covers_every_kernel_scale_and_leg():
    assert sorted(EXPECTED) == sorted([*WORKLOADS, *KV_KERNELS])
    for name in WORKLOADS:
        assert sorted(EXPECTED[name]) == sorted(SCALES)
        for scale, by_leg in EXPECTED[name].items():
            assert sorted(by_leg) == sorted(legs_at(scale))
    for name in KV_KERNELS:
        assert sorted(EXPECTED[name]) == sorted(KV_LEGS)


def _assert_reproduces(want, have):
    have = json.loads(json.dumps(have))
    for key in want:
        assert have[key] == want[key], key
    assert have.keys() == want.keys()


@pytest.mark.parametrize("leg", sorted(OBSERVE))
@pytest.mark.parametrize("engine", ["serial", "batched"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_reproduces_its_pinned_observables(name, scale, engine, leg):
    _assert_reproduces(EXPECTED[name][scale][leg],
                       OBSERVE[leg](name, scale, engine))


@pytest.mark.parametrize("leg", sorted(SMALL_LEGS))
@pytest.mark.parametrize("engine", ["serial", "batched"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_reproduces_its_pinned_small_legs(name, engine, leg):
    """The hash-table walks and the EP legs, at ``small`` only."""
    _assert_reproduces(EXPECTED[name][TABLE_SCALE][leg],
                       SMALL_LEGS[leg](name, TABLE_SCALE, engine))


@pytest.mark.parametrize("leg", KV_LEGS)
@pytest.mark.parametrize("engine", ["serial", "batched"])
@pytest.mark.parametrize("name", KV_KERNELS)
def test_megakv_kernel_reproduces_its_pinned_observables(name, engine, leg):
    _assert_reproduces(EXPECTED[name][leg], OBSERVE[leg](name, None, engine))
