"""Unit tests for the analytic overhead harness."""

import numpy as np
import pytest

from repro.bench.harness import (
    dilation_weight,
    estimate,
    geomean_overhead,
    geomean_slowdown,
    lp_update_and_reduction_tally,
    table_space_bytes,
)
from repro.bench.profiles import BANDWIDTH, INST, BenchProfile, PROFILES
from repro.core.config import (
    ChecksumKind,
    LockMode,
    LPConfig,
    ReductionMode,
)
from repro.core.tables import make_table
from repro.gpu.costs import CostModel
from repro.gpu.memory import GlobalMemory


def test_update_tally_matches_functional_charges():
    """The analytic per-store/reduction costs mirror the runtime's."""
    import repro
    from repro.core.runtime import LPRuntime
    from repro.workloads.tmm import TMMWorkload

    device = repro.Device()
    work = TMMWorkload(scale="tiny")
    kernel = work.setup(device)
    lp_kernel = LPRuntime(device).instrument(kernel)

    base_dev = repro.Device()
    base_kernel = TMMWorkload(scale="tiny").setup(base_dev)
    base = base_dev.launch(base_kernel)
    lp = device.launch(lp_kernel)

    cfg = kernel.launch_config()
    predicted = lp_update_and_reduction_tally(
        cfg.n_blocks, cfg.threads_per_block,
        stores_per_thread=1.0, config=LPConfig.paper_best(),
    )
    measured_alu = lp.tally.alu_ops - base.tally.alu_ops
    measured_shfl = lp.tally.shuffle_ops - base.tally.shuffle_ops
    assert measured_shfl == predicted.shuffle_ops
    assert measured_alu == pytest.approx(predicted.alu_ops)


def test_table_space_matches_functional_tables():
    model = CostModel()
    for config in (LPConfig.paper_best(), LPConfig.naive_quadratic(),
                   LPConfig.naive_cuckoo()):
        mem = GlobalMemory(cache_capacity_lines=64)
        table = make_table(mem, "t", 100, 2, config, model)
        assert table_space_bytes(config, 100) == table.space_bytes
    for config in (LPConfig.naive_quadratic(), LPConfig.naive_cuckoo()):
        mem = GlobalMemory(cache_capacity_lines=64)
        table = make_table(mem, "t", 100, 2, config, model,
                           perfect_hash=True)
        assert table_space_bytes(config, 100, perfect_hash=True) \
            == table.space_bytes


def test_estimate_lp_never_faster_than_baseline():
    for profile in PROFILES.values():
        for config in (LPConfig.paper_best(), LPConfig.naive_quadratic(),
                       LPConfig.naive_cuckoo()):
            e = estimate(profile, config)
            assert e.overhead >= 0


def test_lock_based_dominates_lock_free():
    for profile in PROFILES.values():
        free = estimate(profile, LPConfig.naive_quadratic())
        lock = estimate(
            profile,
            LPConfig.naive_quadratic().with_(locks=LockMode.LOCK_BASED),
        )
        assert lock.slowdown > free.slowdown


def test_global_array_is_the_cheapest_table():
    for profile in PROFILES.values():
        ga = estimate(profile, LPConfig.paper_best())
        quad = estimate(profile, LPConfig.naive_quadratic())
        assert ga.overhead <= quad.overhead + 1e-9


def test_sequential_reduction_never_cheaper():
    for profile in PROFILES.values():
        shfl = estimate(profile, LPConfig.naive_quadratic())
        noshfl = estimate(
            profile,
            LPConfig.naive_quadratic().with_(
                reduction=ReductionMode.SEQUENTIAL_MEMORY
            ),
        )
        assert noshfl.overhead >= shfl.overhead - 1e-9


def test_estimate_space_overhead():
    e = estimate(PROFILES["tmm"], LPConfig.paper_best())
    # 16384 blocks x 2 lanes x 8 B over 16384x1024 int32 outputs.
    assert e.space_overhead == pytest.approx(
        (16384 * 16) / (16384 * 1024 * 4)
    )


def test_geomean_helpers():
    assert geomean_overhead([0.0, 0.0]) == pytest.approx(0.0)
    assert geomean_slowdown([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean_overhead([1.0, 0.0]) == pytest.approx(2 ** 0.5 - 1)
    with pytest.raises(ValueError):
        geomean_overhead([])


def test_dilation_weight_scales_with_lanes():
    one = dilation_weight(LPConfig(checksums=(ChecksumKind.MODULAR,)))
    two = dilation_weight(LPConfig.paper_best())
    assert one < two == 1.0


def test_baseline_tally_respects_bottleneck():
    model = CostModel()
    for profile in PROFILES.values():
        t = model.time_of(profile.baseline_tally(model))
        if profile.bottleneck == BANDWIDTH:
            assert t.memory_cycles >= t.compute_cycles
        else:
            assert t.compute_cycles >= t.memory_cycles
        assert t.total_cycles == pytest.approx(profile.baseline_cycles,
                                               rel=0.01)


def test_profile_validation():
    with pytest.raises(ValueError):
        BenchProfile("x", 10, 32, 1.0, 4, 1e6, "quantum")
