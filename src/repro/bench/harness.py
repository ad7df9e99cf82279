"""Analytic benchmark harness: baseline vs LP-variant overheads.

Given a paper-scale :class:`~repro.bench.profiles.BenchProfile` and an
:class:`~repro.core.config.LPConfig`, :func:`estimate` produces the
modeled execution-time overhead of that LP variant, decomposed into the
mechanisms DESIGN.md §5 describes:

* checksum updates + block reduction (table-independent; exactly the
  operation counts the functional runtime charges),
* checksum-table insertion: measured probe/collision counts (from
  :mod:`repro.bench.insertsim`) fed into the contention sub-models —
  same-region atomic saturation for lock-free hash tables, convoy
  serialization for lock-based ones, dependent-round-trip storms for
  the emulated-atomics ablation, and a single plain store for the
  global array.

The same functions drive every table/figure reproduction in
:mod:`repro.bench.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.bench.insertsim import InsertSim, simulate_insertions
from repro.core.checksum import ChecksumSet
from repro.core.config import (
    AtomicMode,
    LockMode,
    LPConfig,
    ReductionMode,
    TableKind,
)
from repro.core.reduction import reduction_tally
from repro.core.tables import TABLE_CLASSES, WORD_BYTES
from repro.gpu.costs import CostModel, Tally, TimeBreakdown


@lru_cache(maxsize=None)
def cached_checksum_set(kinds) -> ChecksumSet:
    """One :class:`ChecksumSet` per checksum-kind tuple.

    ``estimate`` runs per (profile, config) pair across whole design
    spaces; the lane functions are stateless, so rebuilding the set on
    every call was pure allocation churn. ``LPConfig.checksums`` tuples
    hash by value, making them ideal cache keys.
    """
    return ChecksumSet(kinds)


def lp_update_and_reduction_tally(
    n_blocks: int,
    threads_per_block: int,
    stores_per_thread: float,
    config: LPConfig,
) -> Tally:
    """Tally of LP's table-independent work for a whole launch.

    Checksum updates per protected store plus the per-block reduction,
    using the same per-operation counts as the functional runtime
    (pinned by tests against :mod:`repro.core.reduction`).
    """
    cset = cached_checksum_set(config.checksums)
    tally = Tally(n_blocks=n_blocks, threads_per_block=threads_per_block)
    total_stores = n_blocks * threads_per_block * stores_per_thread
    tally.alu_ops += total_stores * cset.ops_per_update

    n_comm = sum(1 for k in config.checksums if k.commutative)
    red = reduction_tally(config.reduction, threads_per_block, n_comm)
    tally.alu_ops += red.alu_ops * n_blocks
    tally.shuffle_ops += red.shuffle_ops * n_blocks
    tally.shared_bytes += red.shared_bytes * n_blocks
    tally.global_read_bytes += red.global_bytes / 2 * n_blocks
    tally.global_write_bytes += red.global_bytes / 2 * n_blocks
    tally.syncthreads += red.syncthreads * n_blocks

    if config.reduction is ReductionMode.SEQUENTIAL_MEMORY:
        # The no-shuffle variant additionally stages every checksum
        # update through shared/global memory ("we store data to these
        # memories and calculate checksums sequentially", §IV-D-5),
        # which is what crushes the bandwidth-bound benchmarks.
        staged = total_stores * WORD_BYTES * n_comm
        tally.shared_bytes += 2 * staged
        tally.global_read_bytes += staged
        tally.global_write_bytes += staged
    return tally


@dataclass(frozen=True)
class LPEstimate:
    """Modeled cost of one LP variant on one paper-scale benchmark."""

    profile_name: str
    config: LPConfig
    baseline: TimeBreakdown
    lp: TimeBreakdown
    insert_sim: InsertSim
    table_bytes: float
    protected_bytes: float

    @property
    def overhead(self) -> float:
        """Fractional execution-time overhead (0.021 = 2.1 %)."""
        return self.lp.overhead_vs(self.baseline)

    @property
    def slowdown(self) -> float:
        """Multiplicative slowdown (Table III's unit)."""
        return self.lp.slowdown_vs(self.baseline)

    @property
    def space_overhead(self) -> float:
        """Checksum-table bytes / protected data bytes (Table V)."""
        return self.table_bytes / self.protected_bytes


def table_space_bytes(config: LPConfig, n_keys: int,
                      perfect_hash: bool = False) -> int:
    """Device footprint of the checksum table a config would allocate:
    the table class's own sizing (``ChecksumTable.space_for``)."""
    return TABLE_CLASSES[config.table].space_for(
        n_keys, len(config.checksums), config, perfect_hash)


def insertion_tally(
    config: LPConfig,
    n_blocks: int,
    threads_per_block: int,
    sim: InsertSim,
    model: CostModel,
    baseline: TimeBreakdown,
) -> Tally:
    """Tally of the checksum-table insertion phase for a launch.

    The contention model: block leaders' insertions all target the same
    small table region, whose atomic units serve one operation per
    :attr:`~repro.gpu.costs.CostCoefficients.table_region_interval_cycles`.
    While that demand fits inside the kernel's own runtime it hides
    behind the computation; the excess serializes at the tail. This
    saturation is what separates MRI-GRIDDING and SAD (short kernels,
    huge grids) from everything else in Figure 5.
    """
    spec = model.spec
    lanes = len(config.checksums)
    tally = Tally(n_blocks=n_blocks, threads_per_block=1)

    # Entry traffic: every successful insert writes key + lane words;
    # each probe touches a key word.
    tally.global_write_bytes += n_blocks * (1 + lanes) * WORD_BYTES
    tally.global_read_bytes += sim.probes * WORD_BYTES

    if config.table is TableKind.GLOBAL_ARRAY:
        # One uncontended store per block; no key, no probes, no atomics.
        tally.global_read_bytes = 0.0
        tally.global_write_bytes = n_blocks * lanes * WORD_BYTES
        return tally

    slack = baseline.overlapped_cycles
    # Emulated atomics' plain load/store sequences still hit the same
    # contended lines; their L2 service is no cheaper than the atomics
    # they replace, so the atomic-unit floor applies either way.
    tally.atomic_ops += sim.probes
    if config.atomics is AtomicMode.EMULATED:
        emulated = (model.emulated_cas_cycles
                    if config.table is TableKind.QUADRATIC
                    else model.emulated_swap_cycles)
        tally.serial_cycles += emulated(sim.collisions, n_blocks,
                                        threads_per_block,
                                        slack_cycles=slack)
    else:
        factor = (model.coeff.cuckoo_exch_factor
                  if config.table is TableKind.CUCKOO else 1.0)
        demand = (sim.collisions * factor
                  * model.coeff.table_region_interval_cycles)
        tally.serial_cycles += max(0.0, demand - slack)

    if config.locks is LockMode.LOCK_BASED:
        avg_chain = sim.probes / max(sim.n_keys, 1)
        cs_extra = avg_chain * spec.global_latency_cycles
        tally.serial_cycles += model.lock_convoy_cycles(
            n_blocks,
            cs_extra_cycles=cs_extra,
            population=n_blocks,
            threads_per_block=threads_per_block,
        )
    return tally


def dilation_weight(config: LPConfig) -> float:
    """Scale of the occupancy-dilation anchor with the checksum choice.

    LP instrumentation costs registers and scheduling slots roughly in
    proportion to the checksum lanes each thread carries and the work
    each update performs. The paper's recommendation — two lanes, three
    ops per update — is the anchor point (weight 1.0); single-checksum
    variants dilute slightly less (Section VII-2's "minor additional
    overheads" for the second checksum) and Adler-32's eight-op updates
    dilute substantially more ("significantly more expensive",
    Section IV-B).
    """
    cset = cached_checksum_set(config.checksums)
    return 0.5 + 0.125 * cset.n_lanes + (0.25 / 3.0) * cset.ops_per_update


def estimate(
    profile,
    config: LPConfig,
    model: CostModel | None = None,
    perfect_hash: bool = False,
) -> LPEstimate:
    """Modeled overhead of one LP variant on one benchmark profile."""
    model = model or CostModel()
    base_tally = profile.baseline_tally(model)
    baseline = model.time_of(base_tally)

    lp_tally = base_tally.copy()
    lp_tally.merge(
        lp_update_and_reduction_tally(
            profile.n_blocks,
            profile.threads_per_block,
            profile.stores_per_thread,
            config,
        )
    )
    sim = simulate_insertions(config, profile.n_blocks,
                              perfect_hash=perfect_hash)
    lp_tally.merge(
        insertion_tally(config, profile.n_blocks,
                        profile.threads_per_block, sim, model, baseline)
    )

    # Occupancy dilation: the calibrated per-benchmark anchor (see
    # profiles.py) applied to the dominant pipe.
    dilation = getattr(profile, "lp_dilation", 0.0) * dilation_weight(config)
    if dilation > 0.0:
        if profile.bottleneck == "bw":
            extra = dilation * base_tally.global_bytes
            lp_tally.global_read_bytes += extra
        else:
            lp_tally.alu_ops += dilation * base_tally.alu_ops

    if config.reduction is ReductionMode.SEQUENTIAL_MEMORY:
        # One thread folds the whole block's staged checksums while the
        # block waits; the exposed shared-memory latency extends every
        # resident wave's critical path.
        n_comm = sum(1 for k in config.checksums if k.commutative)
        per_block = (profile.threads_per_block * n_comm
                     * model.coeff.shared_read_latency_cycles)
        waiters = model.concurrent_waiters(
            profile.n_blocks, profile.threads_per_block
        )
        waves = math.ceil(profile.n_blocks / waiters)
        lp_tally.serial_cycles += per_block * waves

    return LPEstimate(
        profile_name=profile.name,
        config=config,
        baseline=baseline,
        lp=model.time_of(lp_tally),
        insert_sim=sim,
        table_bytes=table_space_bytes(config, profile.n_blocks,
                                      perfect_hash),
        protected_bytes=profile.protected_data_bytes,
    )


def geomean_overhead(overheads) -> float:
    """Geometric-mean overhead of a set of fractional overheads.

    Matches the paper's convention: the geometric mean is taken over
    slowdowns (``1 + overhead``), then converted back to an overhead.
    """
    return geomean_slowdown(1.0 + o for o in overheads) - 1.0


def geomean_slowdown(slowdowns) -> float:
    """Geometric mean of multiplicative slowdowns (Table III's row)."""
    slowdowns = list(slowdowns)
    if not slowdowns:
        raise ValueError("no slowdowns to aggregate")
    return math.exp(sum(math.log(s) for s in slowdowns) / len(slowdowns))
