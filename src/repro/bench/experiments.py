"""Experiment registry: one reproduction per paper table / figure.

Each experiment returns an :class:`ExperimentResult` holding structured
rows (for assertions in the benchmark suite), a rendered paper-style
table (printed by the benches, recorded in EXPERIMENTS.md), and a
``fidelity`` dict of named shape checks — the claims of the paper that
the reproduction is expected to preserve (who wins, what explodes,
where the crossovers are).

Registry:

====================  =====================================================
``fig5``              hash-table overheads, Quad vs Cuckoo
``table2``            collision counts
``collision_ablation``  §IV-D-2, collisions removed
``atomic_ablation``   §IV-D-3, emulated (non-atomic) primitives
``table3``            lock-based vs lock-free slowdowns
``table4``            parallel vs sequential reduction
``table5``            the global array: time + space overheads
``multi_checksum``    §VII-2, one vs two simultaneous checksums
``write_amp``         §VII-3, NVM write amplification (functional)
``megakv``            §VII-4, key-value store op overheads (functional)
``fig1``              warp shuffle reduction: O(log N) steps, exactness
``fnr``               §IV-B, checksum false negatives under injection
``ep_vs_lp``          extension: Eager Persistency baseline comparison
``fusion``            extension: thread-block fusion of LP regions
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench import paper_data
from repro.bench.harness import (
    LPEstimate,
    estimate,
    geomean_overhead,
    geomean_slowdown,
)
from repro.bench.insertsim import simulate_insertions
from repro.bench.profiles import PROFILES
from repro.bench.report import (
    fmt_count,
    fmt_pct,
    fmt_slowdown,
    render_bars,
    render_table,
)
from repro.core.config import (
    AtomicMode,
    ChecksumKind,
    LockMode,
    LPConfig,
    ReductionMode,
)

#: Benchmarks in paper row order.
BENCHES = paper_data.BENCHES


@dataclass
class ExperimentResult:
    """Output of one experiment reproduction."""

    exp_id: str
    title: str
    rows: list[dict]
    rendered: str
    fidelity: dict[str, bool] = field(default_factory=dict)

    @property
    def fidelity_ok(self) -> bool:
        """True when every shape check held."""
        return all(self.fidelity.values())


def _estimates(config: LPConfig, **kw) -> dict[str, LPEstimate]:
    return {name: estimate(PROFILES[name], config, **kw) for name in BENCHES}


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------

def fig5() -> ExperimentResult:
    """Naive LP overheads: quadratic probing vs cuckoo hashing."""
    quad = _estimates(LPConfig.naive_quadratic())
    cuckoo = _estimates(LPConfig.naive_cuckoo())
    rows = []
    for name in BENCHES:
        rows.append({
            "bench": name,
            "quad": quad[name].overhead,
            "quad_paper": paper_data.FIG5_QUAD[name],
            "cuckoo": cuckoo[name].overhead,
            "cuckoo_paper": paper_data.FIG5_CUCKOO[name],
        })
    gm_q = geomean_overhead(r["quad"] for r in rows)
    gm_c = geomean_overhead(r["cuckoo"] for r in rows)
    rows.append({
        "bench": "geomean", "quad": gm_q,
        "quad_paper": paper_data.FIG5_GEOMEAN["quad"],
        "cuckoo": gm_c, "cuckoo_paper": paper_data.FIG5_GEOMEAN["cuckoo"],
    })

    quad_sorted = sorted(BENCHES, key=lambda n: quad[n].overhead)
    fidelity = {
        # The two huge-grid benchmarks dominate the quad overheads.
        "quad_worst_are_big_grids": set(quad_sorted[-2:]) == {
            "mri-gridding", "sad"
        },
        "quad_geomean_band": 0.10 <= gm_q <= 0.60,
        "cuckoo_beats_quad_on_gridding": (
            cuckoo["mri-gridding"].overhead < quad["mri-gridding"].overhead
        ),
        "small_grids_cheap": all(
            quad[n].overhead < 0.10
            for n in ("tpacf", "histo", "cutcp", "mri-q")
        ),
    }
    rendered = render_table(
        "Figure 5 — naive LP overhead vs baseline (lock-free, shuffle)",
        ["bench", "quad", "paper", "cuckoo", "paper"],
        [[r["bench"], fmt_pct(r["quad"]), fmt_pct(r["quad_paper"]),
          fmt_pct(r["cuckoo"]), fmt_pct(r["cuckoo_paper"])] for r in rows],
    )
    # The paper presents this as a bar chart with the two outliers
    # truncated off the axis; do the same.
    rendered += "\n\n" + render_bars(
        "Figure 5 (as bars; clipped at 60% like the paper's axis)",
        {r["bench"]: {"quad": r["quad"], "cuckoo": r["cuckoo"]}
         for r in rows if r["bench"] != "geomean"},
        clip=0.60,
    )
    return ExperimentResult("fig5", "Hash-table LP overheads", rows,
                            rendered, fidelity)


# ---------------------------------------------------------------------------
# Table II + the collision ablation
# ---------------------------------------------------------------------------

def table2() -> ExperimentResult:
    """Collision counts of the two hash tables at paper-scale grids."""
    rows = []
    for name in BENCHES:
        blocks = PROFILES[name].n_blocks
        q = simulate_insertions(LPConfig.naive_quadratic(), blocks)
        c = simulate_insertions(LPConfig.naive_cuckoo(), blocks)
        rows.append({
            "bench": name,
            "blocks": blocks,
            "quad": q.collisions,
            "quad_paper": paper_data.TABLE2_COLLISIONS[name]["quad"],
            "cuckoo": c.collisions,
            "cuckoo_paper": paper_data.TABLE2_COLLISIONS[name]["cuckoo"],
        })
    big = {"tmm", "mri-gridding", "sad"}
    small_max = max(r["quad"] for r in rows if r["bench"] not in big)
    big_min = min(r["quad"] for r in rows if r["bench"] in big)
    fidelity = {
        "collisions_concentrate_on_big_grids": big_min > 5 * small_max,
        "collisions_grow_with_blocks": (
            sorted(rows, key=lambda r: r["blocks"])[-1]["quad"]
            == max(r["quad"] for r in rows)
        ),
    }
    rendered = render_table(
        "Table II — hash-table collisions",
        ["bench", "blocks", "quad", "paper", "cuckoo", "paper"],
        [[r["bench"], fmt_count(r["blocks"]), fmt_count(r["quad"]),
          fmt_count(r["quad_paper"]), fmt_count(r["cuckoo"]),
          fmt_count(r["cuckoo_paper"])] for r in rows],
        note="absolute counts depend on hash functions and sizing; the "
             "paper's key observation — collisions concentrate on the "
             "huge-grid benchmarks — is the reproduced shape",
    )
    return ExperimentResult("table2", "Collision counts", rows, rendered,
                            fidelity)


def collision_ablation() -> ExperimentResult:
    """§IV-D-2: remove collisions from MRI-GRIDDING's insertions."""
    profile = PROFILES["mri-gridding"]
    rows = []
    for label, config in (
        ("quad", LPConfig.naive_quadratic()),
        ("cuckoo", LPConfig.naive_cuckoo()),
    ):
        with_col = estimate(profile, config)
        without = estimate(profile, config, perfect_hash=True)
        rows.append({
            "table": label,
            "with_collisions": with_col.overhead,
            "collision_free": without.overhead,
            "paper_collision_free": paper_data.COLLISION_ABLATION[label],
        })
    fidelity = {
        "overhead_collapses_without_collisions": all(
            r["collision_free"] < 0.15 * max(r["with_collisions"], 1e-9)
            or r["collision_free"] < 0.05
            for r in rows
        ),
    }
    rendered = render_table(
        "Collision ablation — MRI-GRIDDING (SS IV-D-2)",
        ["table", "with collisions", "collision-free", "paper (c-free)"],
        [[r["table"], fmt_pct(r["with_collisions"]),
          fmt_pct(r["collision_free"]),
          fmt_pct(r["paper_collision_free"])] for r in rows],
        note="the paper's conclusion: 'much of the slowdown comes from "
             "hash table collision'",
    )
    return ExperimentResult("collision_ablation",
                            "Collision-free MRI-GRIDDING", rows, rendered,
                            fidelity)


def atomic_ablation() -> ExperimentResult:
    """§IV-D-3: replace atomics with plain load/store sequences."""
    rows = []
    for name in BENCHES:
        p = PROFILES[name]
        q_hw = estimate(p, LPConfig.naive_quadratic())
        q_em = estimate(
            p, LPConfig.naive_quadratic().with_(atomics=AtomicMode.EMULATED)
        )
        c_hw = estimate(p, LPConfig.naive_cuckoo())
        c_em = estimate(
            p, LPConfig.naive_cuckoo().with_(atomics=AtomicMode.EMULATED)
        )
        rows.append({
            "bench": name,
            "quad_hw": q_hw.overhead, "quad_emulated": q_em.slowdown,
            "cuckoo_hw": c_hw.overhead, "cuckoo_emulated": c_em.overhead,
        })
    gm_q = geomean_slowdown(r["quad_emulated"] for r in rows)
    gm_c = geomean_overhead(r["cuckoo_emulated"] for r in rows)
    fidelity = {
        "quad_emulated_blows_up": gm_q >= 8.0,
        "cuckoo_emulated_mild": 0.1 <= gm_c <= 1.5,
        "atomics_never_slower": all(
            r["quad_hw"] + 1.0 <= r["quad_emulated"] + 1e-9
            and r["cuckoo_hw"] <= r["cuckoo_emulated"] + 1e-9
            for r in rows
        ),
    }
    rendered = render_table(
        "Atomic ablation (SS IV-D-3) — hardware atomics vs emulation",
        ["bench", "quad hw", "quad emul", "cuckoo hw", "cuckoo emul"],
        [[r["bench"], fmt_pct(r["quad_hw"]),
          fmt_slowdown(r["quad_emulated"]), fmt_pct(r["cuckoo_hw"]),
          fmt_pct(r["cuckoo_emulated"])] for r in rows]
        + [["geomean", "-", fmt_slowdown(gm_q), "-", fmt_pct(gm_c)]],
        note=f"paper: cuckoo 41.9% and quad >16x without atomics; "
             f"measured geomeans {gm_q:.1f}x (quad), {gm_c * 100:.1f}% "
             "(cuckoo) — using atomics improves performance",
    )
    return ExperimentResult("atomic_ablation", "Atomics vs emulation",
                            rows, rendered, fidelity)


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------

def table3() -> ExperimentResult:
    """Lock-based vs lock-free insertion slowdowns."""
    rows = []
    for name in BENCHES:
        p = PROFILES[name]
        qf = estimate(p, LPConfig.naive_quadratic())
        ql = estimate(
            p, LPConfig.naive_quadratic().with_(locks=LockMode.LOCK_BASED)
        )
        cf = estimate(p, LPConfig.naive_cuckoo())
        cl = estimate(
            p, LPConfig.naive_cuckoo().with_(locks=LockMode.LOCK_BASED)
        )
        paper_row = paper_data.TABLE3_SLOWDOWN[name]
        rows.append({
            "bench": name, "blocks": p.n_blocks,
            "quad_free": qf.slowdown, "quad_lock": ql.slowdown,
            "cuckoo_free": cf.slowdown, "cuckoo_lock": cl.slowdown,
            "paper_quad_lock": paper_row["quad_lock"],
            "paper_cuckoo_lock": paper_row["cuckoo_lock"],
        })
    gm = {
        "quad_free": geomean_slowdown(r["quad_free"] for r in rows),
        "quad_lock": geomean_slowdown(r["quad_lock"] for r in rows),
        "cuckoo_free": geomean_slowdown(r["cuckoo_free"] for r in rows),
        "cuckoo_lock": geomean_slowdown(r["cuckoo_lock"] for r in rows),
    }
    by_blocks = sorted(rows, key=lambda r: r["blocks"])
    fidelity = {
        "lock_always_worse": all(
            r["quad_lock"] > r["quad_free"]
            and r["cuckoo_lock"] > r["cuckoo_free"] for r in rows
        ),
        "big_grids_catastrophic": all(
            r["quad_lock"] > 500 for r in rows
            if r["bench"] in ("mri-gridding", "sad")
        ),
        "small_grid_mild": by_blocks[0]["quad_lock"] < 2.0,
        "lock_geomean_tens_x": 5.0 <= gm["quad_lock"] <= 120.0,
    }
    rendered = render_table(
        "Table III — lock-based vs lock-free slowdowns",
        ["bench", "q free", "q lock", "paper", "c free", "c lock",
         "paper", "blocks"],
        [[r["bench"], fmt_slowdown(r["quad_free"]),
          fmt_slowdown(r["quad_lock"]), fmt_slowdown(r["paper_quad_lock"]),
          fmt_slowdown(r["cuckoo_free"]), fmt_slowdown(r["cuckoo_lock"]),
          fmt_slowdown(r["paper_cuckoo_lock"]), fmt_count(r["blocks"])]
         for r in rows]
        + [["geomean", fmt_slowdown(gm["quad_free"]),
            fmt_slowdown(gm["quad_lock"]), "36.62x",
            fmt_slowdown(gm["cuckoo_free"]),
            fmt_slowdown(gm["cuckoo_lock"]), "31.73x", "-"]],
    )
    return ExperimentResult("table3", "Locks vs lock-free", rows, rendered,
                            fidelity)


# ---------------------------------------------------------------------------
# Table IV
# ---------------------------------------------------------------------------

def table4() -> ExperimentResult:
    """Parallel (shuffle) vs sequential (through-memory) reduction."""
    rows = []
    for name in BENCHES:
        p = PROFILES[name]
        entries = {}
        for table_label, base_cfg in (
            ("quad", LPConfig.naive_quadratic()),
            ("cuckoo", LPConfig.naive_cuckoo()),
        ):
            entries[f"{table_label}_shfl"] = estimate(p, base_cfg).overhead
            entries[f"{table_label}_no"] = estimate(
                p, base_cfg.with_(reduction=ReductionMode.SEQUENTIAL_MEMORY)
            ).overhead
        entries["bench"] = name
        entries["paper"] = paper_data.TABLE4_REDUCTION[name]
        rows.append(entries)
    gm = {
        key: geomean_overhead(r[key] for r in rows)
        for key in ("quad_shfl", "quad_no", "cuckoo_shfl", "cuckoo_no")
    }
    bw = ("spmv", "sad", "histo")
    inst = ("tpacf", "cutcp", "mri-q")

    def rel_increase(r, t):  # no-shuffle penalty relative to baseline
        return r[f"{t}_no"] - r[f"{t}_shfl"]

    bw_penalty = np.mean([rel_increase(r, "quad") for r in rows
                          if r["bench"] in bw])
    inst_penalty = np.mean([rel_increase(r, "quad") for r in rows
                            if r["bench"] in inst])
    fidelity = {
        "no_shuffle_never_faster": all(
            r["quad_no"] >= r["quad_shfl"] - 1e-9
            and r["cuckoo_no"] >= r["cuckoo_shfl"] - 1e-9 for r in rows
        ),
        "geomean_increases": gm["quad_no"] > gm["quad_shfl"]
        and gm["cuckoo_no"] > gm["cuckoo_shfl"],
        "bandwidth_bound_suffer_more": bw_penalty > 3 * inst_penalty,
    }
    rendered = render_table(
        "Table IV — with vs without parallel (shuffle) reduction",
        ["bench", "quad+shfl", "paper", "quad+no", "paper",
         "cuckoo+shfl", "cuckoo+no"],
        [[r["bench"], fmt_pct(r["quad_shfl"]),
          fmt_pct(r["paper"]["quad_shfl"]), fmt_pct(r["quad_no"]),
          fmt_pct(r["paper"]["quad_no"]), fmt_pct(r["cuckoo_shfl"]),
          fmt_pct(r["cuckoo_no"])] for r in rows]
        + [["geomean", fmt_pct(gm["quad_shfl"]), "29.4%",
            fmt_pct(gm["quad_no"]), "63.3%", fmt_pct(gm["cuckoo_shfl"]),
            fmt_pct(gm["cuckoo_no"])]],
        note="SPMV's paper value (437.6%) is far above the traffic this "
             "model can attribute to reduction staging; the direction "
             "(bandwidth-bound kernels hurt most) reproduces",
    )
    return ExperimentResult("table4", "Reduction ablation", rows, rendered,
                            fidelity)


# ---------------------------------------------------------------------------
# Table V
# ---------------------------------------------------------------------------

def table5() -> ExperimentResult:
    """The paper's final design: global array + shuffle."""
    best = _estimates(LPConfig.paper_best())
    rows = []
    for name in BENCHES:
        e = best[name]
        paper_row = paper_data.TABLE5_ARRAY_SHUFFLE[name]
        rows.append({
            "bench": name,
            "time": e.overhead, "time_paper": paper_row["time"],
            "space": e.space_overhead, "space_paper": paper_row["space"],
        })
    gm_time = geomean_overhead(r["time"] for r in rows)
    gm_space = geomean_overhead(r["space"] for r in rows)
    quad = _estimates(LPConfig.naive_quadratic())
    fidelity = {
        "geomean_time_near_paper": abs(gm_time - 0.021) < 0.01,
        "always_beats_hash_tables": all(
            best[n].overhead <= quad[n].overhead + 1e-9 for n in BENCHES
        ),
        "space_overhead_small": gm_space < 0.06,
        "sad_has_largest_space": max(
            rows, key=lambda r: r["space"]
        )["bench"] == "sad",
    }
    rendered = render_table(
        "Table V — array+shuffle (the paper's final design)",
        ["bench", "time", "paper", "space", "paper"],
        [[r["bench"], fmt_pct(r["time"]), fmt_pct(r["time_paper"]),
          fmt_pct(r["space"]), fmt_pct(r["space_paper"])] for r in rows]
        + [["geomean", fmt_pct(gm_time), "2.1%", fmt_pct(gm_space),
            "1.63%"]],
        note="time column anchors the per-benchmark calibration "
             "(DESIGN.md SS2); space is predicted, not anchored",
    )
    return ExperimentResult("table5", "Global array design", rows, rendered,
                            fidelity)


# ---------------------------------------------------------------------------
# §VII-2 — multiple checksums
# ---------------------------------------------------------------------------

def multi_checksum() -> ExperimentResult:
    """One vs two simultaneous checksums on TMM with quadratic probing.

    Adler-32 — the checksum the paper rejects — is included for the
    record: it is order-sensitive, so it forfeits the shuffle reduction
    (sequential through-memory instead) on top of its higher per-update
    cost, which is exactly why it loses on GPUs (Section IV-B).
    """
    profile = PROFILES["tmm"]
    variants = {
        "parity": LPConfig.naive_quadratic().with_(
            checksums=(ChecksumKind.PARITY,)
        ),
        "modular": LPConfig.naive_quadratic().with_(
            checksums=(ChecksumKind.MODULAR,)
        ),
        "both": LPConfig.naive_quadratic(),
        "adler32": LPConfig.naive_quadratic().with_(
            checksums=(ChecksumKind.ADLER32,),
            reduction=ReductionMode.SEQUENTIAL_MEMORY,
        ),
    }
    rows = [
        {
            "variant": label,
            "overhead": estimate(profile, cfg).overhead,
            "paper": paper_data.MULTI_CHECKSUM_TMM.get(label),
        }
        for label, cfg in variants.items()
    ]
    by = {r["variant"]: r["overhead"] for r in rows}
    fidelity = {
        "both_costs_more_than_one": by["both"] > max(by["parity"],
                                                     by["modular"]),
        "second_checksum_is_cheap": (
            by["both"] <= 1.5 * max(by["parity"], by["modular"])
        ),
        # "Adler-32 is significantly more expensive than modular."
        "adler32_most_expensive": by["adler32"] > by["both"],
    }
    rendered = render_table(
        "Multiple checksums on TMM + quadratic probing (SS VII-2)",
        ["variant", "overhead", "paper"],
        [[r["variant"], fmt_pct(r["overhead"]),
          fmt_pct(r["paper"]) if r["paper"] is not None else "-"]
         for r in rows],
        note="combining modular and parity drives the false-negative "
             "bound below 1e-12 for a small bump in overhead; Adler-32 "
             "(no paper column) additionally loses the shuffle "
             "reduction because it is order-sensitive",
    )
    return ExperimentResult("multi_checksum", "Checksum combinations",
                            rows, rendered, fidelity)


# ---------------------------------------------------------------------------
# §VII-3 — write amplification (functional, on the simulator)
# ---------------------------------------------------------------------------

def write_amplification(scale: str = "medium") -> ExperimentResult:
    """NVM line writes, LP vs baseline, on the functional simulator.

    Runs each workload twice on an NVM-timed device (the paper's
    GPGPU-sim setup: 326.4 GB/s, 160/480 ns) and counts persistence-
    domain line writes. LP's only extra writes are the checksum stores,
    so amplification scales as (checksum bytes)/(data bytes); the
    functional scale has smaller blocks than the paper's, so the
    analytic paper-scale ratio is reported alongside.
    """
    from repro.core.runtime import LPRuntime
    from repro.gpu.device import Device
    from repro.gpu.spec import NVMSpec
    from repro.nvm.model import write_amplification as amp
    from repro.workloads import make_workload

    rows = []
    for name in ("spmv", "tmm", "sad"):
        baseline_dev = Device(nvm=NVMSpec.paper_nvm())
        work = make_workload(name, scale=scale)
        kernel = work.setup(baseline_dev)
        baseline_dev.launch(kernel)
        baseline_dev.drain()

        lp_dev = Device(nvm=NVMSpec.paper_nvm())
        work2 = make_workload(name, scale=scale)
        kernel2 = work2.setup(lp_dev)
        lp_kernel = LPRuntime(lp_dev, LPConfig.paper_best()).instrument(
            kernel2
        )
        lp_dev.launch(lp_kernel)
        lp_dev.drain()

        measured = amp(lp_dev.memory.write_stats,
                       baseline_dev.memory.write_stats)
        profile = PROFILES[name]
        analytic = (
            profile.n_blocks * 2 * 8 / profile.protected_data_bytes
        )
        rows.append({
            "bench": name,
            "measured": measured,
            "paper_scale_analytic": analytic,
            "baseline_lines": baseline_dev.memory.write_stats.total_lines,
            "lp_lines": lp_dev.memory.write_stats.total_lines,
        })
    fidelity = {
        "amplification_small": all(r["measured"] < 0.25 for r in rows),
        "analytic_small": all(
            r["paper_scale_analytic"] < 0.15 for r in rows
        ),
        "lp_writes_strictly_more": all(
            r["lp_lines"] > r["baseline_lines"] for r in rows
        ),
    }
    rendered = render_table(
        "Write amplification (SS VII-3) — NVM line writes, LP vs baseline",
        ["bench", "measured", "paper-scale analytic", "paper band"],
        [[r["bench"], fmt_pct(r["measured"]),
          fmt_pct(r["paper_scale_analytic"]), "0.5% - 2.2%"]
         for r in rows],
        note="functional scale uses smaller blocks, so the checksum/"
             "data byte ratio (and thus amplification) is higher than "
             "at paper scale; LP writes only checksums extra — no "
             "flushes, no logs",
    )
    return ExperimentResult("write_amp", "Write amplification", rows,
                            rendered, fidelity)


# ---------------------------------------------------------------------------
# §VII-4 — MEGA-KV (functional, on the simulator)
# ---------------------------------------------------------------------------

def megakv_overheads(n_records: int = 16384,
                     threads_per_block: int = 64) -> ExperimentResult:
    """LP overhead of MEGA-KV insert / search / delete batches.

    The paper's real-world evaluation: batches of 16K records. Modeled
    kernel cycles of the LP-instrumented batch vs the plain batch.
    """
    from repro.gpu.device import Device
    from repro.megakv import KVBatchSession, MegaKVStore
    from repro.megakv.kernels import (
        KVDeleteKernel,
        KVInsertKernel,
        KVSearchKernel,
        alloc_results,
    )
    from repro.workloads.generators import key_value_records

    rng = np.random.default_rng(42)
    keys, vals = key_value_records(rng, n_records)

    # Baseline: plain kernels, no LP.
    base_dev = Device()
    base_store = MegaKVStore(base_dev, capacity=n_records)
    base_cycles = {}
    ins = KVInsertKernel(base_store, keys, vals, threads_per_block)
    base_cycles["insert"] = base_dev.launch(ins).total_cycles
    alloc_results(base_dev, "base_results", n_records)
    srch = KVSearchKernel(base_store, keys, "base_results",
                          threads_per_block)
    base_cycles["search"] = base_dev.launch(srch).total_cycles
    dele = KVDeleteKernel(base_store, keys, threads_per_block)
    base_cycles["delete"] = base_dev.launch(dele).total_cycles

    # LP: the same batches through an instrumented session.
    lp_dev = Device()
    lp_store = MegaKVStore(lp_dev, capacity=n_records)
    session = KVBatchSession(lp_dev, lp_store,
                             threads_per_block=threads_per_block)
    lp_cycles = {
        "insert": session.insert(keys, vals).launch.total_cycles,
        "search": session.search(keys).launch.total_cycles,
        "delete": session.delete(keys).launch.total_cycles,
    }

    rows = [
        {
            "op": op,
            "overhead": lp_cycles[op] / base_cycles[op] - 1.0,
            "paper": paper_data.MEGAKV_OVERHEAD[op],
        }
        for op in ("search", "delete", "insert")
    ]
    fidelity = {
        "all_overheads_small": all(r["overhead"] < 0.25 for r in rows),
        "all_overheads_positive": all(r["overhead"] > 0 for r in rows),
    }
    rendered = render_table(
        f"MEGA-KV LP overheads (SS VII-4), {n_records} records/batch",
        ["op", "overhead", "paper"],
        [[r["op"], fmt_pct(r["overhead"]), fmt_pct(r["paper"])]
         for r in rows],
    )
    return ExperimentResult("megakv", "MEGA-KV overheads", rows, rendered,
                            fidelity)


# ---------------------------------------------------------------------------
# Figure 1 — warp shuffle reduction microbenchmark
# ---------------------------------------------------------------------------

def fig1() -> ExperimentResult:
    """Shuffle reduction: log2(32) steps, bit-exact lane values."""
    from repro.core.checksum import BatchChecksumState, ChecksumSet
    from repro.core.config import PAPER_CHECKSUM_PAIR
    from repro.core.reduction import reduce_parallel, reduce_sequential
    from repro.gpu.warp import WARP_SIZE, warp_reduce

    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 32, size=256).astype(np.uint64)
    _, steps = warp_reduce(values, "add")

    cset = ChecksumSet(PAPER_CHECKSUM_PAIR)
    state = BatchChecksumState(cset, 256)
    state.update(values.view(np.float64)[None], np.arange(256))
    par = reduce_parallel(state)
    seq = reduce_sequential(state)

    rows = [{
        "warp_size": WARP_SIZE,
        "shuffle_steps": steps,
        "sequential_steps": WARP_SIZE - 1,
        "parallel_equals_sequential": bool(np.array_equal(par, seq)),
    }]
    fidelity = {
        "log_steps": steps == 5,
        "exact": rows[0]["parallel_equals_sequential"],
    }
    rendered = render_table(
        "Figure 1 — warp-level shuffle reduction",
        ["warp size", "shuffle steps", "sequential steps", "bit-exact"],
        [[str(WARP_SIZE), str(steps), str(WARP_SIZE - 1),
          str(rows[0]["parallel_equals_sequential"])]],
        note="O(log N) register-to-register steps replace O(N) "
             "through-memory folding",
    )
    return ExperimentResult("fig1", "Shuffle reduction", rows, rendered,
                            fidelity)


# ---------------------------------------------------------------------------
# §IV-B — false-negative rates
# ---------------------------------------------------------------------------

def false_negative_rates(n_trials: int = 400) -> ExperimentResult:
    """Random error injection vs checksum detection.

    Random single-bit flips are detected by every lane; the interesting
    cases are *engineered* cancellations: a pair of identical flips
    cancels in parity (XOR) but not in the modular sum, and a +x/-x
    value swap cancels in the modular sum but not in parity — which is
    exactly why the paper runs both simultaneously.
    """
    from repro.core.checksum import ChecksumSet, to_lane_words

    rng = np.random.default_rng(7)
    region = 256

    def detects(kinds, mutate) -> bool:
        cset = ChecksumSet(kinds)
        data = rng.integers(1, 1 << 31, size=region).astype(np.int64)
        before = cset.checksum_of(data)
        corrupted = mutate(data.copy())
        after = cset.checksum_of(corrupted)
        return not np.array_equal(before, after)

    def random_flip(data):
        i = int(rng.integers(0, region))
        bit = int(rng.integers(0, 31))
        data[i] ^= 1 << bit
        return data

    def paired_flip_same_state(data):
        # Flip one bit position in two words where both bits are clear:
        # the XOR lane cancels (parity is blind), while the modular sum
        # gains 2**(b+1) (modular detects).
        while True:
            i, j = rng.choice(region, size=2, replace=False)
            bit = int(rng.integers(0, 20))
            mask = 1 << bit
            if not (data[i] & mask) and not (data[j] & mask):
                data[i] ^= mask
                data[j] ^= mask
                return data

    def sum_preserving(data):  # defeats modular; parity sees new bits
        i, j = rng.choice(region, size=2, replace=False)
        delta = int(rng.integers(1, 1 << 10))
        data[i] += delta
        data[j] -= delta
        return data

    def value_swap(data):
        # Exchanging two stored values preserves every order-insensitive
        # fold: an inherent blind spot of associative-region checksums
        # (LP regions assume corruption does not permute values between
        # locations — a lost cache line zeroes or stales data in place).
        i, j = rng.choice(region, size=2, replace=False)
        data[i], data[j] = data[j], data[i]
        return data

    both = (ChecksumKind.MODULAR, ChecksumKind.PARITY)
    single_m = (ChecksumKind.MODULAR,)
    single_p = (ChecksumKind.PARITY,)
    scenarios = {
        "random_flip": random_flip,
        "paired_flip": paired_flip_same_state,
        "sum_preserving": sum_preserving,
        "value_swap": value_swap,
    }
    rows = []
    for label, mutate in scenarios.items():
        for kinds, kname in ((single_m, "modular"), (single_p, "parity"),
                             (both, "both")):
            hits = sum(detects(kinds, mutate) for _ in range(n_trials))
            rows.append({
                "scenario": label, "checksums": kname,
                "detected": hits, "trials": n_trials,
                "rate": hits / n_trials,
            })
    by = {(r["scenario"], r["checksums"]): r["rate"] for r in rows}
    fidelity = {
        "random_flips_always_detected": by[("random_flip", "both")] == 1.0,
        "parity_blind_to_paired_flips": by[("paired_flip", "parity")] == 0.0,
        "modular_blind_to_sum_preserving": (
            by[("sum_preserving", "modular")] == 0.0
        ),
        # A +-2**k transfer between two words with no carries evades
        # both lanes at once (a genuinely correlated two-point
        # corruption), so coverage is high but not 1.0 here.
        "combined_covers_each_others_blind_spot": (
            by[("paired_flip", "both")] == 1.0
            and by[("sum_preserving", "both")] >= 0.90
        ),
        "value_swap_inherently_invisible": by[("value_swap", "both")] == 0.0,
    }
    word_check = to_lane_words(np.float32([3.5]))[0] == 1080033280
    fidelity["fig2_conversion"] = bool(word_check)
    rendered = render_table(
        "Checksum false negatives under error injection (SS IV-B)",
        ["scenario", "checksums", "detected/trials"],
        [[r["scenario"], r["checksums"],
          f"{r['detected']}/{r['trials']}"] for r in rows],
        note="each single checksum has a structured blind spot the "
             "other covers — the paper's rationale for running both "
             "(combined analytic residual 2^-128). Value permutation "
             "is invisible to any order-insensitive checksum; LP's "
             "failure model (lost/stale lines in place) does not "
             "produce it",
    )
    return ExperimentResult("fnr", "False-negative rates", rows, rendered,
                            fidelity)


#: The full registry: experiment id -> callable.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "fig5": fig5,
    "table2": table2,
    "collision_ablation": collision_ablation,
    "atomic_ablation": atomic_ablation,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "multi_checksum": multi_checksum,
    "write_amp": write_amplification,
    "megakv": megakv_overheads,
    "fig1": fig1,
    "fnr": false_negative_rates,
}


def run_all() -> dict[str, ExperimentResult]:
    """Run every registered experiment (the EXPERIMENTS.md generator)."""
    return {exp_id: fn() for exp_id, fn in EXPERIMENTS.items()}


# ---------------------------------------------------------------------------
# Extensions beyond the paper's tables (see DESIGN.md SS7 / README)
# ---------------------------------------------------------------------------

def ep_vs_lp(scale: str = "small") -> ExperimentResult:
    """Extension: measure LP against an Eager Persistency baseline.

    The paper argues against EP qualitatively (log maintenance, loss of
    locality from flushing, barrier stalls, write amplification; GPUs
    do not even have the instructions). The simulator has the
    primitives, so the comparison can be run: same workloads, three
    builds — baseline, LP (paper-best), and undo-log EP — comparing
    modeled kernel cycles and NVM line writes.
    """
    from repro.core.runtime import LPRuntime
    from repro.ep import EPRuntime
    from repro.gpu.device import Device
    from repro.workloads import make_workload

    def run(name, mode):
        device = Device()
        work = make_workload(name, scale=scale)
        kernel = work.setup(device)
        if mode == "lp":
            kernel = LPRuntime(device, LPConfig.paper_best()).instrument(
                kernel
            )
        elif mode == "ep":
            kernel = EPRuntime(device).instrument(kernel)
        result = device.launch(kernel)
        work.verify(device)
        device.drain()
        return result.total_cycles, device.memory.write_stats.total_lines

    rows = []
    for name in ("tmm", "spmv", "histo"):
        base_cycles, base_lines = run(name, "base")
        lp_cycles, lp_lines = run(name, "lp")
        ep_cycles, ep_lines = run(name, "ep")
        rows.append({
            "bench": name,
            "lp_overhead": lp_cycles / base_cycles - 1.0,
            "ep_overhead": ep_cycles / base_cycles - 1.0,
            "lp_write_amp": lp_lines / base_lines - 1.0,
            "ep_write_amp": ep_lines / base_lines - 1.0,
        })
    fidelity = {
        "ep_slower_than_lp": all(
            r["ep_overhead"] > r["lp_overhead"] for r in rows
        ),
        "ep_write_amp_dominates": all(
            r["ep_write_amp"] > 5 * max(r["lp_write_amp"], 1e-6)
            for r in rows
        ),
        "lp_write_amp_small": all(
            r["lp_write_amp"] < 0.25 for r in rows
        ),
    }
    rendered = render_table(
        "Extension: Lazy vs Eager Persistency (functional simulator)",
        ["bench", "LP time", "EP time", "LP writes", "EP writes"],
        [[r["bench"], fmt_pct(r["lp_overhead"]), fmt_pct(r["ep_overhead"]),
          fmt_pct(r["lp_write_amp"]), fmt_pct(r["ep_write_amp"])]
         for r in rows],
        note="EP = undo log + clwb + persist barriers per region; its "
             "extra NVM writes are the log, the flushed data and the "
             "commit flags — everything LP's checksums replace. EP "
             "needs no validation pass on recovery; LP pays at recovery "
             "time instead (the rare case).",
    )
    return ExperimentResult("ep_vs_lp", "Eager Persistency baseline",
                            rows, rendered, fidelity)


def fusion_ablation() -> ExperimentResult:
    """Extension: LP region granularity, from warps to fused blocks.

    SS II-A's trade-off end to end: smaller regions mean more checksum
    insertions and table pressure (factor 1/32 models warp-granularity
    regions — why the paper picks the thread block, not the warp);
    fusing F consecutive blocks (SS IV-A) divides the key count by F at
    the price of F-times-coarser recovery. Overheads are modeled at
    paper scale (MRI-GRIDDING under quadratic probing, where insertion
    is the bottleneck); recovery cycles are measured functionally (TMM,
    full-grid crash) for the fusable factors.
    """
    import dataclasses

    from repro.core.fusion import fuse_blocks
    from repro.core.recovery import RecoveryManager
    from repro.core.runtime import LPRuntime
    from repro.gpu.device import Device
    from repro.nvm.crash import CrashPlan
    from repro.workloads.tmm import TMMWorkload

    rows = []
    profile = PROFILES["mri-gridding"]
    # Fractional factors model *splitting* regions below a thread block
    # (1/32 = warp-granularity regions), the other end of SS II-A's
    # granularity trade-off: more regions, more checksum insertions.
    for factor in (1 / 32, 1 / 4, 1, 2, 4, 8, 16):
        fused_profile = dataclasses.replace(
            profile,
            n_blocks=max(1, round(profile.n_blocks / factor)),
            stores_per_thread=profile.stores_per_thread * factor,
        )
        est = estimate(fused_profile, LPConfig.naive_quadratic())

        row = {
            "factor": factor,
            "table_entries": fused_profile.n_blocks,
            "modeled_overhead": est.overhead,
            "recovery_cycles": None,
        }
        if factor >= 1:
            device = Device(cache_capacity_lines=8)
            work = TMMWorkload(scale="tiny")
            kernel = fuse_blocks(work.setup(device), int(factor))
            lp_kernel = LPRuntime(device).instrument(kernel)
            device.launch(lp_kernel, crash_plan=CrashPlan(after_blocks=0))
            report = RecoveryManager(device, lp_kernel).recover()
            work.verify(device)
            row["recovery_cycles"] = report.total_recovery_cycles
        rows.append(row)
    functional = [r for r in rows if r["recovery_cycles"] is not None]
    fidelity = {
        "fusion_shrinks_table": all(
            a["table_entries"] > b["table_entries"]
            for a, b in zip(rows, rows[1:])
        ),
        "granularity_monotone": all(
            a["modeled_overhead"] >= b["modeled_overhead"] - 1e-9
            for a, b in zip(rows, rows[1:])
        ),
        # Warp-granularity regions (factor 1/32) are markedly worse
        # than block-granularity: the paper's SS IV-A argument for the
        # thread block as the natural LP region.
        "warp_regions_cost_more_than_blocks": (
            rows[0]["modeled_overhead"] > 2 * rows[2]["modeled_overhead"]
        ),
        "recovery_granularity_coarsens": (
            functional[-1]["recovery_cycles"]
            >= functional[0]["recovery_cycles"] * 0.5
        ),
    }
    rendered = render_table(
        "Extension: LP region granularity — warps to fused blocks (SS II-A / IV-A)",
        ["fusion", "table entries", "modeled overhead (mri-gridding/quad)",
         "recovery cycles (tmm, full crash)"],
        [[("warp (1/32)" if r["factor"] == 1 / 32
           else f"x{r['factor']:g}"),
          fmt_count(r["table_entries"]),
          fmt_pct(r["modeled_overhead"]),
          (f"{r['recovery_cycles']:,.0f}"
           if r["recovery_cycles"] is not None else "-")]
         for r in rows],
        note="bigger regions: fewer checksum insertions (cheaper "
             "normal execution under hash tables) but coarser recovery; "
             "warp-granularity regions are why the paper picks the "
             "thread block as the LP region",
    )
    return ExperimentResult("fusion", "Thread-block fusion", rows,
                            rendered, fidelity)


EXPERIMENTS["ep_vs_lp"] = ep_vs_lp
EXPERIMENTS["fusion"] = fusion_ablation


def recovery_cost(scale: str = "small") -> ExperimentResult:
    """Extension: what does LP's rare case actually cost?

    LP's bargain (Section II-A): fast normal execution, slower crash
    recovery. This experiment characterizes the recovery bill — the
    always-paid validation sweep plus re-execution proportional to what
    was lost — as a function of the crash point, and shows how the
    cache size (the volume of not-yet-persisted data) sets how much a
    late crash loses.
    """
    from repro.core.recovery import RecoveryManager
    from repro.core.runtime import LPRuntime
    from repro.gpu.device import Device
    from repro.nvm.crash import CrashPlan
    from repro.workloads.tmm import TMMWorkload

    def run(after_fraction: float, cache_lines: int):
        device = Device(cache_capacity_lines=cache_lines)
        work = TMMWorkload(scale=scale)
        kernel = work.setup(device)
        lp_kernel = LPRuntime(device, LPConfig.paper_best()).instrument(
            kernel
        )
        n_blocks = kernel.launch_config().n_blocks
        after = int(round(after_fraction * n_blocks))
        device.launch(lp_kernel,
                      crash_plan=CrashPlan(after_blocks=after, seed=11))
        manager = RecoveryManager(device, lp_kernel)
        report = manager.recover()
        work.verify(device)
        validation = (report.initial.launch.total_cycles
                      + (report.final.launch.total_cycles
                         if report.final else 0.0))
        reexec = sum(lr.total_cycles for lr in report.recovery_launches)
        return {
            "crash_at": after_fraction,
            "cache_lines": cache_lines,
            "n_blocks": n_blocks,
            "failed": report.initial.n_failed,
            "validation_cycles": validation,
            "reexecution_cycles": reexec,
        }

    rows = [run(f, 16) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    rows += [run(1.0, cache) for cache in (4, 64, 100000)]

    sweep = rows[:5]
    fidelity = {
        # The validation sweep is paid regardless of the crash point.
        "validation_always_paid": all(
            r["validation_cycles"] > 0 for r in rows
        ),
        # Earlier crashes lose more blocks, hence more re-execution.
        "earlier_crash_costs_more_reexecution": (
            sweep[0]["reexecution_cycles"]
            >= sweep[-1]["reexecution_cycles"]
        ),
        "later_crash_fails_fewer_regions": (
            sweep[0]["failed"] > sweep[-1]["failed"]
        ),
        # A huge cache means a late crash still loses everything dirty;
        # a tiny cache evicted (persisted) almost all of it.
        "bigger_cache_loses_more": (
            rows[-1]["failed"] >= rows[5]["failed"]
        ),
    }
    rendered = render_table(
        "Extension: LP recovery cost (TMM, crash-point & cache sweep)",
        ["crash point", "cache lines", "failed regions",
         "validation cycles", "re-execution cycles"],
        [[f"{r['crash_at']:.0%} of grid", fmt_count(r["cache_lines"]),
          f"{r['failed']}/{r['n_blocks']}",
          f"{r['validation_cycles']:,.0f}",
          f"{r['reexecution_cycles']:,.0f}"] for r in rows],
        note="eager recovery = one validation sweep (same shape as the "
             "kernel) + re-execution of failed regions; the cache "
             "capacity bounds how much work a crash can strand "
             "un-persisted, which is what periodic checkpointing "
             "exploits (SS IV-A)",
    )
    return ExperimentResult("recovery_cost", "Recovery-cost profile",
                            rows, rendered, fidelity)


EXPERIMENTS["recovery_cost"] = recovery_cost


def scaling_sweep() -> ExperimentResult:
    """Extension: the paper's thesis as one curve — overhead vs grid size.

    Sweeps a synthetic benchmark (fixed per-block work, SAD-like
    64-thread blocks) from 64 to 131 072 thread blocks and reports each
    design's overhead. The hash tables and (catastrophically) the
    lock-based variants deteriorate with scale; the checksum global
    array stays flat — "scalable and fast", the title's claim.
    """
    from repro.bench.profiles import BenchProfile, INST

    variants = {
        "global_array": LPConfig.paper_best(),
        "quad": LPConfig.naive_quadratic(),
        "cuckoo": LPConfig.naive_cuckoo(),
        "quad_lock": LPConfig.naive_quadratic().with_(
            locks=LockMode.LOCK_BASED
        ),
    }
    #: Per-block runtime held constant: more blocks = more total work,
    #: the way a bigger input scales a real grid.
    per_block_cycles = 40.0

    rows = []
    for n_blocks in (64, 512, 4096, 16384, 65536, 131072):
        # With 2 560 blocks resident at a time, runtime is one wave's
        # latency until the grid exceeds residency, then scales 1:1.
        baseline = per_block_cycles * max(n_blocks, 2560)
        profile = BenchProfile(
            name=f"synthetic-{n_blocks}",
            n_blocks=n_blocks,
            threads_per_block=64,
            stores_per_thread=1.0,
            store_bytes=4,
            baseline_cycles=baseline,
            bottleneck=INST,
            lp_dilation=0.01,
        )
        row = {"blocks": n_blocks}
        for label, config in variants.items():
            est = estimate(profile, config)
            row[label] = est.overhead
        rows.append(row)

    first, last = rows[0], rows[-1]
    fidelity = {
        # The global array's overhead is scale-invariant (within noise).
        "global_array_flat": last["global_array"]
        < 2.0 * max(first["global_array"], 0.005),
        "hash_tables_deteriorate": last["quad"] > 10 * first["quad"] + 0.05,
        "locks_catastrophic_at_scale": last["quad_lock"] > 100.0,
        "global_array_always_best": all(
            r["global_array"] <= min(r["quad"], r["cuckoo"],
                                     r["quad_lock"]) + 1e-9
            for r in rows
        ),
    }
    rendered = render_table(
        "Extension: overhead vs grid size (synthetic, 64-thread blocks)",
        ["blocks", "global array", "quad", "cuckoo", "quad+lock"],
        [[fmt_count(r["blocks"]), fmt_pct(r["global_array"]),
          fmt_pct(r["quad"]), fmt_pct(r["cuckoo"]),
          fmt_pct(r["quad_lock"])] for r in rows],
        note="fixed per-block work; scaling the grid scales the total "
             "runtime 1:1 past full residency, so any superlinear "
             "insertion cost surfaces as growing overhead — except for "
             "the global array",
    )
    rendered += "\n\n" + render_bars(
        "Overhead at 131,072 blocks (clipped at 100%)",
        {label: {"": rows[-1][label]} for label in variants},
        clip=1.0,
    )
    return ExperimentResult("scaling", "Scalability sweep", rows,
                            rendered, fidelity)


EXPERIMENTS["scaling"] = scaling_sweep
