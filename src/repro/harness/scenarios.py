"""Crash-kill scenarios: the kill → reopen → recover → re-kill loop.

One scenario *cell* proves end-to-end durability for one (workload,
engine, LP config) combination:

1. **kill round 0** — a child process runs the forward launch against a
   fresh mapped heap and is SIGKILLed by its trigger mid-launch.
2. **measure** — the parent reopens the heap cold
   (:func:`repro.nvm.open_heap`), rebuilds the device deterministically,
   adopts the persisted images, and runs a validation pass: the failed
   blocks are what the crash *actually* lost, and the journal reports
   any torn write-back.
3. **kill rounds 1..k-1** — a fresh child reopens the heap and runs the
   recovery pipeline, and is killed again mid-recovery; the measure
   step repeats. Recovery progress persists across its own death —
   each round's failed set can only shrink.
4. **final** — the parent itself recovers in-process (same pluggable
   engine), drains, and verifies both the volatile output and the
   persisted NVM image against the workload's crash-free reference.

:func:`run_grid` drives cells across workloads × engines × configs and
builds the JSON report consumed by ``python -m repro crash-test`` and
the CI smoke job: per-round blocks lost, blocks recovered, torn lines,
and rounds to convergence.

With ``shards > 0`` every cell runs against a sharded heap and the
launch round becomes a *shard-kill* round (the child dies inside one
shard's armed journal window while the other shards stay clean).
Measurement and the offline inspector are the same code either way: a
heap is N >= 1 extents, and both report the per-extent torn split.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.errors import HarnessError
from repro.gpu.engine import ENGINES
from repro.harness.crashproc import (
    DEFAULT_TIMEOUT,
    ChildSpec,
    build_run,
    parse_trigger,
    run_child,
)
from repro.harness.tmpdir import ManagedTmpdir
from repro.nvm import copy_heap, inspect_path, open_heap
from repro.obs import current as _recorder

#: Grid defaults: two workloads with different store shapes (regular
#: row-per-block SPMV, strided tile-output TMM), every engine, the
#: paper-best table.
DEFAULT_WORKLOADS = ("spmv", "tmm")
DEFAULT_ENGINES = tuple(ENGINES)
DEFAULT_CONFIGS = ("global-array",)
#: Small write-back cache so the eviction trickle (and therefore kill
#: triggers and real data loss) starts early even at small scale.
DEFAULT_CACHE_LINES = 4
DEFAULT_TRIGGER = "writebacks:6"


def _measure(spec: ChildSpec) -> dict:
    """Reopen the heap cold and take stock: torn lines, failed blocks."""
    from repro.core.recovery import RecoveryManager

    heap = open_heap(spec.heap_path)
    try:
        torn_lines = heap.torn.n_lines if heap.torn is not None else 0
        torn_by_buffer = heap.torn_by_buffer()
        device, _work, lp_kernel = build_run(spec)
        heap.adopt(device.memory)
        report = RecoveryManager(device, lp_kernel).validate()
        return {
            "torn_lines": torn_lines,
            "torn_by_buffer": torn_by_buffer,
            "torn_by_shard": {
                str(k): torn.n_lines
                for k, torn in sorted(heap.torn_by_extent.items())
            },
            "buffers": sorted(heap.entries),
            "blocks_failed": report.n_failed,
            "missing_checksums": len(report.missing_checksums),
        }
    finally:
        heap.close()


def _inspect_round(spec: ChildSpec) -> dict:
    """Offline inspector's view of the post-kill heap.

    Must run *before* :func:`_measure`: the cold reopen clears armed
    journals as a side effect, and the whole point of the offline
    inspector is to decode the file(s) exactly as the SIGKILL left
    them. Per-extent torn windows are merged the same way the live
    reopen merges them.
    """
    report = inspect_path(spec.heap_path)
    armed = report.armed_extents()
    return {
        "armed": bool(armed),
        "mode": "+".join(report.extents[k].torn.mode
                         for k in armed) or "EMPTY",
        **report.merged_torn(),
        "buffers": sorted(e.name for e in report.entries),
        "shards_armed": armed,
        "torn_by_shard": {
            str(k): report.extents[k].torn.n_lines for k in armed},
    }


def _inspect_consistent(inspected: dict, measured: dict) -> bool:
    """Does the read-only inspector agree with the reopen path?

    The two decode the same on-disk structures through entirely
    different code paths (cold ``ACCESS_READ`` map vs. the live
    reopen); any disagreement on the journal's armed state, the
    torn-line attribution, the per-shard split, or the directory is a
    format bug.
    """
    return (
        inspected["armed"] == (measured["torn_lines"] > 0)
        and inspected["torn_lines"] == measured["torn_lines"]
        and inspected["torn_by_buffer"] == measured["torn_by_buffer"]
        and inspected["buffers"] == measured["buffers"]
        and inspected["torn_by_shard"] == measured["torn_by_shard"]
    )


def _final_recover(spec: ChildSpec) -> dict:
    """Parent-side convergence: recover in-process, drain, verify."""
    from repro.core.recovery import RecoveryManager
    from repro.errors import RecoveryError

    heap = open_heap(spec.heap_path)
    try:
        device, work, lp_kernel = build_run(spec)
        heap.adopt(device.memory)
        try:
            report = RecoveryManager(device, lp_kernel).recover()
        except RecoveryError as exc:
            return {"converged": False, "error": str(exc),
                    "verified": False, "verified_persisted": False,
                    "blocks_recovered": 0, "recovery_launches": 0}
        device.drain()
        return {
            "converged": report.recovered,
            "blocks_recovered": len(report.recovered_blocks),
            "recovery_launches": len(report.recovery_launches),
            "verified": work.matches(device),
            "verified_persisted": work.matches(device, persisted=True),
            "forensics": None if report.forensics is None
            else report.forensics.to_dict(),
        }
    finally:
        heap.close()


def _round_trigger(
    trigger: str, kill_seed: int | None, round_no: int,
    workload: str, engine: str, config: str,
) -> str:
    """The trigger one kill round uses.

    Without ``kill_seed`` every round kills at the same fixed
    threshold. With it, count-based thresholds are drawn from a
    deterministic per-(cell, round) stream — the base threshold bounds
    the draw at twice its value — so one seed reproduces a whole
    family of kill points exactly (``walltime`` triggers are left
    untouched: wall-clock kills are not reproducible anyway).
    """
    import numpy as np

    kind, value = parse_trigger(trigger)
    if kill_seed is None or kind == "walltime":
        return trigger
    cell_key = zlib.crc32(f"{workload}/{engine}/{config}".encode())
    rng = np.random.default_rng([kill_seed, round_no, cell_key])
    threshold = int(rng.integers(1, max(2, 2 * int(value)) + 1))
    return f"{kind}:{threshold}"


def run_cell(
    workload: str,
    engine: str,
    config: str,
    scale: str = "small",
    seed: int = 0,
    kill_rounds: int = 2,
    trigger: str = DEFAULT_TRIGGER,
    cache_lines: int = DEFAULT_CACHE_LINES,
    timeout: float = DEFAULT_TIMEOUT,
    keep_tmp: bool = False,
    kill_seed: int | None = None,
    trace_dir=None,
    artifacts_dir=None,
    shards: int = 0,
) -> dict:
    """Run the full kill loop for one grid cell; returns its report.

    With ``trace_dir`` every child round streams its flight recorder
    to ``<dir>/<workload>-<engine>-<config>-roundN-<phase>.trace.jsonl``
    (the trace survives the SIGKILL up to the kill instant). With
    ``artifacts_dir`` the heap file is copied there — armed journal and
    all — after the last kill round, before the parent's in-process
    recovery cleans it, so ``repro inspect`` can be run on it later.

    With ``shards > 0`` the cell runs against an N-shard heap and the
    launch round
    becomes the **shard-kill round**: a count-based write-back trigger
    is rewritten to ``shardwb*`` so the SIGKILL lands inside exactly
    one shard's armed journal window while the other shards' committed
    write-backs stay clean — the containment the cell then proves by
    converging bit-exactly. Sharded artifacts land in a
    ``<cell>.sharded/`` subdirectory (manifest + every shard file,
    names preserved so the manifest stays openable).
    """
    parse_trigger(trigger)  # fail fast on bad input
    if kill_rounds < 1:
        raise HarnessError(f"kill_rounds must be >= 1, got {kill_rounds}")
    rec = _recorder()
    rounds: list[dict] = []
    cell_tag = f"{workload}-{engine}-{config}"
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    with ManagedTmpdir(keep=keep_tmp) as tmp, rec.trace.span(
        "harness.cell", cat="harness", track="harness",
        workload=workload, engine=engine, config=config,
        shards=shards,
    ):
        base = dict(
            workload=workload, scale=scale, seed=seed, config=config,
            engine=engine, cache_lines=cache_lines,
            heap_path=str(tmp.file("heap.lpnv")),
            ready_path=str(tmp.file("ready")),
            shards=shards,
        )
        for round_no in range(kill_rounds):
            phase = "launch" if round_no == 0 else "recover"
            round_trigger = _round_trigger(
                trigger, kill_seed, round_no, workload, engine, config
            )
            if shards > 0 and phase == "launch":
                kind, value = parse_trigger(round_trigger)
                if kind == "writebacks":
                    # The shard-kill round: die inside one shard's
                    # armed journal window instead of the heap-wide
                    # write-back count.
                    round_trigger = f"shardwb*:{int(value)}"
            trace_path = None if trace_dir is None else str(
                trace_dir / f"{cell_tag}-round{round_no}-{phase}"
                ".trace.jsonl"
            )
            spec = ChildSpec(phase=phase, trigger=round_trigger,
                             trace_path=trace_path, **base)
            outcome = run_child(spec, tmp, timeout=timeout)
            if artifacts_dir is not None:
                # Snapshot the raw post-kill image (armed journal and
                # all) before _measure's reopen disarms it; the last
                # round's snapshot is the cell's artifact.
                # A manifest names its shard files, so a sharded cell
                # gets a directory of its own.
                copy_heap(base["heap_path"], Path(artifacts_dir) / (
                    f"{cell_tag}.sharded/heap.lpnv" if shards > 0
                    else f"{cell_tag}.heap.lpnv"))
            # Cold-inspect the heap *before* _measure reopens it —
            # open() disarms the journal, the inspector must see the
            # exact post-SIGKILL bytes.
            inspected = _inspect_round(spec)
            measured = _measure(spec)
            rounds.append({
                "phase": phase,
                "trigger": round_trigger,
                "killed": outcome.killed,
                "returncode": outcome.returncode,
                "spawn_attempts": outcome.attempts,
                "inspect": inspected,
                "inspect_consistent":
                    _inspect_consistent(inspected, measured),
                **measured,
            })
            if rec.metrics.active:
                rec.metrics.inc("harness.rounds", phase=phase,
                                workload=workload, engine=engine)
            if rec.sampler is not None:
                # Round boundary: flush a telemetry sample so the time
                # series shows per-round progress even for short cells.
                rec.sampler.sample()
            if outcome.completed and measured["blocks_failed"] == 0:
                # The child outran its trigger and left a fully
                # consistent heap; further kill rounds would be no-ops.
                break
        final = _final_recover(
            ChildSpec(phase="recover", trigger=None, **base)
        )
    return {
        "workload": workload,
        "engine": engine,
        "config": config,
        "shards": shards,
        "rounds": rounds,
        "final": final,
        #: Process generations from first kill to a verified state.
        "rounds_to_convergence": len(rounds) + 1,
        "ok": bool(final["converged"] and final["verified"]
                   and final["verified_persisted"]
                   and all(r["inspect_consistent"] for r in rounds)),
    }


def run_grid(
    workloads=DEFAULT_WORKLOADS,
    engines=DEFAULT_ENGINES,
    configs=DEFAULT_CONFIGS,
    scale: str = "small",
    seed: int = 0,
    kill_rounds: int = 2,
    trigger: str = DEFAULT_TRIGGER,
    cache_lines: int = DEFAULT_CACHE_LINES,
    timeout: float = DEFAULT_TIMEOUT,
    progress=None,
    kill_seed: int | None = None,
    trace_dir=None,
    artifacts_dir=None,
    shards: int = 0,
) -> dict:
    """Run every cell of the grid; returns the full JSON-able report."""
    cells = []
    for workload in workloads:
        for engine in engines:
            for config in configs:
                if progress is not None:
                    progress(f"{workload} × {engine} × {config}")
                cells.append(run_cell(
                    workload, engine, config, scale=scale, seed=seed,
                    kill_rounds=kill_rounds, trigger=trigger,
                    cache_lines=cache_lines, timeout=timeout,
                    kill_seed=kill_seed, trace_dir=trace_dir,
                    artifacts_dir=artifacts_dir, shards=shards,
                ))
    return {
        "suite": "crash-test",
        "scale": scale,
        "seed": seed,
        "kill_seed": kill_seed,
        "trigger": trigger,
        "kill_rounds": kill_rounds,
        "cache_lines": cache_lines,
        "shards": shards,
        "cells": cells,
        "converged": all(cell["ok"] for cell in cells),
    }


def write_report(report: dict, path) -> None:
    """Write the grid report as pretty JSON."""
    with open(Path(path), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def render_text(report: dict) -> str:
    """Human-readable summary table of a grid report."""
    lines = [
        f"crash-test: trigger {report['trigger']}, "
        f"{report['kill_rounds']} kill round(s), "
        f"scale {report['scale']}",
        f"{'workload':10s} {'engine':9s} {'config':13s} "
        f"{'kills':>5s} {'torn':>5s} {'lost':>5s} {'recov':>6s} "
        f"{'rounds':>6s}  status",
    ]
    for cell in report["cells"]:
        kills = sum(1 for r in cell["rounds"] if r["killed"])
        torn = sum(r["torn_lines"] for r in cell["rounds"])
        lost = cell["rounds"][0]["blocks_failed"] if cell["rounds"] else 0
        lines.append(
            f"{cell['workload']:10s} {cell['engine']:9s} "
            f"{cell['config']:13s} {kills:5d} {torn:5d} {lost:5d} "
            f"{cell['final'].get('blocks_recovered', 0):6d} "
            f"{cell['rounds_to_convergence']:6d}  "
            + ("ok" if cell["ok"] else "FAILED")
        )
    lines.append(
        "all cells converged and verified."
        if report["converged"] else "SOME CELLS FAILED."
    )
    return "\n".join(lines)
